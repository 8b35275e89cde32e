"""soc_lab: stochastic optimal control with pathwise adjoints.

Simulate controlled diffusions, solve backward adjoint equations along the
sampled paths, and train parametric controls by matching them to the
adjoints — with independent oracles (finite differences, Riccati ODEs,
closed-form Gaussian targets) for every numerical claim.
"""

from .adjoint import (Adjoints, Propagators, feynman_kac_lean,
                      freeze_control, fundamental_matrix,
                      solve_first_order_adjoint, solve_lean_adjoint,
                      solve_second_order_adjoint, theta_gradient_via_adjoint,
                      write_adjoints_csv)
from .control import (ControlModel, load_control,
                      make_feature_linear_control,
                      make_linear_feedback_control,
                      make_one_hidden_layer_control, save_control)
from .errors import (ConfigError, SimulationError, SocLabError,
                     TrainingAborted, UnsupportedProblemError,
                     ValidationError)
from .hamiltonians import (LossReport, bam_loss, hamiltonian_full,
                           hamiltonian_generalized, hamiltonian_lean,
                           hamiltonian_smp, lean_am_loss,
                           per_path_lean_am_gradients, quadratic_am_loss,
                           sample_pathwise_costs, soc_objective,
                           write_loss_reports_csv)
from .oracle import (HjbResidualReport, LQValueFunction, MemorylessnessReport,
                     RiccatiSolution, SmpReport, fd_pathwise_gradient,
                     fd_pathwise_hessian, hjb_residual_1d,
                     memorylessness_check, pathwise_value, smp_representation_check,
                     solve_riccati, tilted_gaussian_target)
from .problem import (DerivativeBundle, HTerm, LQData, OUParams, ProblemSpec,
                      SecondOrderBundle, make_controlled_diffusion_problem,
                      make_lq_problem, make_ou_tilt_problem,
                      make_scalar_geometric_problem, validate_derivatives)
from .simulate import (BrownianPath, TimeGrid, Trajectory, TrajectoryBatch,
                       draw_batch_inputs, euler_step, sample_brownian,
                       simulate_batch, simulate_costs, simulate_forward,
                       write_trajectories_csv)
from .train import (TrainConfig, TrainHistory, TrainRecord,
                    evaluate_checkpoint, msa_exact_step,
                    train_adjoint_matching, write_history_csv,
                    write_metrics_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
