"""Iterative control optimization on adjoint-matching surrogates.

Each iteration simulates a fresh batch under the current control, solves
the backward adjoints along it, evaluates one surrogate loss on the frozen
batch, and steps the parameters down its gradient (optionally clipped to a
trust region). Only the re-evaluated control carries parameter dependence
inside the loss, so each iteration is plain gradient descent on a frozen
quadratic-ish landscape; resampling the batch every iteration (default)
turns this into stochastic descent on the surrogate objective.

`msa_exact` replaces the gradient step for the affine control families
(`control.affine`: u = K(t) x + c(t), linear in theta) by the solve of
`msa_exact_step`, the theta at which the lean-AM gradient on the batch
vanishes (control-affine-quadratic problems only): simulate, solve
adjoints, fit the control, repeat. The fit's normal equations are summed
in the walk that evaluates the loss, so each iteration walks its batch
once. What the loop cannot train is refused before the first batch.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Optional

import numpy as np

from . import _io
from .adjoint import (_aligned, _node_sums, _per_node, _scatter, _walk,
                      freeze_control, solve_first_order_adjoint,
                      solve_lean_adjoint, solve_second_order_adjoint)
from .errors import (SimulationError, TrainingAborted,
                     UnsupportedProblemError, ValidationError)
from .hamiltonians import (_check_quadratic_am, _mean_se, _walk_loss,
                           bam_loss, lean_am_loss, quadratic_am_loss,
                           sample_pathwise_costs)
from .simulate import _positive_count, _vecmat, simulate_batch

logger = logging.getLogger(__name__)

_LOSS_KINDS = ("lean_am", "bam", "quadratic_am")
_DIVERGENCE_LIMIT = 1e6


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop.

    resample_noise_each_iter=True simulates iteration j with master_seed+j;
    False reuses master_seed every iteration (a fixed batch, useful for
    reproducibility guards and debugging descent). step_size must be
    finite, and positive unless msa_exact.
    """

    n_iters: int
    paths_per_iter: int
    step_size: float
    master_seed: int
    loss_kind: str = "lean_am"
    resample_noise_each_iter: bool = True
    trust_region_radius: Optional[float] = None
    msa_exact: bool = False

    def __post_init__(self):
        for name in ("n_iters", "paths_per_iter"):
            object.__setattr__(self, name,
                               _positive_count(getattr(self, name), name))
        if self.loss_kind not in _LOSS_KINDS:
            raise ValidationError(
                f"loss_kind must be one of {_LOSS_KINDS}, got {self.loss_kind!r}")
        if not math.isfinite(self.step_size) or (self.step_size <= 0.0
                                                 and not self.msa_exact):
            raise ValidationError(
                f"step_size must be finite and positive, "
                f"got {self.step_size}")
        # `not r > 0` also refuses nan, which would disable the clipping
        if (self.trust_region_radius is not None
                and not self.trust_region_radius > 0.0):
            raise ValidationError(
                f"trust_region_radius must be positive, "
                f"got {self.trust_region_radius}")


@dataclasses.dataclass(frozen=True)
class TrainRecord:
    iteration: int
    loss: float
    grad_norm: float
    objective: float
    objective_se: float
    step_norm: float


@dataclasses.dataclass
class TrainHistory:
    """Per-iteration records; exactly n_iters entries unless aborted."""

    records: list
    aborted: bool = False
    abort_reason: str = ""

    def to_csv(self, path):
        write_history_csv(self, path)


def write_history_csv(history, path):
    header = ["iter", "loss", "grad_norm", "objective", "objective_se",
              "step_norm"]
    rows = [[r.iteration, r.loss, r.grad_norm, r.objective, r.objective_se,
             r.step_norm] for r in history.records]
    _io.write_csv(path, header, rows)


def _solve_loss(problem, control, batch, loss_kind, fit=None):
    """LossReport of `loss_kind` on `batch`, after its adjoints; with
    `fit`, the loss walk also feeds it every chunk (`_normal_equations`)."""
    stored = ()
    if loss_kind == "bam":
        frozen = freeze_control(control)
        first = solve_first_order_adjoint(problem, frozen, batch)
        stored = (solve_second_order_adjoint(problem, frozen, batch, first),)
    else:
        first = solve_lean_adjoint(problem, control, batch)
    if fit is not None:
        return _walk_loss(loss_kind, problem, control, batch, first,
                          *(s.values for s in stored), fit=fit)
    loss = {"lean_am": lean_am_loss, "bam": bam_loss,
            "quadratic_am": quadratic_am_loss}[loss_kind]
    return loss(problem, control, batch, first, *stored)


def _check_msa(problem, control):
    """UnsupportedProblemError unless `msa_exact_step` applies."""
    if not control.affine:
        raise UnsupportedProblemError(
            f"msa_exact_step needs an affine control family "
            f"(u = K(t) x + c(t), linear in theta), got {control.family!r}")
    if not problem.control_affine_quadratic:
        raise UnsupportedProblemError(
            "msa_exact_step needs a control_affine_quadratic problem")


def _normal_equations(problem, control, dt):
    """(normal, rhs, add) of the MSA fit, both zero until add(lo, hi, t,
    x, u, layouts, phi, a) sums one frozen-batch walk chunk into them.

    A node's normal matrix is phi's F x F Gram, added at every control
    component's layout; its right-hand side is the features contracted
    with the target -d2_drift' a.
    """
    normal = np.zeros((control.n_params, control.n_params))
    rhs = np.zeros(control.n_params)
    d2_drift = problem.derivatives.d2_drift

    def add(lo, hi, t, x, u, layouts, phi, a):
        target = -_vecmat(a, d2_drift(x, u, t))
        phi_nodes = _per_node(phi, lo, hi)
        grams = np.einsum("nbf,nbg->nfg", phi_nodes, phi_nodes)
        np.add.at(normal, (layouts[..., None], layouts[:, :, None]),
                  dt * grams[:, None])
        _scatter(rhs, layouts, dt * _node_sums(phi, target, lo, hi))

    return normal, rhs, add


def _solve_normal_equations(normal, rhs):
    """The normal equations' solution, or their pseudoinverse's (with a
    warning) when they are near-singular."""
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > 1e12:
        logger.warning("normal equations ill-conditioned (cond=%.3e); "
                       "using pseudoinverse", cond)
        return np.linalg.pinv(normal) @ rhs
    return np.linalg.solve(normal, rhs)


def msa_exact_step(problem, control, traj_batch, lean_adjoints):
    """Solve for the theta at which the lean-AM gradient on the batch vanishes.

    Control-affine-quadratic problems and affine controls only. There
    f + <b, a> is minimized over u by u = -d2_drift' a, and the zero is
    the fit min_theta sum_i dt * mean_b |u_theta(X_i,t_i) + d2_drift_i' a_i|^2
    by the normal equations, or their pseudoinverse (with a warning) when
    they are near-singular. Returns the new parameter vector.
    """
    _check_msa(problem, control)
    avals = _aligned(lean_adjoints, traj_batch, "lean_adjoints")
    normal, rhs, add = _normal_equations(problem, control,
                                         traj_batch.grid.dt)
    for chunk in _walk(problem, control, traj_batch, avals):
        add(*chunk)
    return _solve_normal_equations(normal, rhs)


def _check_trainable(problem, control, config):
    """Refuse, before the first batch, what the loop would refuse later
    or train with a biased loss: UnsupportedProblemError."""
    if config.loss_kind == "lean_am" and not problem.diffusion_ignores_control:
        raise UnsupportedProblemError(
            "loss_kind 'lean_am' needs a diffusion that ignores u; its "
            "gradient drops the noise's dependence on the control (use "
            "'bam')")
    if config.loss_kind == "quadratic_am":
        _check_quadratic_am(problem)
    if config.msa_exact:
        _check_msa(problem, control)


def train_adjoint_matching(problem, control, grid, config):
    """Run the training loop; returns (trained control, TrainHistory).

    Aborts (TrainingAborted, carrying the partial history) on a non-finite
    state, adjoint, loss or gradient or once the loss exceeds 1e6. The
    recorded objective is the batch estimate under the pre-update control
    of that iteration.
    """
    _check_trainable(problem, control, config)
    history = TrainHistory(records=[])

    def abort(iteration, reason):
        history.aborted = True
        history.abort_reason = reason
        raise TrainingAborted(f"training aborted at iteration {iteration}: "
                              f"{reason}", iteration=iteration, history=history)

    for it in range(config.n_iters):
        seed = (config.master_seed + it if config.resample_noise_each_iter
                else config.master_seed)
        normal, rhs, fit = (_normal_equations(problem, control, grid.dt)
                            if config.msa_exact else (None, None, None))
        try:
            batch = simulate_batch(problem, control, grid, seed,
                                   config.paths_per_iter)
            report = _solve_loss(problem, control, batch, config.loss_kind,
                                 fit)
        except SimulationError as exc:
            abort(it, str(exc))
        objective, objective_se = _mean_se(batch.pathwise_costs)
        if not math.isfinite(report.loss_value):
            abort(it, f"non-finite loss {report.loss_value!r}")
        if not np.all(np.isfinite(report.grad_theta)):
            abort(it, "non-finite gradient")
        if abs(report.loss_value) > _DIVERGENCE_LIMIT:
            abort(it, f"loss diverged ({report.loss_value:.3e})")

        if config.msa_exact:
            step_vec = _solve_normal_equations(normal, rhs) - control.theta
        else:
            step_vec = -config.step_size * report.grad_theta
        radius = config.trust_region_radius
        step_norm = float(np.linalg.norm(step_vec))
        if radius is not None and step_norm > radius:
            step_vec = step_vec * (radius / step_norm)
            step_norm = float(np.linalg.norm(step_vec))
        control = control.with_theta(control.theta + step_vec)

        history.records.append(TrainRecord(
            iteration=it, loss=report.loss_value, grad_norm=report.grad_norm,
            objective=objective, objective_se=objective_se,
            step_norm=step_norm))
    return control, history


def evaluate_checkpoint(problem, control, grid, master_seed, n_paths):
    """Fresh-path metrics for a control: objective and terminal-state stats."""
    costs, terminal = sample_pathwise_costs(problem, control, grid,
                                            master_seed, n_paths)
    objective, se = _mean_se(costs)
    metrics = {
        "objective": objective,
        "objective_se": se,
        "n_paths": int(n_paths),
    }
    for j in range(problem.d):
        metrics[f"terminal_mean_{j}"] = float(terminal[:, j].mean())
        metrics[f"terminal_var_{j}"] = float(terminal[:, j].var(ddof=1))
    return metrics


def write_metrics_csv(metrics, path):
    """Write a metrics dict as (metric, value) rows, insertion-ordered."""
    _io.write_csv(path, ["metric", "value"],
                  [[key, value] for key, value in metrics.items()])
