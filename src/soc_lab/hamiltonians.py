"""Hamiltonians, surrogate losses, and the control objective estimator.

Pointwise Hamiltonians (diagnostics, closed-form optima, PDE residuals):

    hamiltonian_full        f + <b, p> + 0.5 tr(sigma sigma' M)
    hamiltonian_lean        f + <b, p>
    hamiltonian_smp         f + <b, p> + tr(sigma' q)
    hamiltonian_generalized f + <b, p>
                              + 0.5 tr((sigma(u)-sigma(u_ref))' M (sigma(u)-sigma(u_ref)))

Surrogate losses evaluate a frozen batch (trajectories + adjoints) at the
*current* parameters of a control: only the re-evaluated u_theta(X_i, t_i)
carries parameter dependence; states, noise, and adjoints stay fixed.
The losses, the per-path lean-AM gradients, the theta-gradient and the
MSA step share one walker over the frozen batch (`adjoint._walk`), which
hands every callback a chunk of grid nodes at once, one alignment check
of the stored values (`adjoint._aligned`), and one copy each of the lean
Hamiltonian f + <b, a> and its u-gradient. The walks contract the
u-gradient v with du/dtheta's feature matrix phi, not with a zero-padded
(B, k, P) block: sum_b phi[b, f] v[b, c] lands at theta's column
layout(c, f). Each loss returns a LossReport whose loss_value is exactly
dt * sum(per_time_terms) (per_time_terms[i] = path average of the i-th
integrand) and whose grad_theta is the analytic parameter gradient of
loss_value for the same frozen batch.

`soc_objective` estimates the true discrete control cost on fresh paths
and reports (mean, standard error).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _io
from .adjoint import (SECOND_ORDER, _add_per_path, _aligned,
                      _lean_hamiltonian, _lean_u_gradient, _node_sums,
                      _per_node, _scatter, _walk)
from .errors import UnsupportedProblemError, ValidationError
from .simulate import (_positive_count, _vecmat, draw_batch_inputs,
                       simulate_costs)


def _point(problem, x, u):
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    u = np.atleast_2d(u)
    if x.shape[1] != problem.d or u.shape[1] != problem.k:
        raise ValidationError(
            f"state/control shapes {x.shape}/{u.shape} do not match "
            f"problem dims d={problem.d}, k={problem.k}")
    return x, u, single


def hamiltonian_full(problem, x, u, t, costate, curvature):
    """f + <b, p> + 0.5 tr(sigma sigma' M); batched or single-point."""
    x, u, single = _point(problem, x, u)
    p = np.atleast_2d(np.asarray(costate, dtype=np.float64))
    m_mat = np.asarray(curvature, dtype=np.float64)
    if m_mat.ndim == 2:
        m_mat = m_mat[None]
    sigma = problem.diffusion(x, u, t)
    value = (_lean_hamiltonian(problem, x, u, t, p)
             + 0.5 * np.einsum("bij,bej,bie->b", sigma, sigma, m_mat))
    return float(value[0]) if single else value


def hamiltonian_lean(problem, x, u, t, costate):
    """f + <b, p>: the control-relevant Hamiltonian when sigma is u-free."""
    x, u, single = _point(problem, x, u)
    p = np.atleast_2d(np.asarray(costate, dtype=np.float64))
    value = _lean_hamiltonian(problem, x, u, t, p)
    return float(value[0]) if single else value


def hamiltonian_smp(problem, x, u, t, costate, noise_costate):
    """f + <b, p> + tr(sigma' q) with a (d, m) noise costate q."""
    x, u, single = _point(problem, x, u)
    p = np.atleast_2d(np.asarray(costate, dtype=np.float64))
    q = np.asarray(noise_costate, dtype=np.float64)
    if q.ndim == 2:
        q = q[None]
    value = (_lean_hamiltonian(problem, x, u, t, p)
             + np.einsum("bij,bij->b", problem.diffusion(x, u, t), q))
    return float(value[0]) if single else value


def hamiltonian_generalized(problem, x, u, t, costate, curvature, u_ref):
    """Lean form plus the curvature penalty on the diffusion gap to u_ref."""
    x, u, single = _point(problem, x, u)
    u_ref = np.atleast_2d(np.asarray(u_ref, dtype=np.float64))
    p = np.atleast_2d(np.asarray(costate, dtype=np.float64))
    m_mat = np.asarray(curvature, dtype=np.float64)
    if m_mat.ndim == 2:
        m_mat = m_mat[None]
    gap = problem.diffusion(x, u, t) - problem.diffusion(x, u_ref, t)
    value = (_lean_hamiltonian(problem, x, u, t, p)
             + 0.5 * np.einsum("bij,bej,bie->b", gap, gap, m_mat))
    return float(value[0]) if single else value


@dataclasses.dataclass(frozen=True)
class LossReport:
    """One surrogate-loss evaluation on a frozen batch."""

    kind: str
    loss_value: float
    grad_theta: np.ndarray
    per_time_terms: np.ndarray
    n_paths: int

    @property
    def grad_norm(self):
        return float(np.linalg.norm(self.grad_theta))


def _lean_am_step(problem, t, x, u, a):
    return (_lean_hamiltonian(problem, x, u, t, a),
            _lean_u_gradient(problem, x, u, t, a))


def _bam_step(problem, t, x, u, a, a_mat):
    sigma = problem.diffusion(x, u, t)
    ham = (_lean_hamiltonian(problem, x, u, t, a)
           + 0.5 * np.einsum("bij,bej,bie->b", sigma, sigma, a_mat))
    v = _lean_u_gradient(problem, x, u, t, a)
    dsigma_du = problem.derivatives.dsigma_du
    if dsigma_du is not None:
        a_sigma = np.einsum("bde,bej->bdj", a_mat, sigma)
        v = v + np.einsum("bdj,bjdc->bc", a_sigma, dsigma_du(x, u, t))
    return ham, v


def _quadratic_am_step(problem, t, x, u, a):
    resid = u + _vecmat(a, problem.diffusion(x, u, t))
    return 0.5 * np.einsum("bk,bk->b", resid, resid), resid


# step(problem, t, x, u, a_i, *rows) of each loss kind: on a chunk's rows,
# the per-path integrand and its derivative in u
_STEPS = {"lean_am": _lean_am_step, "bam": _bam_step,
          "quadratic_am": _quadratic_am_step}


def _walk_loss(kind, problem, control, traj_batch, adjoints, *stored,
               fit=None):
    """LossReport of the `kind` loss on the frozen-batch walk.

    `stored` are further node-aligned arrays for its step, as
    `adjoint._walk` takes them. The walk contracts the step's u-derivative
    with du/dtheta's features. `fit`, if given, is also called with every
    chunk as fit(lo, hi, t, x, u, layouts, phi, a_i): the trainer sums the
    MSA normal equations in the loss walk.
    """
    avals = _aligned(adjoints, traj_batch, "adjoints")
    dt = traj_batch.grid.dt
    per_time = np.empty(traj_batch.grid.n_steps)
    grad = np.zeros(control.n_params)
    for lo, hi, t, x, u, layouts, phi, a, *rows in _walk(
            problem, control, traj_batch, avals, *stored):
        value, v = _STEPS[kind](problem, t, x, u, a, *rows)
        per_time[lo:hi] = _per_node(value, lo, hi).mean(axis=1)
        _scatter(grad, layouts,
                 dt * (_node_sums(phi, v, lo, hi) / avals.shape[0]))
        if fit is not None:
            fit(lo, hi, t, x, u, layouts, phi, a)
    return LossReport(kind=kind, loss_value=float(dt * per_time.sum()),
                      grad_theta=grad, per_time_terms=per_time,
                      n_paths=avals.shape[0])


def lean_am_loss(problem, control, traj_batch, lean_adjoints):
    """Integrated lean Hamiltonian under re-evaluated controls.

    per_time_terms[i] = mean_b [ f(X_i, u, t_i) + <b(X_i, u, t_i), a_i> ]
    with u = control.evaluate(X_i, t_i); gradient
    dt * sum_i mean_b [ du_dtheta' (d2_cost + d2_drift' a_i) ].
    """
    return _walk_loss("lean_am", problem, control, traj_batch,
                      lean_adjoints)


def bam_loss(problem, control, traj_batch, adjoints, matrix_adjoints):
    """Integrated full Hamiltonian: lean terms plus 0.5 tr(sigma sigma' A_i).

    The curvature term contributes tr(dsigma_du_c' A sigma) per control
    component to the gradient; it vanishes identically when sigma ignores
    u, making the gradient equal to the lean one on the same inputs. A
    bundle that declares dsigma_du zero (None) skips it.
    """
    mvals = _aligned(matrix_adjoints, traj_batch, "matrix_adjoints",
                     (SECOND_ORDER,))
    return _walk_loss("bam", problem, control, traj_batch, adjoints, mvals)


def per_path_lean_am_gradients(problem, control, traj_batch, lean_adjoints):
    """Per-path replicas (B, n_params) of the lean-AM loss gradient.

    Row b is the gradient contribution of path b alone; the mean over rows
    equals lean_am_loss(...).grad_theta. Useful for attaching standard
    errors to the loss gradient when comparing it against the direct
    objective gradient on the same batch.
    """
    avals = _aligned(lean_adjoints, traj_batch, "lean_adjoints")
    dt = traj_batch.grid.dt
    grads = np.zeros((control.n_params, avals.shape[0]))
    for lo, hi, t, x, u, layouts, phi, a in _walk(problem, control,
                                                  traj_batch, avals):
        v = _lean_u_gradient(problem, x, u, t, a)
        _add_per_path(grads, lo, hi, layouts, phi, v, dt)
    return grads.T.copy()


def _check_quadratic_am(problem):
    """UnsupportedProblemError unless `quadratic_am_loss` is defined."""
    if not (problem.diffusion_time_only and problem.control_affine_quadratic
            and problem.k == problem.m):
        raise UnsupportedProblemError(
            f"quadratic_am_loss needs a diffusion_time_only, "
            f"control_affine_quadratic problem with k == m, "
            f"got k={problem.k}, m={problem.m}")


def quadratic_am_loss(problem, control, traj_batch, lean_adjoints):
    """Regression form 0.5 |u_theta(X_i,t_i) + sigma(t_i)' a_i|^2, integrated.

    Defined for diffusion_time_only + control_affine_quadratic problems with
    k == m. When additionally d2_drift == sigma (control enters the drift
    through the diffusion matrix), its gradient coincides with the lean-AM
    gradient exactly, not just in expectation.
    """
    _check_quadratic_am(problem)
    return _walk_loss("quadratic_am", problem, control, traj_batch,
                      lean_adjoints)


def sample_pathwise_costs(problem, control, grid, master_seed, n_paths,
                          x0_seed=None, block_size=32768):
    """Fresh pathwise costs and terminal states, simulated in path blocks.

    Blocking only bounds memory; per-path counter RNG makes the result
    independent of block size.
    """
    n_paths = _positive_count(n_paths, "n_paths")
    block_size = _positive_count(block_size, "block_size")
    if x0_seed is None:
        x0_seed = master_seed
    costs = np.empty(n_paths)
    terminal = np.empty((n_paths, problem.d))
    for start in range(0, n_paths, block_size):
        stop = min(start + block_size, n_paths)
        inc, x0 = draw_batch_inputs(problem, grid, master_seed, x0_seed,
                                    start, stop)
        c, x_t = simulate_costs(problem, control, grid, x0, inc)
        costs[start:stop] = c
        terminal[start:stop] = x_t
    return costs, terminal


def _mean_se(costs):
    """(mean, standard error) of a 1-D sample; the error of one draw is 0."""
    n = len(costs)
    se = float(costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(costs.mean()), se


def soc_objective(problem, control, grid, master_seed, n_paths,
                  x0_seed=None):
    """Monte-Carlo estimate of the discrete control cost: (mean, std error)."""
    costs, _ = sample_pathwise_costs(problem, control, grid, master_seed,
                                     n_paths, x0_seed=x0_seed)
    return _mean_se(costs)


def write_loss_reports_csv(reports, path):
    """Write a sequence of LossReports as rows (iter, loss, grad_norm, n_paths)."""
    header = ["iter", "loss", "grad_norm", "n_paths"]
    rows = [[i, r.loss_value, r.grad_norm, r.n_paths]
            for i, r in enumerate(reports)]
    _io.write_csv(path, header, rows)
