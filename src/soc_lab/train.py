"""Iterative control optimization on adjoint-matching surrogates.

Each iteration simulates a fresh batch under the current control, solves
the backward adjoints along it, evaluates one surrogate loss on the frozen
batch, and steps the parameters down its gradient (optionally clipped to a
trust region). Only the re-evaluated control carries parameter dependence
inside the loss, so each iteration is plain gradient descent on a frozen
quadratic-ish landscape; resampling the batch every iteration (default)
turns this into stochastic descent on the surrogate objective.

`msa_exact` replaces the gradient step for the affine control families
(`control.affine`: u = K(t) x + c(t), linear in theta) by
`msa_exact_step`, which solves for the theta at which the lean-AM gradient
on the batch vanishes (control-affine-quadratic problems only): simulate,
solve adjoints, fit the control, repeat.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Optional

import numpy as np

from . import _io
from .adjoint import (_aligned, _per_node, _walk, freeze_control,
                      solve_first_order_adjoint, solve_lean_adjoint,
                      solve_second_order_adjoint)
from .errors import (SimulationError, TrainingAborted,
                     UnsupportedProblemError, ValidationError)
from .hamiltonians import (_mean_se, bam_loss, lean_am_loss,
                           quadratic_am_loss, sample_pathwise_costs)
from .simulate import _positive_count, simulate_batch

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


def _solve_loss(problem, control, batch, loss_kind):
    if loss_kind == "lean_am":
        lean = solve_lean_adjoint(problem, control, batch)
        return lean_am_loss(problem, control, batch, lean), lean
    if loss_kind == "quadratic_am":
        lean = solve_lean_adjoint(problem, control, batch)
        return quadratic_am_loss(problem, control, batch, lean), lean
    frozen = freeze_control(control)
    full = solve_first_order_adjoint(problem, frozen, batch)
    second = solve_second_order_adjoint(problem, frozen, batch, full)
    return bam_loss(problem, control, batch, full, second), full


def msa_exact_step(problem, control, traj_batch, lean_adjoints):
    """Solve for the theta at which the lean-AM gradient on the batch vanishes.

    Control-affine-quadratic problems and affine controls only. There
    f + <b, a> is minimized over u by u = -d2_drift' a, and the zero is
    the fit min_theta sum_i dt * mean_b |u_theta(X_i,t_i) + d2_drift_i' a_i|^2
    by the normal equations, or their pseudoinverse (with a warning) when
    they are near-singular. Returns the new parameter vector.
    """
    if not control.affine:
        raise UnsupportedProblemError(
            f"msa_exact_step needs an affine control family "
            f"(u = K(t) x + c(t), linear in theta), got {control.family!r}")
    if not problem.control_affine_quadratic:
        raise UnsupportedProblemError(
            "msa_exact_step needs a control_affine_quadratic problem")
    avals = _aligned(lean_adjoints, traj_batch, "lean_adjoints")
    dt = traj_batch.grid.dt
    normal = np.zeros((control.n_params, control.n_params))
    rhs = np.zeros(control.n_params)
    for lo, hi, t, x, u, cols, block, a in _walk(problem, control,
                                                 traj_batch, avals):
        target = -np.einsum("bic,bi->bc",
                            problem.derivatives.d2_drift(x, u, t), a)
        block = _per_node(block, lo, hi)
        normals = np.einsum("nbcp,nbcq->npq", block, block)
        rhss = np.einsum("nbcp,nbc->np", block, _per_node(target, lo, hi))
        for col, nrm, r in zip(cols, normals, rhss):
            normal[col, col] += dt * nrm
            rhs[col] += dt * r
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > 1e12:
        logger.warning("normal equations ill-conditioned (cond=%.3e); "
                       "using pseudoinverse", cond)
        return np.linalg.pinv(normal) @ rhs
    return np.linalg.solve(normal, rhs)


def train_adjoint_matching(problem, control, grid, config):
    """Run the training loop; returns (trained control, TrainHistory).

    Aborts (TrainingAborted, carrying the partial history) on a non-finite
    state, adjoint, loss or gradient or once the loss exceeds 1e6. The
    recorded objective is the batch estimate under the pre-update control
    of that iteration.
    """
    history = TrainHistory(records=[])

    def abort(iteration, reason):
        history.aborted = True
        history.abort_reason = reason
        raise TrainingAborted(f"training aborted at iteration {iteration}: "
                              f"{reason}", iteration=iteration, history=history)

    for it in range(config.n_iters):
        seed = (config.master_seed + it if config.resample_noise_each_iter
                else config.master_seed)
        try:
            batch = simulate_batch(problem, control, grid, seed,
                                   config.paths_per_iter)
            report, lean = _solve_loss(problem, control, batch,
                                       config.loss_kind)
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
            new_theta = msa_exact_step(problem, control, batch, lean)
            step_vec = new_theta - control.theta
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
