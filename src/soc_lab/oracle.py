"""Independent verification oracles.

Everything here checks the rest of the package from the outside:

  * finite-difference pathwise derivatives re-simulate perturbed initial
    states under frozen noise and touch no adjoint code;
  * the Riccati solvers integrate the linear-quadratic backward ODEs with
    their own RK4 (and, for dense evaluation, scipy's solve_ivp), never
    reusing the package's backward recursions;
  * the statistical checks (value-equation residual, costate regression,
    long-horizon decorrelation) compare Monte-Carlo estimates against the
    closed-form or independently integrated references.

Conventions: the value function of a linear-quadratic instance is
V(x,t) = 0.5 x'P(t)x + c(t) with

    -dP/dt = A'P + PA - P B B' P + Q_run,     P(T) = Q_term,
    -dc/dt = 0.5 tr(sigma sigma' P),          c(T) = 0,

and the optimal feedback gain is K(t) = -B'P(t).
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from . import _io
from .adjoint import solve_lean_adjoint
from .control import make_linear_feedback_control
from .errors import UnsupportedProblemError, ValidationError
from .problem import _central_diff
from .simulate import (TimeGrid, TrajectoryBatch, _positive_count, _rollout,
                       draw_batch_inputs, simulate_costs, simulate_forward)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# pathwise finite differences


def pathwise_value(problem, control, grid, noise, x0, h_term=None):
    """The deterministic map x0 -> discrete cost under frozen noise.

    With h_term, adds the noise-coupled running term
    sum_i h(X_i, t_i) . dB_i (left-endpoint, matching the forward scheme).
    """
    traj = simulate_forward(problem, control, grid, noise, x0)
    value = traj.pathwise_cost
    if h_term is not None:
        nodes = grid.nodes
        inc = traj.noise.increments
        for i in range(grid.n_steps):
            h_val = np.asarray(
                h_term.value(traj.states[i][None], float(nodes[i])),
                dtype=np.float64)[0]
            value += float(h_val @ inc[i])
    return value


def fd_pathwise_gradient(problem, control, grid, noise, x0, step=1e-5,
                         h_term=None):
    """Central-difference gradient of the frozen-noise pathwise cost."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(problem.d)
    return _central_diff(
        lambda z: pathwise_value(problem, control, grid, noise, z, h_term),
        x0, step)


def fd_pathwise_hessian(problem, control, grid, noise, x0, step=1e-4):
    """Central second differences of the frozen-noise pathwise cost.

    Step sizes trade truncation against cancellation; 1e-4 targets the
    ~1e-8 float noise of double-precision cost evaluations.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(problem.d)
    d = problem.d

    def value(z):
        return pathwise_value(problem, control, grid, noise, z)

    base = value(x0)
    hess = np.empty((d, d))
    for p in range(d):
        xp = x0.copy()
        xm = x0.copy()
        xp[p] += step
        xm[p] -= step
        hess[p, p] = (value(xp) - 2.0 * base + value(xm)) / step**2
    for p in range(d):
        for q in range(p + 1, d):
            xpp = x0.copy(); xpm = x0.copy()
            xmp = x0.copy(); xmm = x0.copy()
            xpp[p] += step; xpp[q] += step
            xpm[p] += step; xpm[q] -= step
            xmp[p] -= step; xmp[q] += step
            xmm[p] -= step; xmm[q] -= step
            mixed = (value(xpp) - value(xpm) - value(xmp) + value(xmm)) \
                / (4.0 * step**2)
            hess[p, q] = mixed
            hess[q, p] = mixed
    return hess


# ---------------------------------------------------------------------------
# linear-quadratic references


def _lq_data(problem):
    if problem.lq_data is None:
        raise UnsupportedProblemError(
            "this oracle needs a linear-quadratic problem (lq_data present)")
    return problem.lq_data


@dataclasses.dataclass(frozen=True)
class RiccatiSolution:
    """Backward LQ solution sampled on grid nodes.

    p[i] is the quadratic value coefficient at t_i, offset[i] the additive
    constant, gains[i] = -B'p[i] the optimal feedback gain.
    """

    grid: object
    p: np.ndarray
    offset: np.ndarray
    gains: np.ndarray


def _riccati_rhs(p, a_mat, bbt, q_run):
    return -(a_mat.T @ p + p @ a_mat - p @ bbt @ p + q_run)


def solve_riccati(problem, grid):
    """RK4 backward integration on a 10-times finer grid.

    Returns node values only (downsampled); raises ValidationError with
    the blow-up time if the solution escapes (|P| > 1e12 or non-finite).
    """
    data = _lq_data(problem)
    a_mat, b_mat = data.a_mat, data.b_mat
    bbt = b_mat @ b_mat.T
    sst = data.sigma @ data.sigma.T
    q_run = data.q_run
    d = a_mat.shape[0]
    refine = 10
    n_fine = grid.n_steps * refine
    dt_fine = grid.horizon / n_fine
    p_fine = np.empty((n_fine + 1, d, d))
    c_fine = np.empty(n_fine + 1)
    p_cur = data.q_term.copy()
    c_cur = 0.0
    p_fine[n_fine] = p_cur
    c_fine[n_fine] = c_cur
    h = -dt_fine
    for j in range(n_fine - 1, -1, -1):
        k1 = _riccati_rhs(p_cur, a_mat, bbt, q_run)
        l1 = -0.5 * np.trace(sst @ p_cur)
        k2 = _riccati_rhs(p_cur + 0.5 * h * k1, a_mat, bbt, q_run)
        l2 = -0.5 * np.trace(sst @ (p_cur + 0.5 * h * k1))
        k3 = _riccati_rhs(p_cur + 0.5 * h * k2, a_mat, bbt, q_run)
        l3 = -0.5 * np.trace(sst @ (p_cur + 0.5 * h * k2))
        k4 = _riccati_rhs(p_cur + h * k3, a_mat, bbt, q_run)
        l4 = -0.5 * np.trace(sst @ (p_cur + h * k3))
        p_cur = p_cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c_cur = c_cur + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if not np.all(np.isfinite(p_cur)) or np.abs(p_cur).max() > 1e12:
            raise ValidationError(
                f"Riccati solution blew up at t={j * dt_fine:.6g}")
        p_fine[j] = p_cur
        c_fine[j] = c_cur
    p_nodes = p_fine[::refine].copy()
    c_nodes = c_fine[::refine].copy()
    gains = np.stack([-(b_mat.T @ p_nodes[i]) for i in range(len(p_nodes))])
    return RiccatiSolution(grid=grid, p=p_nodes, offset=c_nodes, gains=gains)


class LQValueFunction:
    """Dense-in-time LQ value function via adaptive backward integration."""

    def __init__(self, problem):
        import scipy.integrate  # imported here only: it is slow to load

        data = _lq_data(problem)
        self.data = data
        d = data.a_mat.shape[0]
        self.d = d
        bbt = data.b_mat @ data.b_mat.T
        sst = data.sigma @ data.sigma.T
        horizon = problem.horizon

        def rhs(t, y):
            p = y[:d * d].reshape(d, d)
            dp = _riccati_rhs(p, data.a_mat, bbt, data.q_run)
            dc = -0.5 * np.trace(sst @ p)
            return np.concatenate([dp.ravel(), [dc]])

        y_end = np.concatenate([data.q_term.ravel(), [0.0]])
        sol = scipy.integrate.solve_ivp(
            rhs, (horizon, 0.0), y_end, dense_output=True,
            rtol=1e-11, atol=1e-12, method="RK45")
        if not sol.success:
            raise ValidationError(f"value-function integration failed: "
                                  f"{sol.message}")
        self._sol = sol.sol
        self.horizon = horizon

    def p_of(self, t):
        return self._sol(t)[:self.d * self.d].reshape(self.d, self.d)

    def offset_of(self, t):
        return float(self._sol(t)[self.d * self.d])

    def gain_of(self, t):
        return -(self.data.b_mat.T @ self.p_of(t))

    def __call__(self, x, t):
        x = np.asarray(x, dtype=np.float64).reshape(self.d)
        p = self.p_of(t)
        return float(0.5 * x @ p @ x + self.offset_of(t))


def tilted_gaussian_target(problem_or_tilt):
    """Closed-form (mean, variance) of the tilted stationary Gaussian.

    Tilting N(0,1) by exp(-0.5 * tilt * x^2) gives N(0, 1/(1+tilt)).
    Accepts an OU-tilt problem or the tilt value directly.
    """
    tilt = getattr(getattr(problem_or_tilt, "ou_params", None), "tilt", None)
    if tilt is None:
        tilt = float(problem_or_tilt)
    if tilt <= -1.0:
        raise ValidationError(f"tilt must exceed -1, got {tilt}")
    return 0.0, 1.0 / (1.0 + tilt)


# ---------------------------------------------------------------------------
# statistical diagnostics


@dataclasses.dataclass(frozen=True)
class MemorylessnessReport:
    """Componentwise corr(X_0, X_T) under zero control."""

    correlations: np.ndarray
    threshold: float
    n_paths: int

    @property
    def max_abs_corr(self):
        return float(np.max(np.abs(self.correlations)))

    @property
    def passed(self):
        return self.max_abs_corr <= self.threshold

    def to_csv(self, path):
        rows = [[j, float(c), self.threshold, bool(abs(c) <= self.threshold)]
                for j, c in enumerate(self.correlations)]
        _io.write_csv(path, ["component", "corr", "threshold", "pass"], rows)


def memorylessness_check(problem, grid, n_paths, seed):
    """Correlation of start and terminal states under the zero control.

    For a process that forgets its initial condition over the horizon the
    sample correlation should sit at the 1/sqrt(n) noise floor; the pass
    threshold is 3/sqrt(n_paths). Degenerate components (zero variance at
    either end) report correlation 0 when the start is deterministic and
    1 when a random start maps to a deterministic function of itself.
    """
    zero = make_linear_feedback_control(problem.d, problem.k, 1,
                                        problem.horizon)
    inc, x0 = draw_batch_inputs(problem, grid, seed, seed, 0, n_paths)
    _, x_t = simulate_costs(problem, zero, grid, x0, inc)
    corr = np.empty(problem.d)
    for j in range(problem.d):
        v0 = x0[:, j].var()
        vt = x_t[:, j].var()
        if v0 == 0.0:
            corr[j] = 0.0
        elif vt == 0.0:
            corr[j] = 1.0
        else:
            cov = np.mean((x0[:, j] - x0[:, j].mean())
                          * (x_t[:, j] - x_t[:, j].mean()))
            corr[j] = cov / math.sqrt(v0 * vt)
    return MemorylessnessReport(correlations=corr,
                                threshold=3.0 / math.sqrt(n_paths),
                                n_paths=n_paths)


@dataclasses.dataclass(frozen=True)
class SmpSlopeRow:
    time: float
    slope: float
    slope_se: float
    predicted: float
    z_score: float
    q_star: float


@dataclasses.dataclass(frozen=True)
class SmpReport:
    """Binned regression of adjoint on state vs the Riccati prediction."""

    rows: list
    n_paths: int
    n_bins: int

    @property
    def max_abs_z(self):
        return max(abs(r.z_score) for r in self.rows)

    @property
    def passed(self):
        return all(abs(r.z_score) <= 3.0 for r in self.rows)

    def to_csv(self, path):
        _io.write_csv(
            path,
            ["t", "slope", "slope_se", "predicted", "z", "q_star", "pass"],
            [[r.time, r.slope, r.slope_se, r.predicted, r.z_score, r.q_star,
              bool(abs(r.z_score) <= 3.0)] for r in self.rows])


def smp_representation_check(problem, grid, n_paths, seed, block_size=16384):
    """Check E[adjoint | X_t] = P(t) X_t along optimally controlled paths.

    Scalar LQ only (d = k = m = 1). Simulates under the Riccati feedback,
    solves the lean adjoint blockwise, and at 5 interior nodes regresses
    the adjoint on the state through 21 equal-probability bin means
    (ordinary least squares on the bin points, slope standard error from
    their residuals). Each slope must sit within 3 SEs of P(t); the report
    also carries the implied noise costate q* = P(t) sigma.
    """
    if (problem.d, problem.k, problem.m) != (1, 1, 1):
        raise UnsupportedProblemError(
            "smp_representation_check supports scalar problems only, "
            "with one noise column")
    n_paths = _positive_count(n_paths, "n_paths")
    block_size = _positive_count(block_size, "block_size")
    n_times, n_bins = 5, 21
    data = _lq_data(problem)
    ric = solve_riccati(problem, grid)
    n = grid.n_steps
    theta = np.empty(2 * n)
    theta[0::2] = ric.gains[:n, 0, 0]
    theta[1::2] = 0.0
    control = make_linear_feedback_control(1, 1, n, problem.horizon,
                                           theta=theta)
    times_idx = sorted({max(1, min(n - 1, round(frac * n / (n_times + 1))))
                        for frac in range(1, n_times + 1)})
    xs = np.empty((len(times_idx), n_paths))
    avals = np.empty((len(times_idx), n_paths))
    for start in range(0, n_paths, block_size):
        stop = min(start + block_size, n_paths)
        inc, x0 = draw_batch_inputs(problem, grid, seed, seed, start, stop)
        states, controls, costs, _ = _rollout(
            problem, control, grid, x0, inc, np.arange(start, stop))
        batch = TrajectoryBatch(grid=grid, states=states, controls=controls,
                                increments=inc, master_seed=seed,
                                x0_seed=seed,
                                path_indices=np.arange(start, stop),
                                pathwise_costs=costs)
        lean = solve_lean_adjoint(problem, control, batch)
        for row, idx in enumerate(times_idx):
            xs[row, start:stop] = states[:, idx, 0]
            avals[row, start:stop] = lean.values[:, idx, 0]

    sigma_val = float(data.sigma[0, 0])
    nodes = grid.nodes
    rows = []
    for row, idx in enumerate(times_idx):
        x = xs[row]
        a = avals[row]
        edges = np.quantile(x, np.linspace(0.0, 1.0, n_bins + 1))
        which = np.clip(np.searchsorted(edges[1:-1], x, side="right"),
                        0, n_bins - 1)
        xbar = np.array([x[which == b].mean() for b in range(n_bins)])
        abar = np.array([a[which == b].mean() for b in range(n_bins)])
        xc = xbar - xbar.mean()
        slope = float((xc @ (abar - abar.mean())) / (xc @ xc))
        intercept = abar.mean() - slope * xbar.mean()
        resid = abar - (intercept + slope * xbar)
        s2 = float(resid @ resid) / (n_bins - 2)
        se = math.sqrt(s2 / float(xc @ xc))
        pred = float(ric.p[idx, 0, 0])
        z = (slope - pred) / se if se > 0 else math.inf
        rows.append(SmpSlopeRow(time=float(nodes[idx]), slope=slope,
                                slope_se=se, predicted=pred, z_score=z,
                                q_star=pred * sigma_val))
    return SmpReport(rows=rows, n_paths=n_paths, n_bins=n_bins)


# ---------------------------------------------------------------------------
# value-equation residual


@dataclasses.dataclass(frozen=True)
class HjbResidualRow:
    time: float
    state: float
    residual: float
    noise_floor: float
    reliable: bool


@dataclasses.dataclass(frozen=True)
class HjbResidualReport:
    rows: list
    mode: str

    @property
    def max_abs_residual(self):
        return max(abs(r.residual) for r in self.rows)

    def max_ratio(self, floor_multiple=5.0):
        """Largest |residual| / (floor_multiple * noise_floor); inf if a
        floor is zero while the residual is not (analytic mode uses
        max_abs_residual instead)."""
        worst = 0.0
        for r in self.rows:
            if r.noise_floor == 0.0:
                if r.residual != 0.0:
                    return math.inf
                continue
            worst = max(worst, abs(r.residual) / (floor_multiple * r.noise_floor))
        return worst

    def to_csv(self, path):
        _io.write_csv(
            path, ["t", "x", "residual", "noise_floor", "reliable"],
            [[r.time, r.state, r.residual, r.noise_floor, r.reliable]
             for r in self.rows])


def _min_hamiltonian(problem, x_val, t, p, m_val):
    """min_u [f + b p + 0.5 |sigma|^2 m] at a scalar state point, where
    |sigma|^2 sums over every noise column of the state's one row.

    Control-affine-quadratic problems use the closed form
    f0 + b0 p - 0.5 |d2_drift' p|^2 + 0.5 |sigma|^2 m; otherwise (k == 1
    only) a grid search over 501 points of u in [-5, 5].
    """
    x = np.array([[x_val]])
    if problem.control_affine_quadratic:
        zero_u = np.zeros((1, problem.k))
        f0 = float(problem.running_cost(x, zero_u, t)[0])
        b0 = float(problem.drift(x, zero_u, t)[0, 0])
        bu = problem.derivatives.d2_drift(x, zero_u, t)[0, 0]  # (k,)
        sig = problem.diffusion(x, zero_u, t)[0, 0]  # (m,)
        return (f0 + b0 * p - 0.5 * float(bu @ bu) * p * p
                + 0.5 * float(sig @ sig) * m_val)
    us = np.linspace(-5.0, 5.0, 501)[:, None]
    xs = np.broadcast_to(x, (us.shape[0], 1))
    sig = problem.diffusion(xs, us, t)[:, 0]  # (501, m)
    vals = (problem.running_cost(xs, us, t)
            + problem.drift(xs, us, t)[:, 0] * p
            + 0.5 * np.einsum("uj,uj->u", sig, sig) * m_val)
    return float(vals.min())


def hjb_residual_1d(problem, control, x_grid, t_grid, n_paths, seed,
                    value_fn=None, n_steps=250, n_blocks=8):
    """Pointwise residual of the dynamic-programming equation in 1-D:

        residual(x,t) = dV/dt + min_u [ f + drift * dV/dx
                                        + 0.5 sigma^2 d2V/dx2 ].

    The minimum over u is in closed form for control-affine-quadratic
    problems and a grid search over u in [-5, 5] otherwise, which needs
    k == 1. The x-stencil step is 0.1.

    Analytic mode (value_fn given): V and its finite differences come from
    the callable (time step 1e-4, independent of the report grid); noise
    floors are zero and every row is reliable.

    Monte-Carlo mode: V(x,t) is estimated as the mean cost-to-go of
    simulated paths on a master grid with `n_steps` steps. All stencil
    evaluations share increments (common random numbers, aligned by
    absolute step index), t nodes snap to interior master nodes with the
    time step as the t-stencil, and the noise floor is the block standard
    error of the residual over `n_blocks` path blocks. Rows are flagged
    unreliable when fewer than 100 paths per block support them.
    """
    if problem.d != 1:
        raise UnsupportedProblemError("hjb_residual_1d supports d == 1 only")
    if problem.k != 1 and not problem.control_affine_quadratic:
        raise UnsupportedProblemError(
            "hjb_residual_1d searches u on a 1-D grid: k must be 1 unless "
            "the problem is control-affine-quadratic")
    x_grid = np.asarray(x_grid, dtype=np.float64).reshape(-1)
    t_grid = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    horizon = problem.horizon
    hx = 0.1

    if value_fn is not None:
        rows = []
        ht = 1e-4
        for t in t_grid:
            t = float(t)
            if t < ht or t > horizon - ht:
                raise ValidationError(
                    f"t={t} too close to the boundary for the {ht} time "
                    f"stencil")
            for xv in x_grid:
                xv = float(xv)
                p = (value_fn([xv + hx], t) - value_fn([xv - hx], t)) / (2 * hx)
                m_val = (value_fn([xv + hx], t) - 2.0 * value_fn([xv], t)
                         + value_fn([xv - hx], t)) / hx**2
                dv_dt = (value_fn([xv], t + ht)
                         - value_fn([xv], t - ht)) / (2 * ht)
                res = dv_dt + _min_hamiltonian(problem, xv, t, p, m_val)
                rows.append(HjbResidualRow(time=t, state=xv, residual=res,
                                           noise_floor=0.0, reliable=True))
        return HjbResidualReport(rows=rows, mode="analytic")

    # Monte-Carlo mode.
    master = TimeGrid(n_steps=n_steps, horizon=horizon)
    dt = master.dt
    levels_of_node = []
    for t in t_grid:
        l = int(round(float(t) / dt))
        if l < 1 or l > n_steps - 1:
            raise ValidationError(
                f"t={t} snaps to master node {l}, outside the interior "
                f"range [1, {n_steps - 1}]")
        levels_of_node.append(l)
    needed_levels = sorted({l + off for l in levels_of_node
                            for off in (-1, 0, 1)})
    starts = sorted({round(float(xv) + s * hx, 12)
                     for xv in x_grid for s in (-1.0, 0.0, 1.0)})
    start_of = {v: j for j, v in enumerate(starts)}

    per_block = n_paths // n_blocks
    if per_block < 2:
        raise ValidationError("n_paths must allow at least 2 paths per block")
    reliable = per_block >= 100
    if not reliable:
        logger.warning("hjb_residual_1d: %d paths per block is too few for "
                       "stable second differences", per_block)
    used = per_block * n_blocks

    inc, _ = draw_batch_inputs(problem, master, seed, seed, 0, used)
    # block-mean cost-to-go estimates J[level, start, block]
    j_est = np.empty((len(needed_levels), len(starts), n_blocks))
    for li, level in enumerate(needed_levels):
        sub_inc = inc[:, level:, :]
        for sj, xv in enumerate(starts):
            x0 = np.full((used, 1), xv)
            costs, _ = simulate_costs(problem, control, master, x0, sub_inc,
                                      start_index=level)
            j_est[li, sj] = costs.reshape(n_blocks, per_block).mean(axis=1)

    level_index = {l: i for i, l in enumerate(needed_levels)}
    rows = []
    for t, l in zip(t_grid, levels_of_node):
        t_snap = float(master.nodes[l])
        for xv in x_grid:
            xv = float(xv)
            c = start_of[round(xv, 12)]
            lo = start_of[round(xv - hx, 12)]
            hi = start_of[round(xv + hx, 12)]
            res_blocks = np.empty(n_blocks)
            for blk in range(n_blocks):
                j_c = j_est[level_index[l], c, blk]
                j_lo = j_est[level_index[l], lo, blk]
                j_hi = j_est[level_index[l], hi, blk]
                j_up = j_est[level_index[l + 1], c, blk]
                j_dn = j_est[level_index[l - 1], c, blk]
                p = (j_hi - j_lo) / (2 * hx)
                m_val = (j_hi - 2.0 * j_c + j_lo) / hx**2
                dv_dt = (j_up - j_dn) / (2 * dt)
                res_blocks[blk] = dv_dt + _min_hamiltonian(
                    problem, xv, t_snap, p, m_val)
            res = float(res_blocks.mean())
            floor = float(res_blocks.std(ddof=1) / math.sqrt(n_blocks))
            rows.append(HjbResidualRow(time=t_snap, state=xv, residual=res,
                                       noise_floor=floor, reliable=reliable))
    return HjbResidualReport(rows=rows, mode="monte_carlo")
