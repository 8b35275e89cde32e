"""Forward simulation: time grids, Brownian noise, Euler-Maruyama rollouts.

Scheme conventions, shared by everything downstream:

  * uniform grid t_i = i * dt, dt = horizon / n_steps, t_N = horizon exactly;
  * controls are piecewise constant per interval, evaluated at the left
    endpoint: u_i = control.evaluate(X_i, t_i);
  * one step is X_{i+1} = X_i + drift(X_i,u_i,t_i) dt + sigma(X_i,u_i,t_i) dB_i,
    with dB_i ~ N(0, dt I_m) (see `euler_step` for the exact float
    expression, which tests may replay bit-for-bit);
  * running costs are accumulated with the left-endpoint Riemann sum.

Noise is counter-based: path p of master seed s always sees the same
increments regardless of batch size or which other paths are simulated
alongside it. The per-path draws re-key one Philox generator per thread
(`_rng._rekey`) instead of building a generator per path; the numbers
are the same either way.

Coefficients shared by every path (the LQ builder's sigma, A, B and cost
Hessians) come as np.broadcast_to views whose batch axis has stride 0;
`_vecmat` contracts such a matrix with one (B, i) @ (i, p) product for
the batch instead of B separate ones, in the rollout, the sweeps and the
walks.

Batched per-step arrays (states, controls, increments, and the adjoint
values solved along them) are stored time-major, (n_steps+1, B, d) in
memory, and exposed as path-major (B, n_steps+1, d) views: every sweep
over the grid reads or writes `arr[:, i]`, which is then one contiguous
block instead of B scattered rows, while per-path views `arr[b]` keep
their shape.
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

from . import _io, _rng
from .errors import SimulationError, ValidationError

_CHUNK = 256  # paths per noise draw buffer


def _positive_count(value, name):
    """`value` as an int >= 1 (numpy integers too); ValidationError else."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, "
                              f"got {value!r}") from None
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


def _positive_horizon(horizon):
    """`horizon` as a float; ValidationError unless finite and positive."""
    try:
        ok = horizon > 0.0 and math.isfinite(horizon)
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(
            f"horizon must be finite and positive, got {horizon!r}")
    return float(horizon)


def _time_major(steps, batch, *tail):
    """Uninitialised (batch, steps, *tail) view of time-major storage."""
    return np.empty((steps, batch) + tail).swapaxes(0, 1)


def _dot(x, mat):
    """x @ mat, bit for bit; a broadcast product when the inner dimension
    is 1, which takes about 13 us at 25,000 rows where matmul takes about
    100 (2-vCPU x86 machine, numpy 2.4). Each entry is then matmul's
    one-term sum 0.0 + x_b mat_j: the added 0.0 turns a -0.0 product into
    +0.0, as the sum does. It serves batched (stacked) matrix products as
    well as row-by-matrix ones; at d = 1 those give the same bits as an
    einsum's one-term sum, which is why `_vecmat`'s shared route and the
    sweeps' one-product-per-batch steps keep the d = 1 bits."""
    if mat.shape[-2] != 1:
        return x @ mat
    out = x * mat
    out += 0.0
    return out


def _vecmat(v, mats):
    """Rows v_b @ mats_b, einsum("bi,bip->bp") of (B, i) and (B, i, p).

    A stride-0 batch axis (np.broadcast_to's) is one matrix shared by
    every path: then this is one (B, i) @ (i, p) product through `_dot`,
    not B separate ones. At i = 1 both forms are the one-term sum 0.0 +
    v_b m_b, bit for bit; at i > 1 the product may sum in another order
    (agreement to ~1e-15 relative).
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.strides[0] == 0:
        return _dot(v, mats[0])
    return np.einsum("bip,bi->bp", mats, v)


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with n_steps intervals."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "n_steps",
                           _positive_count(self.n_steps, "n_steps"))
        _positive_horizon(self.horizon)

    @property
    def dt(self):
        return self.horizon / self.n_steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclasses.dataclass(frozen=True)
class BrownianPath:
    """Increments (n_steps, m) for one path, tagged with its RNG identity."""

    increments: np.ndarray
    master_seed: int
    path_index: int


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """One simulated path: states (n_steps+1, d), controls (n_steps, k).

    pathwise_cost is the discrete cost functional of this realization
    (left-endpoint running-cost sum plus terminal cost), accumulated by
    the forward pass itself.
    """

    grid: TimeGrid
    states: np.ndarray
    controls: np.ndarray
    noise: BrownianPath
    pathwise_cost: float

    @property
    def x0(self):
        return self.states[0]

    @property
    def terminal_state(self):
        return self.states[-1]


class TrajectoryBatch:
    """A batch of paths stored as arrays.

    states (B, n_steps+1, d), controls (B, n_steps, k), increments
    (B, n_steps, m), pathwise_costs (B,). Batches built here hold
    time-major storage behind those shapes (see the module docstring);
    any layout with the same shapes gives the same results. Indexing
    returns per-path `Trajectory` views.
    """

    def __init__(self, grid, states, controls, increments, master_seed,
                 x0_seed, path_indices, pathwise_costs):
        self.grid = grid
        self.states = states
        self.controls = controls
        self.increments = increments
        self.master_seed = master_seed
        self.x0_seed = x0_seed
        self.path_indices = path_indices
        self.pathwise_costs = pathwise_costs

    def __len__(self):
        return self.states.shape[0]

    def __getitem__(self, index):
        p = int(self.path_indices[index])
        return Trajectory(
            grid=self.grid,
            states=self.states[index],
            controls=self.controls[index],
            noise=BrownianPath(self.increments[index], self.master_seed, p),
            pathwise_cost=float(self.pathwise_costs[index]),
        )

    def __iter__(self):
        for j in range(len(self)):
            yield self[j]


def sample_brownian(grid, m, master_seed, path_index):
    """Increments of one m-dimensional Brownian path on the grid."""
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    gen = _rng._rekeyed(master_seed, path_index, _rng.BROWNIAN)
    inc = gen.standard_normal((grid.n_steps, m)) * math.sqrt(grid.dt)
    return BrownianPath(increments=inc, master_seed=master_seed,
                        path_index=path_index)


def euler_step(problem, x, u, t, dt, db):
    """One Euler-Maruyama step on a batch; the package's single step rule.

    Float-level contract: the result is computed exactly as
    x + drift * dt + einsum('bim,bm->bi', sigma, db), or as
    x + drift * dt + db @ sigma[0].T when sigma's batch axis has stride 0
    (one matrix shared by every path, as np.broadcast_to gives), so
    callers can reproduce stored steps bit-for-bit.
    """
    return (x + problem.drift(x, u, t) * dt
            + _vecmat(db, np.swapaxes(problem.diffusion(x, u, t), 1, 2)))


def _check_grid(problem, grid):
    if abs(grid.horizon - problem.horizon) > 1e-12 * max(1.0, problem.horizon):
        raise ValidationError(
            f"grid horizon {grid.horizon} != problem horizon {problem.horizon}")


def _non_finite(what, step_index, path_index):
    """The SimulationError for `what` (a state, an adjoint) at one node."""
    return SimulationError(
        f"{what} became non-finite at step {step_index} (path {path_index})",
        step_index=step_index, path_index=path_index)


def _check_finite(x, step_index, path_indices):
    """SimulationError naming the first path whose state is not finite;
    the path is only looked for once the whole batch fails the check."""
    if not np.isfinite(x).all():
        ok = np.isfinite(x).all(axis=1)
        raise _non_finite("state", step_index,
                          int(path_indices[int(np.argmin(ok))]))


def _rollout(problem, control, grid, x0, increments, path_indices,
             start_index=0, store_states=True):
    """Shared Euler loop from grid node `start_index` to the horizon.

    Step i uses increments[:, i - start_index]. Returns (states, controls,
    costs, x_final); with store_states=False states and controls are None
    and no per-step array is allocated.
    """
    n, dt = grid.n_steps, grid.dt
    nodes = grid.nodes
    steps = n - start_index
    batch = x0.shape[0]
    x = np.array(x0, dtype=np.float64)
    _check_finite(x, start_index, path_indices)
    states = controls = None
    if store_states:
        states = _time_major(steps + 1, batch, problem.d)
        states[:, 0] = x
        controls = _time_major(steps, batch, problem.k)
    costs = np.zeros(batch)
    for s in range(steps):
        t = float(nodes[start_index + s])
        u = np.asarray(control.evaluate(x, t), dtype=np.float64)
        if u.shape != (batch, problem.k):
            raise ValidationError(
                f"control returned shape {u.shape}, expected {(batch, problem.k)}")
        costs += dt * problem.running_cost(x, u, t)
        x = euler_step(problem, x, u, t, dt, increments[:, s])
        _check_finite(x, start_index + s + 1, path_indices)
        if store_states:
            controls[:, s] = u
            states[:, s + 1] = x
    costs += problem.terminal_cost(x)
    return states, controls, costs, x


def simulate_forward(problem, control, grid, noise, x0):
    """Roll one path forward under the given noise and initial state."""
    _check_grid(problem, grid)
    inc = np.asarray(noise.increments, dtype=np.float64)
    if inc.shape != (grid.n_steps, problem.m):
        raise ValidationError(
            f"noise increments shape {inc.shape}, "
            f"expected {(grid.n_steps, problem.m)}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(1, problem.d)
    idx = np.array([noise.path_index])
    states, controls, costs, _ = _rollout(problem, control, grid, x0,
                                          inc[None], idx)
    return Trajectory(grid=grid, states=states[0], controls=controls[0],
                      noise=noise, pathwise_cost=float(costs[0]))


def draw_batch_inputs(problem, grid, master_seed, x0_seed, start, stop):
    """Increments and initial states for paths [start, stop).

    Path p always gets the same draws for a given (master_seed, x0_seed),
    whatever the range bounds: the RNG is keyed by the absolute path
    index. Seeds must lie in [0, 2**64) and path indices in [0, 2**48);
    anything else raises ValidationError before any path is drawn. The
    initial states come from one `problem.sample_initial_batch` call.
    Each path's increments are drawn by re-keying this thread's shared
    Philox generator, straight into one path-major buffer of at most
    _CHUNK paths, then scaled tile by tile into the (count, n_steps, m)
    view of time-major storage that comes back: the scale runs over the
    time-major order of both arrays, so its writes are contiguous.
    Concurrent calls from different threads do not interfere.
    """
    n, m = grid.n_steps, problem.m
    sqrt_dt = math.sqrt(grid.dt)
    seed, first = _rng._range_keys(master_seed, start, stop, _rng.BROWNIAN)
    x0 = problem.sample_initial_batch(x0_seed, start, stop)
    count = stop - start
    increments = _time_major(n, count, m)
    buf = np.empty((min(_CHUNK, count), n, m))
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        _rng._fill_normals(buf[:hi - lo], seed, first + lo)
        np.multiply(buf[:hi - lo].swapaxes(0, 1), sqrt_dt,
                    out=increments[lo:hi].swapaxes(0, 1))
    return increments, x0


def simulate_batch(problem, control, grid, master_seed, n_paths,
                   x0_seed=None):
    """Simulate n_paths independent paths under one control.

    Brownian noise comes from per-path counter streams of `master_seed`;
    initial states from per-path streams of `x0_seed` (defaults to
    `master_seed` on a separate stream tag). The draws run serially, and
    results depend only on the seeds.
    """
    _check_grid(problem, grid)
    n_paths = _positive_count(n_paths, "n_paths")
    if x0_seed is None:
        x0_seed = master_seed
    increments, x0 = draw_batch_inputs(problem, grid, master_seed, x0_seed,
                                       0, n_paths)
    path_indices = np.arange(n_paths)
    states, controls, costs, _ = _rollout(problem, control, grid, x0,
                                          increments, path_indices)
    return TrajectoryBatch(grid=grid, states=states, controls=controls,
                           increments=increments, master_seed=master_seed,
                           x0_seed=x0_seed, path_indices=path_indices,
                           pathwise_costs=costs)


def simulate_costs(problem, control, grid, x0, increments, start_index=0):
    """Pathwise discrete costs without storing trajectories.

    Rolls the batch from grid node `start_index` to the horizon using the
    supplied increments (B, n_steps - start_index, m) and returns
    (costs, terminal_states). The cost is the left-endpoint Riemann sum of
    the running cost plus the terminal cost — the same functional the full
    rollout produces, evaluated in the same float order.
    """
    _check_grid(problem, grid)
    x0 = np.atleast_2d(x0)
    batch = x0.shape[0]
    increments = np.asarray(increments, dtype=np.float64)
    if increments.shape != (batch, grid.n_steps - start_index, problem.m):
        raise ValidationError(
            f"increments shape {increments.shape}, expected "
            f"{(batch, grid.n_steps - start_index, problem.m)}")
    _, _, costs, x = _rollout(problem, control, grid, x0, increments,
                              np.arange(batch), start_index,
                              store_states=False)
    return costs, x


def write_trajectories_csv(batch, path):
    """Write paths as rows (path, i, t, x_*, u_*); u fields are empty at i=N."""
    if isinstance(batch, Trajectory):
        batch = [batch]
    first = batch[0]
    d = first.states.shape[1]
    k = first.controls.shape[1]
    header = (["path", "i", "t"]
              + [f"x_{j}" for j in range(d)]
              + [f"u_{j}" for j in range(k)])
    nodes = first.grid.nodes
    n = first.grid.n_steps

    def rows():
        for traj in batch:
            p = traj.noise.path_index
            for i in range(n + 1):
                u = traj.controls[i] if i < n else [None] * k
                yield [p, i, float(nodes[i]), *traj.states[i], *u]

    _io.write_csv(path, header, rows())
