"""Forward simulation: grids, noise streams, rollouts, determinism."""

import csv
import dataclasses
import sys
import threading

import numpy as np
import pytest

import soc_lab as sl
from soc_lab import cli, simulate

from conftest import make_mild_feedback


def test_time_grid_basics():
    g = sl.TimeGrid(4, 2.0)
    assert g.dt == pytest.approx(0.5)
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0


def test_time_grid_rejects_bad_inputs():
    with pytest.raises(sl.ValidationError):
        sl.TimeGrid(0, 1.0)
    with pytest.raises(sl.ValidationError):
        sl.TimeGrid(10, 0.0)
    with pytest.raises(sl.ValidationError):
        sl.TimeGrid(10, -2.0)


@pytest.mark.parametrize("n_steps", [2.5, 10.0, "10", None])
def test_time_grid_refuses_non_integer_step_counts(n_steps):
    with pytest.raises(sl.ValidationError, match="n_steps"):
        sl.TimeGrid(n_steps, 1.0)


def test_time_grid_takes_numpy_integers():
    g = sl.TimeGrid(np.int64(10), 1.0)
    assert type(g.n_steps) is int
    assert g == sl.TimeGrid(10, 1.0)


def test_brownian_stream_is_keyed_by_seed_and_path(grid):
    a = sl.sample_brownian(grid, 1, 3, 17)
    b = sl.sample_brownian(grid, 1, 3, 17)
    c = sl.sample_brownian(grid, 1, 3, 18)
    d = sl.sample_brownian(grid, 1, 4, 17)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    assert not np.array_equal(a.increments, d.increments)
    assert a.increments.shape == (grid.n_steps, 1)


def test_brownian_moments(grid):
    """Mean ~ 0 and variance ~ dt across many paths, at 5 sigma."""
    n_paths = 4000
    inc = np.stack([sl.sample_brownian(grid, 1, 0, p).increments[:, 0]
                    for p in range(n_paths)])
    flat = inc.ravel()
    n = flat.size
    assert abs(flat.mean()) < 5.0 * np.sqrt(grid.dt / n)
    assert abs(flat.var() - grid.dt) < 5.0 * np.sqrt(2.0 / n) * grid.dt
    # increments across paths must be uncorrelated: check one lag
    corr = np.corrcoef(inc[:-1, 0], inc[1:, 0])[0, 1]
    assert abs(corr) < 5.0 / np.sqrt(n_paths)


def test_simulate_forward_replays_euler_steps(lq_problem, lq_control, grid):
    noise = sl.sample_brownian(grid, lq_problem.m, 0, 0)
    x0 = lq_problem.sample_initial(0, 0)
    traj = sl.simulate_forward(lq_problem, lq_control, grid, noise, x0)
    assert traj.states.shape == (grid.n_steps + 1, lq_problem.d)
    np.testing.assert_array_equal(traj.x0, x0)
    x = x0[None, :]
    for i in range(grid.n_steps):
        t = float(grid.nodes[i])
        u = np.asarray(lq_control.evaluate(x, t))
        np.testing.assert_array_equal(traj.controls[i], u[0])
        x = sl.euler_step(lq_problem, x, u, t, grid.dt,
                          noise.increments[None, i])
        np.testing.assert_array_equal(traj.states[i + 1], x[0])
    np.testing.assert_array_equal(traj.terminal_state, x[0])


def test_pathwise_cost_is_left_endpoint_riemann_sum(lq_problem, lq_control,
                                                    grid):
    noise = sl.sample_brownian(grid, lq_problem.m, 1, 5)
    x0 = lq_problem.sample_initial(1, 5)
    traj = sl.simulate_forward(lq_problem, lq_control, grid, noise, x0)
    total = 0.0
    for i in range(grid.n_steps):
        x = traj.states[None, i]
        u = traj.controls[None, i]
        total += grid.dt * lq_problem.running_cost(x, u,
                                                   float(grid.nodes[i]))[0]
    total += lq_problem.terminal_cost(traj.states[None, -1])[0]
    assert traj.pathwise_cost == pytest.approx(total, rel=1e-12)


def test_batch_matches_per_path_simulation(sg_problem, sg_control, grid):
    """simulate_batch and simulate_forward share noise and float order."""
    batch = sl.simulate_batch(sg_problem, sg_control, grid, master_seed=9,
                              n_paths=6)
    for p in range(6):
        noise = sl.sample_brownian(grid, sg_problem.m, 9, p)
        x0 = sg_problem.sample_initial(9, p)
        single = sl.simulate_forward(sg_problem, sg_control, grid, noise, x0)
        np.testing.assert_array_equal(batch.states[p], single.states)
        np.testing.assert_array_equal(batch.controls[p], single.controls)
        assert batch.pathwise_costs[p] == single.pathwise_cost
        view = batch[p]
        np.testing.assert_array_equal(view.states, single.states)
        assert view.noise.path_index == p


def test_x0_seed_defaults_to_master_seed(lq_problem, lq_control, grid):
    a = sl.simulate_batch(lq_problem, lq_control, grid, 5, 3)
    b = sl.simulate_batch(lq_problem, lq_control, grid, 5, 3, x0_seed=5)
    np.testing.assert_array_equal(a.states, b.states)
    c = sl.simulate_batch(lq_problem, lq_control, grid, 5, 3, x0_seed=6)
    assert not np.array_equal(a.states, c.states)
    # same Brownian stream, different starting points
    np.testing.assert_array_equal(a.increments, c.increments)


def test_workers_keyword_and_flag_are_refused(lq_problem, lq_control, grid):
    """Draws are serial, so there is no worker count to set."""
    calls = [
        lambda: sl.simulate_batch(lq_problem, lq_control, grid, 2, 4,
                                  workers=4),
        lambda: sl.draw_batch_inputs(lq_problem, grid, 2, 2, 0, 4, workers=4),
        lambda: sl.sample_pathwise_costs(lq_problem, lq_control, grid, 2, 4,
                                         workers=4),
        lambda: sl.soc_objective(lq_problem, lq_control, grid, 2, 4,
                                 workers=4),
        lambda: sl.evaluate_checkpoint(lq_problem, lq_control, grid, 2, 4,
                                       workers=4),
        lambda: sl.TrainConfig(n_iters=1, paths_per_iter=4, step_size=1.0,
                               master_seed=2, workers=4),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="workers"):
            call()
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--workers", "4"])
    assert err.value.code == 2


def test_batch_arrays_are_time_major_views(lq_2d_problem, grid):
    """Public shapes are path-major; each time slice is one contiguous block."""
    control = make_mild_feedback(2, 1, 1.0)
    batch = sl.simulate_batch(lq_2d_problem, control, grid, 4, 5)
    n = grid.n_steps
    assert batch.states.shape == (5, n + 1, 2)
    assert batch.controls.shape == (5, n, 1)
    assert batch.increments.shape == (5, n, 2)
    for i in (0, n // 2, n - 1):
        assert batch.states[:, i].flags.c_contiguous
        assert batch.controls[:, i].flags.c_contiguous
        assert batch.increments[:, i].flags.c_contiguous
    assert batch.states[:, n].flags.c_contiguous
    assert batch[3].states.shape == (n + 1, 2)


def test_draw_batch_inputs_is_range_invariant(lq_problem, grid):
    """Ranges that straddle the draw buffer's _CHUNK-path tiles agree."""
    full_inc, full_x0 = sl.draw_batch_inputs(lq_problem, grid, 7, 8, 0, 2100)
    inc, x0 = sl.draw_batch_inputs(lq_problem, grid, 7, 8, 1000, 2100)
    assert inc.shape == (1100, grid.n_steps, lq_problem.m)
    np.testing.assert_array_equal(inc, full_inc[1000:2100])
    np.testing.assert_array_equal(x0, full_x0[1000:2100])


def _fresh_normals(seed, path_index, stream, size):
    key = np.array([seed, (stream << 48) | path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(size)


def _expected_inputs(grid, seed, x0_seed, paths, x0_mean, x0_std, m=1, d=1):
    """Increments and x0 ~ N(x0_mean, x0_std**2 I_d) of a problem with m
    noise columns, from freshly built generators."""
    inc = np.stack([_fresh_normals(seed, p, 0, (grid.n_steps, m))
                    for p in paths]) * np.sqrt(grid.dt)
    x0 = np.stack([x0_mean + x0_std * _fresh_normals(x0_seed, p, 1, d)
                   for p in paths])
    return inc, x0


# (x0 mean, x0 std) of each problem's N(mean, std**2 I) initial law
_X0_LAW = {"sg_problem": (1.0, 0.2), "lq_2d_problem": (0.0, 1.0),
           "ou_problem": (0.0, 1.0)}
_TILES = 2 * simulate._CHUNK + 19


@pytest.mark.parametrize("name, seed, start, count", [
    pytest.param("sg_problem", 3, 0, 3, id="3-0"),
    pytest.param("sg_problem", (1 << 64) - 1, 0, 3,
                 id="18446744073709551615-0"),
    pytest.param("sg_problem", 3, (1 << 48) - 3, 3, id="3-281474976710653"),
    pytest.param("sg_problem", (1 << 64) - 1, (1 << 48) - 3, 3,
                 id="18446744073709551615-281474976710653"),
    pytest.param("lq_2d_problem", 5, 37, _TILES, id="lq_2d-tiles"),
    pytest.param("ou_problem", (1 << 64) - 1, (1 << 48) - _TILES - 1,
                 _TILES, id="ou-tiles"),
])
def test_draws_match_freshly_built_generators(name, seed, start, count,
                                              grid, request):
    """The re-keyed generator draws what a new Philox of the same key does,
    even after it was left mid-block or holding a cached 32-bit half, and
    over ranges that start past path 0 and span several draw-buffer
    tiles."""
    from soc_lab import _rng
    problem = request.getfixturevalue(name)
    want = _expected_inputs(grid, seed, seed - 1, range(start, start + count),
                            *_X0_LAW[name], m=problem.m, d=problem.d)
    for leave in (lambda gen: gen.standard_normal(3),
                  lambda gen: gen.integers(0, 2**31, dtype=np.int32)):
        leave(_rng._rekeyed(seed, start, _rng.BROWNIAN))
        inc, x0 = sl.draw_batch_inputs(problem, grid, seed, seed - 1,
                                       start, start + count)
        np.testing.assert_array_equal(inc, want[0])
        np.testing.assert_array_equal(x0, want[1])
        leave(_rng._rekeyed(seed, start, _rng.INITIAL_STATE))
        np.testing.assert_array_equal(
            sl.sample_brownian(grid, problem.m, seed, start + 2).increments,
            want[0][2])


def test_custom_sampler_holding_its_own_generator(zero_cost_problem, grid):
    """An initial_sampler built on philox_generator is not disturbed by the
    shared generator the Brownian draws re-key around it."""
    inc, x0 = sl.draw_batch_inputs(zero_cost_problem, grid, 6, 7, 10, 14)
    want = _expected_inputs(grid, 6, 7, range(10, 14), 1.0, 0.1)
    np.testing.assert_array_equal(inc, want[0])
    np.testing.assert_array_equal(x0, want[1])


def test_concurrent_draws_match_serial(lq_2d_problem, grid):
    """Threads drawing disjoint path ranges at once each re-key their own
    generator, so every range equals its rows of the serial draw."""
    ranges = [(lo, lo + 300) for lo in range(0, 1500, 300)]
    serial = sl.draw_batch_inputs(lq_2d_problem, grid, 2, 3, 0, 1500)
    got = {}
    barrier = threading.Barrier(len(ranges))

    def draw(lo, hi):
        barrier.wait()
        got[lo] = sl.draw_batch_inputs(lq_2d_problem, grid, 2, 3, lo, hi)

    threads = [threading.Thread(target=draw, args=r) for r in ranges]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for lo, hi in ranges:
        np.testing.assert_array_equal(got[lo][0], serial[0][lo:hi])
        np.testing.assert_array_equal(got[lo][1], serial[1][lo:hi])


@pytest.mark.parametrize("seed, x0_seed, start", [
    (1 << 64, 0, 0), (-1, 0, 0), (0, 1 << 64, 0), (0, -1, 0), (0, 0, -1),
    (0, 0, (1 << 48) - 1)])
def test_draw_batch_inputs_refuses_keys_that_would_wrap(lq_problem, grid,
                                                        seed, x0_seed, start):
    """Seed 2**64 used to replay seed 0's draws, and -1 seed 2**64 - 1's."""
    with pytest.raises(sl.ValidationError):
        sl.draw_batch_inputs(lq_problem, grid, seed, x0_seed, start,
                             start + 2)


def test_lq_euler_moments_match_exact_recursion(lq_problem, grid):
    """MC terminal moments agree with the scheme's own moment recursion.

    For X_{i+1} = X_i + dt (a X_i + b u_i) + s dB with u = Kx + c the
    Euler chain has exactly computable mean and variance; the sampled
    paths must reproduce them within Monte Carlo error.
    """
    control = make_mild_feedback(1, 1, 1.0, scale=-0.4, offset=0.05)
    n_paths = 4096
    batch = sl.simulate_batch(lq_problem, control, grid, 123, n_paths)
    a, b, s = 0.3, 1.0, 0.8
    gain, off = -0.4, 0.05
    mean, var = 0.0, 1.0  # x0 ~ N(0, 1)
    for _ in range(grid.n_steps):
        fac = 1.0 + grid.dt * (a + b * gain)
        mean = fac * mean + grid.dt * b * off
        var = fac * fac * var + s * s * grid.dt
    xt = batch.states[:, -1, 0]
    se_mean = np.sqrt(var / n_paths)
    assert abs(xt.mean() - mean) < 4.0 * se_mean
    se_var = var * np.sqrt(2.0 / (n_paths - 1))
    assert abs(xt.var(ddof=1) - var) < 4.0 * se_var


def test_simulate_costs_matches_rollout(lq_problem, lq_control, grid):
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 31, 8)
    costs, terminal = sl.simulate_costs(lq_problem, lq_control, grid,
                                        batch.states[:, 0],
                                        batch.increments)
    np.testing.assert_array_equal(costs, batch.pathwise_costs)
    np.testing.assert_array_equal(terminal, batch.states[:, -1])


def test_simulate_costs_from_interior_node(lq_problem, lq_control, grid):
    """Restarting from node i with the tail increments reproduces the tail."""
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 31, 4)
    i = grid.n_steps // 2
    costs, terminal = sl.simulate_costs(lq_problem, lq_control, grid,
                                        batch.states[:, i],
                                        batch.increments[:, i:],
                                        start_index=i)
    np.testing.assert_array_equal(terminal, batch.states[:, -1])
    assert np.all(np.isfinite(costs))


def test_simulate_costs_rejects_bad_increment_shape(lq_problem, lq_control,
                                                    grid):
    with pytest.raises(sl.ValidationError):
        sl.simulate_costs(lq_problem, lq_control, grid, np.zeros((2, 1)),
                          np.zeros((2, grid.n_steps - 1, 1)))


def test_divergent_path_raises_simulation_error(sg_problem, grid):
    """An explosive feedback gain must abort with step/path context."""
    blow_up = make_mild_feedback(1, 1, 1.0, scale=80.0, offset=0.0)
    with np.errstate(over="ignore"), pytest.raises(sl.SimulationError) as err:
        sl.simulate_batch(sg_problem, blow_up, grid, 0, 2)
    assert err.value.step_index is not None


def test_trajectories_csv_schema(tmp_path, lq_problem, lq_control):
    grid = sl.TimeGrid(4, 1.0)
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 2)
    out = tmp_path / "trajs.csv"
    sl.write_trajectories_csv(batch, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["path", "i", "t"]
    assert len(rows) == 1 + 2 * (grid.n_steps + 1)
    # terminal row of path 0 carries the terminal state
    row = rows[1 + grid.n_steps]
    assert float(row[2]) == pytest.approx(1.0)
    assert float(row[3]) == pytest.approx(batch.states[0, -1, 0])


@pytest.mark.parametrize("seed, start, stop", [
    (1 << 64, 0, 3), (-1, 0, 3), (0, (1 << 48) - 2, (1 << 48) + 1)])
def test_draw_batch_inputs_checks_keys_before_drawing(lq_problem, grid, seed,
                                                      start, stop):
    """An out-of-range seed, or a range running past 2**48, is refused
    before the first path is drawn, not at the path where it wraps."""
    drawn = []

    def sampler(x0_seed, path_index):
        drawn.append(path_index)
        return np.zeros(1)

    problem = dataclasses.replace(lq_problem, initial_sampler=sampler)
    with pytest.raises(sl.ValidationError):
        sl.draw_batch_inputs(problem, grid, seed, 0, start, stop)
    assert drawn == []


def test_replaced_sampler_is_the_one_drawn_from(lq_problem, grid):
    """A sampler swapped in with dataclasses.replace is called per path,
    not the built-in batched draw."""
    def custom(seed, path_index):
        return np.array([seed + 0.5 * path_index])

    problem = dataclasses.replace(lq_problem, initial_sampler=custom)
    want = np.array([[9 + 0.5 * p] for p in range(3, 8)])
    np.testing.assert_array_equal(problem.sample_initial_batch(9, 3, 8), want)
    _, x0 = sl.draw_batch_inputs(problem, grid, 1, 9, 3, 8)
    np.testing.assert_array_equal(x0, want)
