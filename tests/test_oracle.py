"""Oracles: finite differences, Riccati references, statistical checks.

The oracles exist to catch bugs in the rest of the package, so these tests
pin them against pencil-and-paper results wherever one exists — a problem
whose frozen-noise cost map is exactly quadratic, the q/(1+q*(T-t)) Riccati
solution, the Gaussian-tilt moments — and only fall back on consistency
checks where no closed form is available.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

import soc_lab as sl


def _quadratic_terminal_problem():
    """dX = (0.5 X + u) dt + 0.2 dB, f == 0, g = 0.5 x^2.

    Under the zero control and frozen noise, X_N = c^N x0 + (noise terms)
    with c = 1 + 0.5 dt, so the pathwise cost is exactly quadratic in x0:
    gradient c^N X_N, Hessian c^(2N).  Central differences are exact on
    quadratics, which turns the FD oracles into a hand-checkable contract.
    """

    def drift(x, u, t):
        return 0.5 * x + u

    def diffusion(x, u, t):
        return np.full((x.shape[0], 1, 1), 0.2)

    def running_cost(x, u, t):
        return np.zeros(x.shape[0])

    def terminal_cost(x):
        return 0.5 * x[:, 0] ** 2

    def initial_sampler(seed, path_index):
        from soc_lab import _rng
        gen = _rng.philox_generator(seed, path_index, _rng.INITIAL_STATE)
        return np.array([1.0 + 0.1 * gen.standard_normal()])

    bundle = sl.DerivativeBundle(
        d1_drift=lambda x, u, t: np.full((x.shape[0], 1, 1), 0.5),
        d2_drift=lambda x, u, t: np.ones((x.shape[0], 1, 1)),
        d1_cost=lambda x, u, t: np.zeros_like(x),
        d2_cost=lambda x, u, t: np.zeros_like(u),
        grad_terminal=lambda x: x.copy(),
        hess_terminal=lambda x: np.ones((x.shape[0], 1, 1)),
        dsigma_dx=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
        dsigma_du=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
        second_order=sl.SecondOrderBundle(),
    )
    return sl.make_controlled_diffusion_problem(
        d=1, k=1, m=1, horizon=1.0, drift=drift, diffusion=diffusion,
        running_cost=running_cost, terminal_cost=terminal_cost,
        initial_sampler=initial_sampler, derivatives=bundle,
        name="quadratic_terminal")


# ---------------------------------------------------------------------------
# pathwise finite differences


def test_pathwise_value_equals_trajectory_cost(lq_problem, lq_control, grid):
    noise = sl.sample_brownian(grid, lq_problem.m, 5, 0)
    traj = sl.simulate_forward(lq_problem, lq_control, grid, noise,
                               np.array([0.7]))
    value = sl.pathwise_value(lq_problem, lq_control, grid, noise,
                              np.array([0.7]))
    assert value == traj.pathwise_cost


def test_fd_gradient_and_hessian_on_exact_quadratic():
    prob = _quadratic_terminal_problem()
    zero = sl.make_linear_feedback_control(1, 1, 1, 1.0)
    grid = sl.TimeGrid(50, 1.0)
    c_pow = (1.0 + 0.5 * grid.dt) ** grid.n_steps
    for path in range(3):
        noise = sl.sample_brownian(grid, 1, 17, path)
        x0 = np.array([0.4 + 0.3 * path])
        traj = sl.simulate_forward(prob, zero, grid, noise, x0)
        x_n = traj.states[-1, 0]
        grad = sl.fd_pathwise_gradient(prob, zero, grid, noise, x0)
        assert grad[0] == pytest.approx(c_pow * x_n, abs=1e-8)
        hess = sl.fd_pathwise_hessian(prob, zero, grid, noise, x0)
        assert hess[0, 0] == pytest.approx(c_pow ** 2, abs=1e-5)


def test_fd_gradient_converges_at_second_order(lq_problem):
    """Central differences on a genuinely non-quadratic pathwise map: the
    error against the exact discrete gradient must shrink ~4x per halving."""
    rng = np.random.default_rng(99)
    net = sl.make_one_hidden_layer_control(1, 1, 6, 1.0)
    net = net.with_theta(0.5 * rng.standard_normal(net.n_params))
    grid = sl.TimeGrid(80, 1.0)
    batch = sl.simulate_batch(lq_problem, net, grid, 3, 2)
    full = sl.solve_first_order_adjoint(lq_problem, net, batch)
    for p in range(2):
        traj = batch[p]
        exact = full.values[p, 0]
        errs = []
        for step in (4e-3, 2e-3, 1e-3):
            fd = sl.fd_pathwise_gradient(lq_problem, net, grid, traj.noise,
                                         traj.x0, step=step)
            errs.append(abs(fd[0] - exact[0]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_fd_hessian_is_symmetric(lq_2d_problem):
    from conftest import make_mild_feedback
    ctrl = make_mild_feedback(2, 1, 1.0)
    grid = sl.TimeGrid(40, 1.0)
    noise = sl.sample_brownian(grid, lq_2d_problem.m, 8, 0)
    hess = sl.fd_pathwise_hessian(lq_2d_problem, ctrl, grid, noise,
                                  np.array([0.5, -0.2]))
    np.testing.assert_array_equal(hess, hess.T)
    assert hess.shape == (2, 2)


# ---------------------------------------------------------------------------
# Riccati references


def test_riccati_closed_form():
    """a=0, B=sigma=1, q_run=0: P(t) = q/(1 + q(T-t)), c(0) = ln(1+qT)/2."""
    prob = sl.make_lq_problem(0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    grid = sl.TimeGrid(50, 1.0)
    ric = sl.solve_riccati(prob, grid)
    t = grid.nodes
    closed = 1.0 / (1.0 + (1.0 - t))
    got = ric.p[:, 0, 0]
    assert np.max(np.abs(got - closed)) <= 1e-10
    np.testing.assert_array_equal(ric.gains[:, 0, 0], -got)
    assert ric.offset[-1] == 0.0
    assert ric.offset[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-10)
    assert ric.p[-1, 0, 0] == 1.0  # terminal condition, exactly


def test_riccati_matches_dense_value_function(lq_problem, lq_2d_problem):
    for prob in (lq_problem, lq_2d_problem):
        grid = sl.TimeGrid(40, 1.0)
        ric = sl.solve_riccati(prob, grid)
        vf = sl.LQValueFunction(prob)
        for i in (0, 13, 27, 40):
            t = float(grid.nodes[i])
            assert np.max(np.abs(ric.p[i] - vf.p_of(t))) <= 1e-8
            assert abs(ric.offset[i] - vf.offset_of(t)) <= 1e-8
            np.testing.assert_allclose(ric.gains[i], vf.gain_of(t),
                                       atol=1e-8)


def test_value_function_evaluation(lq_problem):
    vf = sl.LQValueFunction(lq_problem)
    x = np.array([0.8])
    t = 0.3
    p = vf.p_of(t)
    want = 0.5 * float(x @ p @ x) + vf.offset_of(t)
    assert vf(x, t) == pytest.approx(want, rel=1e-12)
    # value decreases toward the horizon for this instance (costs accrue)
    assert vf(x, 0.9) < vf(x, 0.1)


def test_riccati_needs_lq_data(sg_problem, grid):
    with pytest.raises(sl.UnsupportedProblemError):
        sl.solve_riccati(sg_problem, grid)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.LQValueFunction(sg_problem)


# ---------------------------------------------------------------------------
# Gaussian tilt


def test_tilted_gaussian_target(ou_problem):
    mean, var = sl.tilted_gaussian_target(ou_problem)
    assert (mean, var) == (0.0, 0.5)
    assert sl.tilted_gaussian_target(0.25) == (0.0, 0.8)
    with pytest.raises(sl.ValidationError):
        sl.tilted_gaussian_target(-1.0)


def test_tilted_gaussian_against_quadrature():
    for tilt in (0.3, 1.0, 4.0):
        _, var = sl.tilted_gaussian_target(tilt)

        def weight(x, s=tilt):
            return math.exp(-0.5 * (1.0 + s) * x * x)

        z, _ = scipy.integrate.quad(weight, -np.inf, np.inf)
        m2, _ = scipy.integrate.quad(lambda x: x * x * weight(x),
                                     -np.inf, np.inf)
        assert var == pytest.approx(m2 / z, rel=1e-10)


# ---------------------------------------------------------------------------
# statistical diagnostics


def test_memorylessness_long_horizon_passes(ou_problem):
    grid = sl.TimeGrid(200, ou_problem.horizon)
    report = sl.memorylessness_check(ou_problem, grid, 4000, seed=6)
    assert report.passed
    assert report.threshold == pytest.approx(3.0 / math.sqrt(4000))
    assert report.max_abs_corr < report.threshold


def test_memorylessness_short_horizon_fails():
    prob = sl.make_ou_tilt_problem(1.0, 1.0, 0.2)
    grid = sl.TimeGrid(20, 0.2)
    report = sl.memorylessness_check(prob, grid, 4000, seed=6)
    assert not report.passed
    # discrete-time correlation of the uncontrolled recursion is known
    expected = (1.0 - grid.dt) ** grid.n_steps
    assert report.correlations[0] == pytest.approx(expected, abs=0.05)


def test_memorylessness_csv(tmp_path, ou_problem):
    grid = sl.TimeGrid(50, ou_problem.horizon)
    report = sl.memorylessness_check(ou_problem, grid, 500, seed=0)
    out = tmp_path / "memoryless.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "component,corr,threshold,pass"
    assert len(lines) == 2


def test_smp_representation_on_lq(lq_problem):
    grid = sl.TimeGrid(100, 1.0)
    report = sl.smp_representation_check(lq_problem, grid, 20000, seed=4)
    assert len(report.rows) == 5
    assert report.passed, [r.z_score for r in report.rows]
    ric = sl.solve_riccati(lq_problem, grid)
    for row in report.rows:
        idx = int(round(row.time / grid.dt))
        assert row.predicted == pytest.approx(float(ric.p[idx, 0, 0]))
        assert row.q_star == pytest.approx(row.predicted * 0.8)
        assert row.slope_se > 0.0


def test_smp_rejects_nonscalar_and_nonlq(lq_2d_problem, sg_problem, grid):
    with pytest.raises(sl.UnsupportedProblemError):
        sl.smp_representation_check(lq_2d_problem, grid, 100, seed=0)
    # q* = P(t) sigma has one entry per noise column; the report has one
    two_columns = sl.make_lq_problem(0.3, 1.0, [[0.6, 0.8]], 0.5, 1.0, 1.0)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.smp_representation_check(two_columns, grid, 100, seed=0)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.smp_representation_check(sg_problem, grid, 100, seed=0)


@pytest.mark.parametrize("sizes", [dict(block_size=-1), dict(block_size=0),
                                   dict(n_paths=0)])
def test_smp_refuses_bad_sizes(lq_problem, sizes):
    """A negative block used to bin uninitialised memory into nan slopes."""
    kw = dict(n_paths=64, block_size=32) | sizes
    with pytest.raises(sl.ValidationError, match=next(iter(sizes))):
        sl.smp_representation_check(lq_problem, sl.TimeGrid(10, 1.0),
                                    seed=0, **kw)


def test_smp_csv(tmp_path, lq_problem):
    grid = sl.TimeGrid(50, 1.0)
    report = sl.smp_representation_check(lq_problem, grid, 4000, seed=4)
    out = tmp_path / "smp.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,slope,slope_se,predicted,z,q_star,pass"
    assert len(lines) == len(report.rows) + 1


# ---------------------------------------------------------------------------
# value-equation residual


def test_hjb_analytic_mode_near_zero_residual(lq_problem):
    vf = sl.LQValueFunction(lq_problem)
    report = sl.hjb_residual_1d(
        lq_problem, None, x_grid=[-1.0, -0.3, 0.4, 1.2],
        t_grid=[0.25, 0.5, 0.75], n_paths=0, seed=0, value_fn=vf)
    assert report.mode == "analytic"
    assert len(report.rows) == 12
    assert all(r.noise_floor == 0.0 and r.reliable for r in report.rows)
    assert report.max_abs_residual <= 1e-6


def test_hjb_analytic_reads_every_noise_column():
    """Two scalar problems with the same sigma sigma' = 1, one noise column
    or two, have the same value function and so the same residual."""
    kw = dict(x_grid=np.linspace(-3.0, 3.0, 21),
              t_grid=np.linspace(0.05, 0.95, 21), n_paths=0, seed=0)
    residuals = []
    for sigma in ([[1.0, 0.0]], [[0.6, 0.8]]):
        problem = sl.make_lq_problem(0.3, 1.0, sigma, 0.5, 1.0, 1.0)
        report = sl.hjb_residual_1d(problem, None,
                                    value_fn=sl.LQValueFunction(problem), **kw)
        assert report.max_abs_residual <= 1e-4
        residuals.append(np.array([r.residual for r in report.rows]))
    np.testing.assert_allclose(residuals[1], residuals[0], rtol=0, atol=1e-12)


def test_hjb_analytic_rejects_boundary_times(lq_problem):
    vf = sl.LQValueFunction(lq_problem)
    with pytest.raises(sl.ValidationError):
        sl.hjb_residual_1d(lq_problem, None, x_grid=[0.0], t_grid=[0.0],
                           n_paths=0, seed=0, value_fn=vf)


def test_hjb_monte_carlo_flags_suboptimal_control():
    """The MC residual separates the optimal feedback from the zero control.

    For a=0, B=sigma=1, q_run=0 the zero-control cost-to-go is
    0.5 x^2 + 0.5 (T-t), whose DP residual is exactly -0.5 x^2; the
    Riccati feedback's residual is discretization + noise only.
    """
    prob = sl.make_lq_problem(0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    master = sl.TimeGrid(50, 1.0)
    ric = sl.solve_riccati(prob, master)
    theta = np.empty(2 * master.n_steps)
    theta[0::2] = ric.gains[:-1, 0, 0]
    theta[1::2] = 0.0
    opt = sl.make_linear_feedback_control(1, 1, master.n_steps, 1.0,
                                          theta=theta)
    zero = sl.make_linear_feedback_control(1, 1, 1, 1.0)
    kw = dict(x_grid=[1.0], t_grid=[0.5], n_paths=20000, seed=12,
              n_steps=50, n_blocks=8)
    bad = sl.hjb_residual_1d(prob, zero, **kw)
    good = sl.hjb_residual_1d(prob, opt, **kw)
    assert bad.mode == "monte_carlo"
    assert all(r.reliable and r.noise_floor > 0.0 for r in bad.rows)
    (bad_row,) = bad.rows
    (good_row,) = good.rows
    assert bad_row.residual == pytest.approx(-0.5, abs=0.2)
    assert abs(bad_row.residual) > 5.0 * bad_row.noise_floor
    assert abs(good_row.residual) <= 5.0 * good_row.noise_floor
    assert abs(good_row.residual) < abs(bad_row.residual) / 3.0


def test_hjb_refuses_grid_search_over_vector_control():
    """Without the control-affine-quadratic closed form the minimum over u
    is a grid search on [-5, 5], which covers k = 1 only."""
    problem = sl.make_controlled_diffusion_problem(
        d=1, k=2, m=1, horizon=1.0,
        drift=lambda x, u, t: u.sum(axis=1, keepdims=True),
        diffusion=lambda x, u, t: 0.3 * x[:, :, None],
        running_cost=lambda x, u, t: 0.5 * np.einsum("bk,bk->b", u, u),
        terminal_cost=lambda x: np.einsum("bi,bi->b", x, x),
        initial_sampler=lambda seed, path_index: np.ones(1),
        derivatives=sl.DerivativeBundle(
            d1_drift=lambda x, u, t: np.zeros((x.shape[0], 1, 1)),
            d2_drift=lambda x, u, t: np.ones((x.shape[0], 1, 2)),
            d1_cost=lambda x, u, t: np.zeros_like(x),
            d2_cost=lambda x, u, t: np.asarray(u),
            grad_terminal=lambda x: 2.0 * x,
            hess_terminal=lambda x: np.full((x.shape[0], 1, 1), 2.0),
            dsigma_dx=lambda x, u, t: np.full((x.shape[0], 1, 1, 1), 0.3)))
    assert not problem.control_affine_quadratic
    with pytest.raises(sl.UnsupportedProblemError, match="k must be 1"):
        sl.hjb_residual_1d(problem, None, x_grid=[0.5], t_grid=[0.5],
                           n_paths=0, seed=0, value_fn=lambda x, t: 0.0)


def test_hjb_csv(tmp_path, lq_problem):
    vf = sl.LQValueFunction(lq_problem)
    report = sl.hjb_residual_1d(lq_problem, None, x_grid=[0.5],
                                t_grid=[0.5], n_paths=0, seed=0, value_fn=vf)
    out = tmp_path / "hjb.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,residual,noise_floor,reliable"
    assert len(lines) == 2


def test_package_import_leaves_scipy_unloaded():
    """scipy is imported only when LQValueFunction integrates; this test
    module has loaded it already, so the import runs in a fresh process."""
    src = str(pathlib.Path(sl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, soc_lab, soc_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
