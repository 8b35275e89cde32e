"""Hamiltonians, matching losses, and the Monte-Carlo objective."""

import dataclasses

import numpy as np
import pytest

import soc_lab as sl

from conftest import make_mild_feedback


# ---------------------------------------------------------------------------
# pointwise Hamiltonians


def test_hamiltonian_values_on_lq(lq_problem):
    # f = 0.5*0.5*x^2 + 0.5*u^2, b = 0.3x + u, sigma = 0.8
    x, u, p, m = 2.0, 0.5, 1.5, 3.0
    f = 0.25 * x * x + 0.5 * u * u
    drift = 0.3 * x + u
    lean = sl.hamiltonian_lean(lq_problem, [x], [u], 0.1, [p])
    assert lean == pytest.approx(f + drift * p, rel=1e-12)
    full = sl.hamiltonian_full(lq_problem, [x], [u], 0.1, [p], [[m]])
    assert full == pytest.approx(f + drift * p + 0.5 * 0.64 * m, rel=1e-12)
    smp = sl.hamiltonian_smp(lq_problem, [x], [u], 0.1, [p], [[0.7]])
    assert smp == pytest.approx(f + drift * p + 0.8 * 0.7, rel=1e-12)


def test_hamiltonian_batched(lq_problem):
    x = np.array([[1.0], [2.0]])
    u = np.array([[0.0], [1.0]])
    p = np.array([[1.0], [-1.0]])
    out = sl.hamiltonian_lean(lq_problem, x, u, 0.0, p)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(0.25 + 0.3)
    assert out[1] == pytest.approx(1.0 + 0.5 - 1.6)


def test_generalized_hamiltonian_reduces_to_lean(sg_problem, lq_problem):
    x, u, p = np.array([[1.2]]), np.array([[0.4]]), np.array([[0.9]])
    m = np.array([[2.0]])
    # at u == u_ref the diffusion gap vanishes for any problem
    at_ref = sl.hamiltonian_generalized(sg_problem, x, u, 0.3, p, m, u)
    lean = sl.hamiltonian_lean(sg_problem, x, u, 0.3, p)
    np.testing.assert_allclose(at_ref, lean, rtol=1e-12)
    # sigma free of u (every built-in) zeroes the gap for any u_ref
    other = sl.hamiltonian_generalized(sg_problem, x, u, 0.3, p, m,
                                       np.array([[-2.0]]))
    np.testing.assert_allclose(other, lean, rtol=1e-12)


def test_generalized_hamiltonian_gap_value(u_noise_problem):
    """dsigma/du != 0 makes the penalty explicit and hand-checkable."""
    prob = u_noise_problem
    x = np.array([[0.7]])
    u = np.array([[0.9]])
    u_ref = np.array([[0.4]])
    p = np.array([[1.1]])
    m = np.array([[2.0]])
    want = (0.5 * 0.81 + (-0.7 + 0.9) * 1.1
            + 0.5 * (0.9 - 0.4) ** 2 * 2.0)
    got = sl.hamiltonian_generalized(prob, x, u, 0.2, p, m, u_ref)
    assert got == pytest.approx(want, rel=1e-12)


def test_diffusion_ignores_control_probe(u_noise_problem, lq_problem,
                                        sg_problem):
    """sigma = 0.5 + u probes False; sigma(x) and sigma(t) probe True, and
    a copy made with `dataclasses.replace` probes again."""
    assert not u_noise_problem.diffusion_ignores_control
    assert lq_problem.diffusion_ignores_control
    assert sg_problem.diffusion_ignores_control
    assert not sg_problem.diffusion_time_only
    fixed = dataclasses.replace(
        u_noise_problem,
        diffusion=lambda x, u, t: np.full((x.shape[0], 1, 1), 0.5),
        derivatives=dataclasses.replace(u_noise_problem.derivatives,
                                        dsigma_du=None))
    assert fixed.diffusion_ignores_control
    noisy = dataclasses.replace(
        lq_problem, diffusion=lambda x, u, t: 0.8 * (1.0 + u[:, :, None]))
    assert not noisy.diffusion_ignores_control


# ---------------------------------------------------------------------------
# matching losses


def _fd_loss_grad(loss_fn, control, step=1e-6):
    theta = control.theta
    grad = np.zeros(theta.size)
    for q in range(theta.size):
        bump = np.zeros_like(theta)
        bump[q] = step
        up = loss_fn(control.with_theta(theta + bump))
        dn = loss_fn(control.with_theta(theta - bump))
        grad[q] = (up - dn) / (2.0 * step)
    return grad


def test_lean_am_loss_gradient_is_exact(sg_problem, sg_control, grid):
    """grad_theta differentiates the report's own loss_value: finite
    differences over theta at fixed batch and fixed adjoints must agree."""
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 2, 16)
    lean = sl.solve_lean_adjoint(sg_problem, sg_control, batch)
    report = sl.lean_am_loss(sg_problem, sg_control, batch, lean)
    fd = _fd_loss_grad(
        lambda c: sl.lean_am_loss(sg_problem, c, batch, lean).loss_value,
        sg_control)
    np.testing.assert_allclose(report.grad_theta, fd, rtol=1e-6, atol=1e-9)
    assert report.kind == "lean_am"
    assert report.n_paths == 16
    assert report.loss_value == pytest.approx(
        grid.dt * report.per_time_terms.sum())
    assert report.grad_norm == pytest.approx(
        np.linalg.norm(report.grad_theta))


def test_bam_loss_gradient_is_exact(sg_problem, sg_control, grid):
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 2, 8)
    frozen = sl.freeze_control(sg_control)
    full = sl.solve_first_order_adjoint(sg_problem, frozen, batch)
    second = sl.solve_second_order_adjoint(sg_problem, frozen, batch, full)
    report = sl.bam_loss(sg_problem, sg_control, batch, full, second)
    fd = _fd_loss_grad(
        lambda c: sl.bam_loss(sg_problem, c, batch, full,
                              second).loss_value,
        sg_control)
    np.testing.assert_allclose(report.grad_theta, fd, rtol=1e-6, atol=1e-9)
    assert report.kind == "bam"


def test_quadratic_loss_gradient_is_exact(ou_problem):
    grid = sl.TimeGrid(100, ou_problem.horizon)
    ctrl = make_mild_feedback(1, 1, ou_problem.horizon)
    batch = sl.simulate_batch(ou_problem, ctrl, grid, 3, 8)
    lean = sl.solve_lean_adjoint(ou_problem, ctrl, batch)
    report = sl.quadratic_am_loss(ou_problem, ctrl, batch, lean)
    fd = _fd_loss_grad(
        lambda c: sl.quadratic_am_loss(ou_problem, c, batch,
                                       lean).loss_value,
        ctrl)
    np.testing.assert_allclose(report.grad_theta, fd, rtol=1e-6, atol=1e-9)
    assert report.loss_value >= 0.0


def test_sigma_collapse_gradients_identical(lq_problem, lq_control, grid):
    """With sigma(t) the BAM gradient must equal the lean one bitwise:
    the lean adjoint coincides with the frozen full adjoint, and the
    curvature term has no u-dependence."""
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 4, 32)
    lean = sl.solve_lean_adjoint(lq_problem, lq_control, batch)
    frozen = sl.freeze_control(lq_control)
    full = sl.solve_first_order_adjoint(lq_problem, frozen, batch)
    second = sl.solve_second_order_adjoint(lq_problem, frozen, batch, full)
    lean_report = sl.lean_am_loss(lq_problem, lq_control, batch, lean)
    bam_report = sl.bam_loss(lq_problem, lq_control, batch, full, second)
    np.testing.assert_array_equal(lean_report.grad_theta,
                                  bam_report.grad_theta)
    # loss values differ by the theta-independent trace term
    assert bam_report.loss_value != lean_report.loss_value


def test_quadratic_equals_lean_gradient_when_drift_gain_is_sigma(ou_problem):
    """OU-tilt has d2_drift == sigma, where the regression-form gradient
    coincides with the lean one exactly."""
    grid = sl.TimeGrid(80, ou_problem.horizon)
    ctrl = make_mild_feedback(1, 1, ou_problem.horizon, scale=-0.2,
                              offset=0.3)
    batch = sl.simulate_batch(ou_problem, ctrl, grid, 8, 64)
    lean = sl.solve_lean_adjoint(ou_problem, ctrl, batch)
    quad = sl.quadratic_am_loss(ou_problem, ctrl, batch, lean)
    lam = sl.lean_am_loss(ou_problem, ctrl, batch, lean)
    np.testing.assert_array_equal(quad.grad_theta, lam.grad_theta)


def test_quadratic_loss_rejects_structure_mismatch(sg_problem, lq_2d_problem,
                                                   grid):
    ctrl = make_mild_feedback(1, 1, 1.0)
    batch = sl.simulate_batch(sg_problem, ctrl, grid, 0, 2)
    lean = sl.solve_lean_adjoint(sg_problem, ctrl, batch)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.quadratic_am_loss(sg_problem, ctrl, batch, lean)
    # k = 1 != m = 2 on the 2d problem
    ctrl2 = make_mild_feedback(2, 1, 1.0)
    batch2 = sl.simulate_batch(lq_2d_problem, ctrl2, grid, 0, 2)
    lean2 = sl.solve_lean_adjoint(lq_2d_problem, ctrl2, batch2)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.quadratic_am_loss(lq_2d_problem, ctrl2, batch2, lean2)


def test_per_path_gradients_mean_matches_loss(lq_problem, lq_control, grid):
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 5, 24)
    lean = sl.solve_lean_adjoint(lq_problem, lq_control, batch)
    per_path = sl.per_path_lean_am_gradients(lq_problem, lq_control, batch,
                                             lean)
    report = sl.lean_am_loss(lq_problem, lq_control, batch, lean)
    assert per_path.shape == (24, lq_control.n_params)
    np.testing.assert_allclose(per_path.mean(axis=0), report.grad_theta,
                               rtol=1e-12, atol=1e-15)


def _full(p, c, traj):
    return sl.solve_first_order_adjoint(p, sl.freeze_control(c), traj)


def _second(p, c, traj):
    return sl.solve_second_order_adjoint(p, sl.freeze_control(c), traj,
                                         _full(p, c, traj))


# consumer -> (stored values it takes, solved along some trajectory;
#              the call, on a trajectory, with those values in that slot
#              and every other input solved along the trajectory itself)
_CONSUMERS = {
    "lean_am_loss": (sl.solve_lean_adjoint, sl.lean_am_loss),
    "bam_loss.adjoints": (_full, lambda p, c, traj, v: sl.bam_loss(
        p, c, traj, v, _second(p, c, traj))),
    "bam_loss.matrix_adjoints": (_second, lambda p, c, traj, v: sl.bam_loss(
        p, c, traj, _full(p, c, traj), v)),
    "quadratic_am_loss": (sl.solve_lean_adjoint, sl.quadratic_am_loss),
    "per_path_lean_am_gradients": (sl.solve_lean_adjoint,
                                   sl.per_path_lean_am_gradients),
    "msa_exact_step": (sl.solve_lean_adjoint, sl.msa_exact_step),
    "solve_second_order_adjoint": (
        _full, lambda p, c, traj, v: sl.solve_second_order_adjoint(
            p, sl.freeze_control(c), traj, v)),
    "feynman_kac_lean": (sl.fundamental_matrix, sl.feynman_kac_lean),
    "theta_gradient_via_adjoint": (_full, sl.theta_gradient_via_adjoint),
}


@pytest.mark.parametrize("source", ["batch_size", "grid", "single_path"])
@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_loss_rejects_misaligned_adjoints(lq_problem, lq_control, grid,
                                          consumer, source):
    """Stored values from another batch, another grid, or one path of the
    batch are refused, never broadcast."""
    solve, call = _CONSUMERS[consumer]
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 4)
    elsewhere = {
        "batch_size": lambda: sl.simulate_batch(lq_problem, lq_control,
                                                grid, 0, 3),
        "grid": lambda: sl.simulate_batch(lq_problem, lq_control,
                                          sl.TimeGrid(100, 1.0), 0, 4),
        "single_path": lambda: batch[0],
    }[source]()
    stored = solve(lq_problem, lq_control, elsewhere)
    with pytest.raises(sl.ValidationError):
        call(lq_problem, lq_control, batch, stored)


@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_single_trajectory_takes_its_own_path_values(lq_problem, lq_control,
                                                     grid, consumer):
    """A Trajectory with its own path container gives the numbers of the
    one-path batch holding the same path."""
    solve, call = _CONSUMERS[consumer]

    def numbers(traj):
        out = call(lq_problem, lq_control, traj,
                   solve(lq_problem, lq_control, traj))
        for attr in ("grad_theta", "values", "matrices"):
            out = getattr(out, attr, out)
        return np.ravel(out)

    one = sl.simulate_batch(lq_problem, lq_control, grid, 0, 1)
    np.testing.assert_array_equal(numbers(one[0]), numbers(one))


def _wrong_kind_values(p, c, traj):
    full = _full(p, c, traj)
    return {"lean": sl.solve_lean_adjoint(p, c, traj), "full": full,
            "second": sl.solve_second_order_adjoint(
                p, sl.freeze_control(c), traj, full),
            "props": sl.fundamental_matrix(p, c, traj)}


# call -> (the slot named in the error, the call with one slot holding
#          values of another kind, all solved along the same batch)
_WRONG_KIND = {
    "feynman_kac_lean-lean": ("propagators", lambda p, c, b, v:
                              sl.feynman_kac_lean(p, c, b, v["lean"])),
    "solve_second_order_adjoint-propagators": (
        "first", lambda p, c, b, v: sl.solve_second_order_adjoint(
            p, sl.freeze_control(c), b, v["props"])),
    "lean_am_loss-propagators": ("adjoints", lambda p, c, b, v:
                                 sl.lean_am_loss(p, c, b, v["props"])),
    "lean_am_loss-second_order": ("adjoints", lambda p, c, b, v:
                                  sl.lean_am_loss(p, c, b, v["second"])),
    "theta_gradient_via_adjoint-second_order": (
        "adjoint", lambda p, c, b, v: sl.theta_gradient_via_adjoint(
            p, c, b, v["second"])),
    "bam_loss-full_as_matrix": ("matrix_adjoints", lambda p, c, b, v:
                                sl.bam_loss(p, c, b, v["full"], v["full"])),
}


@pytest.mark.parametrize("case", sorted(_WRONG_KIND))
def test_stored_values_of_the_wrong_kind_are_refused(lq_problem, lq_control,
                                                     grid, case):
    """A slot takes only its own kind: first-order adjoints, second-order
    matrices or propagators, whatever their shapes."""
    slot, call = _WRONG_KIND[case]
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 4)
    values = _wrong_kind_values(lq_problem, lq_control, batch)
    with pytest.raises(sl.ValidationError, match=f"^{slot} must hold "):
        call(lq_problem, lq_control, batch, values)


# ---------------------------------------------------------------------------
# Monte-Carlo objective


def test_soc_objective_uncontrolled_ou(ou_problem):
    """Zero control: E[J] = 0.5 * E[X_T^2] with the scheme's own variance
    recursion var <- (1 - dt)^2 var + 2 dt from var_0 = 1."""
    grid = sl.TimeGrid(200, ou_problem.horizon)
    zero = sl.make_linear_feedback_control(1, 1, 1, ou_problem.horizon)
    n_paths = 20000
    mean, se = sl.soc_objective(ou_problem, zero, grid, 17, n_paths)
    var = 1.0
    for _ in range(grid.n_steps):
        var = (1.0 - grid.dt) ** 2 * var + 2.0 * grid.dt
    want = 0.5 * var
    assert se > 0.0
    assert abs(mean - want) < 4.0 * se


def test_sample_pathwise_costs_block_size_invariance(lq_problem, lq_control):
    grid = sl.TimeGrid(50, 1.0)
    a_costs, a_term = sl.sample_pathwise_costs(lq_problem, lq_control, grid,
                                               9, 100, block_size=7)
    b_costs, b_term = sl.sample_pathwise_costs(lq_problem, lq_control, grid,
                                               9, 100, block_size=64)
    np.testing.assert_array_equal(a_costs, b_costs)
    np.testing.assert_array_equal(a_term, b_term)
    # and they are the simulate_batch costs
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 9, 100)
    np.testing.assert_array_equal(a_costs, batch.pathwise_costs)


@pytest.mark.parametrize("block_size", [-1, 0, 2.5])
def test_sample_pathwise_costs_refuses_bad_block_size(lq_problem, lq_control,
                                                      block_size):
    with pytest.raises(sl.ValidationError, match="block_size"):
        sl.sample_pathwise_costs(lq_problem, lq_control,
                                 sl.TimeGrid(10, 1.0), 9, 4,
                                 block_size=block_size)


def test_loss_reports_csv(tmp_path, lq_problem, lq_control, grid):
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 4)
    lean = sl.solve_lean_adjoint(lq_problem, lq_control, batch)
    r = sl.lean_am_loss(lq_problem, lq_control, batch, lean)
    out = tmp_path / "losses.csv"
    sl.write_loss_reports_csv([r, r], out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,loss,grad_norm,n_paths"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "4"
