"""Backward adjoint solvers against independent references.

The strongest checks here are exact identities: the first-order adjoint is
the transpose of the forward scheme's linearization, so its a_0 must equal
a forward-mode chain-rule gradient (built locally in this file) to float
precision, with no discretization tolerance involved.  Finite-difference
comparisons then confirm the same thing against code that knows nothing
about adjoints.
"""

import dataclasses

import numpy as np
import pytest

import soc_lab as sl

from conftest import make_mild_feedback


def _total_step_pieces(problem, control, x, u, t):
    """Total-derivative coefficients of one forward step, batch of one.
    A diffusion derivative the bundle leaves as None is read as zero."""
    bundle = problem.derivatives
    d, k, m = problem.d, problem.k, problem.m
    du_dx = np.asarray(control.state_jacobian(x, t), dtype=np.float64)
    jac = bundle.d1_drift(x, u, t) + np.einsum(
        "bic,bcp->bip", bundle.d2_drift(x, u, t), du_dx)
    dsigma_dx = (np.zeros((1, m, d, d)) if bundle.dsigma_dx is None
                 else bundle.dsigma_dx(x, u, t))
    dsigma_du = (np.zeros((1, m, d, k)) if bundle.dsigma_du is None
                 else bundle.dsigma_du(x, u, t))
    g = dsigma_dx + np.einsum("bjic,bcp->bjip", dsigma_du, du_dx)
    grad_f = bundle.d1_cost(x, u, t) + np.einsum(
        "bcp,bc->bp", du_dx, bundle.d2_cost(x, u, t))
    return jac[0], g[0], grad_f[0]


def forward_chain_gradient(problem, control, traj, start=0, h_term=None):
    """d(pathwise cost from node `start`)/dX_start by forward accumulation.

    Propagates sensitivity matrices S_i = dX_i/dX_start through the exact
    per-step linearization (drift, diffusion and control feedback, with
    the realized Brownian increments) and accumulates the cost gradient.
    Shares no code with the backward solvers.
    """
    grid = traj.grid
    n, dt = grid.n_steps, grid.dt
    d = problem.d
    s_mat = np.eye(d)
    grad = np.zeros(d)
    for i in range(start, n):
        x = traj.states[None, i]
        u = traj.controls[None, i]
        t = float(grid.nodes[i])
        jac, g, grad_f = _total_step_pieces(problem, control, x, u, t)
        grad += dt * grad_f @ s_mat
        if h_term is not None:
            dh = np.asarray(h_term.grad(x, t), dtype=np.float64)[0]
            grad += (traj.noise.increments[i] @ dh) @ s_mat
        step_jac = np.eye(d) + dt * jac + np.einsum(
            "j,jip->ip", traj.noise.increments[i], g)
        s_mat = step_jac @ s_mat
    term = problem.derivatives.grad_terminal(traj.states[None, n])[0]
    return grad + term @ s_mat


# ---------------------------------------------------------------------------
# anchors and degenerate cases


def test_terminal_anchors(sg_problem, sg_control, grid):
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 0, 3)
    lean = sl.solve_lean_adjoint(sg_problem, sg_control, batch)
    full = sl.solve_first_order_adjoint(sg_problem, sg_control, batch)
    second = sl.solve_second_order_adjoint(sg_problem, sg_control, batch,
                                           full)
    want = sg_problem.derivatives.grad_terminal(batch.states[:, -1])
    np.testing.assert_array_equal(lean.values[:, -1], want)
    np.testing.assert_array_equal(full.values[:, -1], want)
    np.testing.assert_array_equal(
        second.values[:, -1],
        sg_problem.derivatives.hess_terminal(batch.states[:, -1]))
    assert lean.values.shape == (3, grid.n_steps + 1, 1)
    assert second.values.shape == (3, grid.n_steps + 1, 1, 1)
    assert lean.kind == "lean" and full.kind == "full"


def test_zero_cost_problem_has_zero_adjoints(zero_cost_problem, grid):
    ctrl = make_mild_feedback(1, 1, 1.0)
    batch = sl.simulate_batch(zero_cost_problem, ctrl, grid, 1, 4)
    lean = sl.solve_lean_adjoint(zero_cost_problem, ctrl, batch)
    full = sl.solve_first_order_adjoint(zero_cost_problem, ctrl, batch)
    second = sl.solve_second_order_adjoint(zero_cost_problem, ctrl, batch,
                                           full)
    np.testing.assert_array_equal(lean.values, 0.0)
    np.testing.assert_array_equal(full.values, 0.0)
    np.testing.assert_array_equal(second.values, 0.0)
    np.testing.assert_array_equal(batch.pathwise_costs, 0.0)


def test_lean_adjoint_closed_form_without_running_cost():
    """With q_run = 0 the lean recursion telescopes to (1+dt a)^(N-i) a_N."""
    prob = sl.make_lq_problem(0.3, 1.0, 0.8, 0.0, 1.0, 1.0)
    ctrl = make_mild_feedback(1, 1, 1.0)
    grid = sl.TimeGrid(128, 1.0)
    batch = sl.simulate_batch(prob, ctrl, grid, 11, 4)
    lean = sl.solve_lean_adjoint(prob, ctrl, batch)
    n = grid.n_steps
    x_n = batch.states[:, -1, 0]
    for i in (0, n // 3, n - 1, n):
        want = (1.0 + grid.dt * 0.3) ** (n - i) * x_n
        np.testing.assert_allclose(lean.values[:, i, 0], want, rtol=1e-12)


def _sweep_d4_case():
    """The benchmark's solver-sweep LQ: d = k = 4, four control pieces."""
    d = 4
    problem = sl.make_lq_problem(
        -0.5 * np.eye(d) + 0.1 * np.eye(d, k=1), np.eye(d), np.eye(d),
        0.5 * np.eye(d), np.eye(d), 1.0)
    piece = np.concatenate([(-0.4 * np.eye(d)).ravel(), np.full(d, 0.05)])
    return problem, sl.make_linear_feedback_control(d, d, 4, 1.0,
                                                    theta=np.tile(piece, 4))


def _case(request, fixture):
    """(problem, control) of a conftest fixture pair or the d = 4 sweep."""
    if fixture == "lq_d4":
        return _sweep_d4_case()
    return (request.getfixturevalue(f"{fixture}_problem"),
            request.getfixturevalue(f"{fixture}_control"))


def test_lean_equals_frozen_full_on_time_only_noise(lq_problem, lq_control,
                                                    grid):
    """With sigma(t) noise and a frozen control the two recursions coincide
    term by term, so the arrays must match bitwise, sign bits included, at
    d = 1 and on the d = 4 sweep."""
    for problem, control in ((lq_problem, lq_control), _sweep_d4_case()):
        batch = sl.simulate_batch(problem, control, grid, 3, 8)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        frozen = sl.freeze_control(control)
        full = sl.solve_first_order_adjoint(problem, frozen, batch)
        np.testing.assert_array_equal(lean.values.view(np.uint64),
                                      full.values.view(np.uint64))


@pytest.mark.parametrize("fixture", ["lq", "sg", "lq_d4"])
def test_frozen_sweeps_skip_du_dx(request, fixture, monkeypatch):
    """A frozen control's du/dx is zero by construction, so the sweeps
    never ask for it: they succeed with state_jacobian made to raise."""
    problem, control = _case(request, fixture)
    batch = sl.simulate_batch(problem, control, sl.TimeGrid(20, 1.0), 5, 4)
    frozen = sl.freeze_control(control)
    want_full = sl.solve_first_order_adjoint(problem, frozen, batch)
    want_second = sl.solve_second_order_adjoint(problem, frozen, batch,
                                                want_full)

    def refuse(self, x, t):
        raise AssertionError("frozen du/dx was asked for")

    monkeypatch.setattr(type(frozen), "state_jacobian", refuse)
    full = sl.solve_first_order_adjoint(problem, frozen, batch)
    second = sl.solve_second_order_adjoint(problem, frozen, batch, full)
    np.testing.assert_array_equal(full.values, want_full.values)
    np.testing.assert_array_equal(second.values, want_second.values)


def test_frozen_control_wrapper(lq_control):
    frozen = sl.freeze_control(lq_control)
    x = np.array([[1.3], [-0.2]])
    np.testing.assert_array_equal(frozen.evaluate(x, 0.2),
                                  lq_control.evaluate(x, 0.2))
    np.testing.assert_array_equal(frozen.state_jacobian(x, 0.2), 0.0)
    du_dtheta, du_dx = frozen.jacobians(x, 0.2)
    np.testing.assert_array_equal(du_dx, 0.0)
    np.testing.assert_array_equal(du_dtheta,
                                  lq_control.jacobians(x, 0.2)[0])
    assert frozen.n_params == lq_control.n_params
    np.testing.assert_array_equal(frozen.theta, lq_control.theta)
    assert frozen.with_theta(lq_control.theta + 1.0).x_hessian_is_zero
    two_pieces = sl.freeze_control(sl.make_linear_feedback_control(1, 1, 2,
                                                                   1.0))
    with pytest.raises(sl.ValidationError, match="state batch"):
        two_pieces.state_jacobian(np.zeros((3, 2)), 0.5)
    with pytest.raises(sl.ValidationError, match="outside control"):
        two_pieces.state_jacobian(np.zeros((3, 1)), 5.0)


def test_frozen_control_changes_no_theta_gradient(lq_problem, lq_control):
    """Losses, per-path gradients, the theta-gradient and the MSA step use
    u and du/dtheta only, so freezing du/dx changes none of them."""
    batch = sl.simulate_batch(lq_problem, lq_control, sl.TimeGrid(20, 1.0),
                              4, 16)
    lean = sl.solve_lean_adjoint(lq_problem, lq_control, batch)
    full = sl.solve_first_order_adjoint(lq_problem, lq_control, batch)
    second = sl.solve_second_order_adjoint(lq_problem, lq_control, batch,
                                           full)
    calls = {
        "theta_gradient": lambda c: sl.theta_gradient_via_adjoint(
            lq_problem, c, batch, full),
        "per_path": lambda c: sl.per_path_lean_am_gradients(
            lq_problem, c, batch, full),
        "lean_am": lambda c: sl.lean_am_loss(
            lq_problem, c, batch, lean).grad_theta,
        "quadratic_am": lambda c: sl.quadratic_am_loss(
            lq_problem, c, batch, lean).grad_theta,
        "bam": lambda c: sl.bam_loss(
            lq_problem, c, batch, full, second).grad_theta,
        "msa": lambda c: sl.msa_exact_step(lq_problem, c, batch, lean),
    }
    frozen = sl.freeze_control(lq_control)
    for name, call in calls.items():
        np.testing.assert_array_equal(call(frozen), call(lq_control),
                                      err_msg=name)


def _with_explicit_zero_sigma_derivatives(problem):
    """`problem` rebuilt with all-zero dsigma_dx / dsigma_du callbacks in
    place of the entries it declares zero (None)."""
    d, k, m = problem.d, problem.k, problem.m
    bundle = dataclasses.replace(
        problem.derivatives,
        dsigma_dx=lambda x, u, t: np.zeros((x.shape[0], m, d, d)),
        dsigma_du=lambda x, u, t: np.zeros((x.shape[0], m, d, k)))
    return sl.make_controlled_diffusion_problem(
        d, k, m, problem.horizon, problem.drift, problem.diffusion,
        problem.running_cost, problem.terminal_cost,
        problem.initial_sampler, bundle, name="explicit_zeros")


@pytest.mark.parametrize("d", (1, 4))
def test_declared_zeros_equal_explicit_zeros(d):
    """Skipping the terms of a None diffusion derivative gives the same
    bits as contracting all-zero arrays, in every solver and loss. d = 1 is
    the built-in CLI problem; d = 4 is the benchmark's solver sweep."""
    if d == 1:
        problem = sl.make_lq_problem(-1.0, 1.0, np.sqrt(2.0), 0.0, 1.0, 5.0)
        control = sl.make_linear_feedback_control(
            1, 1, 10, 5.0, theta=np.tile([-0.4, 0.05], 10))
    else:
        problem, control = _sweep_d4_case()
    assert problem.derivatives.dsigma_dx is None
    assert problem.derivatives.dsigma_du is None
    explicit = _with_explicit_zero_sigma_derivatives(problem)
    grid = sl.TimeGrid(40, problem.horizon)
    frozen = sl.freeze_control(control)

    def outputs(prob):
        batch = sl.simulate_batch(prob, control, grid, 6, 32)
        lean = sl.solve_lean_adjoint(prob, control, batch)
        full = sl.solve_first_order_adjoint(prob, control, batch)
        frozen_full = sl.solve_first_order_adjoint(prob, frozen, batch)
        frozen_second = sl.solve_second_order_adjoint(prob, frozen, batch,
                                                      frozen_full)
        return {
            "states": batch.states, "lean": lean.values,
            "full": full.values, "frozen_full": frozen_full.values,
            "second": sl.solve_second_order_adjoint(prob, control, batch,
                                                    full).values,
            "frozen_second": frozen_second.values,
            "theta_gradient": sl.theta_gradient_via_adjoint(prob, control,
                                                            batch, full),
            "lean_am": sl.lean_am_loss(prob, control, batch,
                                       lean).grad_theta,
            "quadratic_am": sl.quadratic_am_loss(prob, control, batch,
                                                 lean).grad_theta,
            "bam": sl.bam_loss(prob, control, batch, frozen_full,
                               frozen_second).grad_theta,
            "per_path": sl.per_path_lean_am_gradients(prob, control, batch,
                                                      lean),
            "msa": sl.msa_exact_step(prob, control, batch, lean),
        }

    declared, contracted = outputs(problem), outputs(explicit)
    for name, value in declared.items():
        np.testing.assert_array_equal(value, contracted[name], err_msg=name)


# ---------------------------------------------------------------------------
# the transpose identity, exactly and against finite differences


@pytest.mark.parametrize("fixture", ["sg", "lq"])
def test_full_adjoint_equals_forward_chain_rule(request, fixture):
    """a_i must equal the forward-accumulated gradient to float precision."""
    problem = request.getfixturevalue(f"{fixture}_problem")
    control = request.getfixturevalue(f"{fixture}_control")
    grid = sl.TimeGrid(60, 1.0)
    batch = sl.simulate_batch(problem, control, grid, 21, 3)
    full = sl.solve_first_order_adjoint(problem, control, batch)
    for p in range(3):
        traj = batch[p]
        for start in (0, grid.n_steps // 2):
            want = forward_chain_gradient(problem, control, traj,
                                          start=start)
            np.testing.assert_allclose(full.values[p, start], want,
                                       rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("fixture", ["sg", "lq"])
def test_full_adjoint_matches_fd_gradient(request, fixture):
    """a_0 vs central finite differences of the simulated cost itself."""
    problem = request.getfixturevalue(f"{fixture}_problem")
    control = request.getfixturevalue(f"{fixture}_control")
    grid = sl.TimeGrid(500, 1.0)
    batch = sl.simulate_batch(problem, control, grid, 7, 4)
    full = sl.solve_first_order_adjoint(problem, control, batch)
    for p in range(4):
        traj = batch[p]
        fd = sl.fd_pathwise_gradient(problem, control, grid, traj.noise,
                                     traj.x0)
        gap = np.max(np.abs(full.values[p, 0] - fd))
        assert gap <= 1e-6, f"path {p}: |a_0 - fd| = {gap}"


def test_h_term_coupled_adjoint_matches_fd(sg_problem, sg_control):
    """The noise-coupled running term enters at the left endpoint."""
    h = sl.HTerm(
        value=lambda x, t: np.sin(x[:, :1]) + 0.3 * t,
        grad=lambda x, t: np.cos(x)[:, None, :],
    )
    grid = sl.TimeGrid(400, 1.0)
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 13, 3)
    full = sl.solve_first_order_adjoint(sg_problem, sg_control, batch,
                                        h_term=h)
    assert full.kind == "full_with_h"
    for p in range(3):
        traj = batch[p]
        fd = sl.fd_pathwise_gradient(sg_problem, sg_control, grid,
                                     traj.noise, traj.x0, h_term=h)
        assert np.max(np.abs(full.values[p, 0] - fd)) <= 1e-6
        want = forward_chain_gradient(sg_problem, sg_control, traj,
                                      h_term=h)
        np.testing.assert_allclose(full.values[p, 0], want, rtol=1e-11)


def test_h_term_without_grad_is_rejected(sg_problem, sg_control, grid):
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 0, 1)
    h = sl.HTerm(value=lambda x, t: x[:, :1])
    with pytest.raises(sl.ValidationError):
        sl.solve_first_order_adjoint(sg_problem, sg_control, batch, h_term=h)


# ---------------------------------------------------------------------------
# second order


def test_second_order_matches_fd_hessian(sg_problem, sg_control):
    grid = sl.TimeGrid(400, 1.0)
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 5, 2)
    full = sl.solve_first_order_adjoint(sg_problem, sg_control, batch)
    second = sl.solve_second_order_adjoint(sg_problem, sg_control, batch,
                                           full)
    for p in range(2):
        traj = batch[p]
        fd = sl.fd_pathwise_hessian(sg_problem, sg_control, grid,
                                    traj.noise, traj.x0)
        gap = np.max(np.abs(second.values[p, 0] - fd))
        # the quadratic-increment martingale term is replaced by its
        # conditional mean, so this identity is O(sqrt(dt)), not exact
        assert gap <= 1e-2, f"path {p}: |A_0 - fd| = {gap}"


def test_second_order_is_deterministic_on_lq(lq_problem, lq_control, grid):
    """Linear dynamics + sigma(t) kill every stochastic term in the matrix
    recursion, so A is path-independent and solves a discrete Lyapunov
    recursion that a five-line loop can reproduce."""
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 9, 4)
    full = sl.solve_first_order_adjoint(lq_problem, lq_control, batch)
    second = sl.solve_second_order_adjoint(lq_problem, lq_control, batch,
                                           full)
    for p in range(1, 4):
        np.testing.assert_array_equal(second.values[p], second.values[0])
    jac = 0.3 + 1.0 * (-0.4)          # a + b K
    hess = 0.5 + (-0.4) * (-0.4)      # q_run + K' f_uu K
    a_val = 1.0                       # q_term
    np.testing.assert_allclose(second.values[0, -1, 0, 0], a_val)
    for i in range(grid.n_steps - 1, -1, -1):
        a_val = a_val + grid.dt * (2.0 * jac * a_val + hess)
        np.testing.assert_allclose(second.values[0, i, 0, 0], a_val,
                                   rtol=1e-12)


def test_second_order_requires_bundle(lq_problem, lq_control, grid):
    import dataclasses
    stripped = dataclasses.replace(
        lq_problem,
        derivatives=dataclasses.replace(lq_problem.derivatives,
                                        second_order=None))
    batch = sl.simulate_batch(stripped, lq_control, grid, 0, 1)
    full = sl.solve_first_order_adjoint(stripped, lq_control, batch)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.solve_second_order_adjoint(stripped, lq_control, batch, full)


# ---------------------------------------------------------------------------
# the sweeps' matrix products against their einsum forms


def _einsum_first_order(problem, control, x, u, t):
    """The total-derivative coefficients as einsums, du/dx always asked
    for and contracted (zeros for a frozen control)."""
    bundle = problem.derivatives
    du_dx = np.asarray(control.state_jacobian(x, t), dtype=np.float64)
    jac_x = bundle.d1_drift(x, u, t) + np.einsum(
        "bic,bcp->bip", bundle.d2_drift(x, u, t), du_dx)
    grad_f = bundle.d1_cost(x, u, t) + np.einsum(
        "bcp,bc->bp", du_dx, bundle.d2_cost(x, u, t))
    g = (None if bundle.dsigma_dx is None
         else np.asarray(bundle.dsigma_dx(x, u, t), dtype=np.float64))
    if bundle.dsigma_du is not None:
        coupled = np.einsum("bjic,bcp->bjip", bundle.dsigma_du(x, u, t), du_dx)
        g = coupled if g is None else g + coupled
    return jac_x, grad_f, g, du_dx


def _einsum_hessian(lead, xx, xu, uu, du_dx):
    terms = [] if xx is None else [xx]
    if xu is not None:
        mixed = np.einsum(f"b{lead}pc,bcq->b{lead}pq", xu, du_dx)
        terms += [mixed, np.swapaxes(mixed, -1, -2)]
    if uu is not None:
        terms.append(np.einsum(f"bcp,b{lead}ce,beq->b{lead}pq",
                               du_dx, uu, du_dx))
    return sum(terms[1:], terms[0]) if terms else None


def _einsum_sweep(batch, anchor, step):
    """values[:, n] = anchor(X_N), values[:, i] = step(i, ..., values[:, i+1])."""
    grid = batch.grid
    values = [anchor(batch.states[:, -1])]
    for i in range(grid.n_steps - 1, -1, -1):
        values.append(step(i, batch.states[:, i], batch.controls[:, i],
                           float(grid.nodes[i]), batch.increments[:, i],
                           values[-1]))
    return np.stack(values[::-1], axis=1)


def _einsum_full(problem, control, batch):
    dt = batch.grid.dt

    def step(i, x, u, t, db, a):
        jac_x, grad_f, g, _ = _einsum_first_order(problem, control, x, u, t)
        a_new = a + dt * (np.einsum("bip,bi->bp", jac_x, a) + grad_f)
        if g is None:
            return a_new
        return a_new + np.einsum("bjp,bj->bp",
                                 np.einsum("bjip,bi->bjp", g, a), db)

    return _einsum_sweep(batch, problem.derivatives.grad_terminal, step)


def _einsum_second_order(problem, control, batch, first):
    so, dt = problem.derivatives.second_order, batch.grid.dt

    def symmetric(a_mat):
        return 0.5 * (a_mat + a_mat.transpose(0, 2, 1))

    def hessians(x, u, t, du_dx):
        def entry(fn):
            return (None if fn is None
                    else np.asarray(fn(x, u, t), dtype=np.float64))
        return [_einsum_hessian(lead, entry(xx), entry(xu), entry(uu), du_dx)
                for lead, xx, xu, uu in (
                    ("", so.cost_hess_xx, so.cost_hess_xu, so.cost_hess_uu),
                    ("i", so.drift_hess_xx, so.drift_hess_xu,
                     so.drift_hess_uu),
                    ("ji", so.sigma_hess_xx, so.sigma_hess_xu,
                     so.sigma_hess_uu))]

    def step(i, x, u, t, db, a_mat):
        jac_x, _, g, du_dx = _einsum_first_order(problem, control, x, u, t)
        hess_f, hess_b, hess_s = hessians(x, u, t, du_dx)
        a_vec = first[:, i + 1]
        lyap = (np.einsum("bip,biq->bpq", jac_x, a_mat)
                + np.einsum("bpi,biq->bpq", a_mat, jac_x))
        u_noise = None
        if g is not None:
            a_g = np.einsum("bpr,bjrq->bjpq", a_mat, g)
            lyap = lyap + np.einsum("bjip,bjiq->bpq", g, a_g)
            u_noise = a_g + np.einsum("bjrp,brq->bjpq", g, a_mat)
        if hess_f is not None:
            lyap = lyap + hess_f
        if hess_b is not None:
            lyap = lyap + np.einsum("bi,bipq->bpq", a_vec, hess_b)
        if hess_s is not None:
            a_hs = np.einsum("bi,bjipq->bjpq", a_vec, hess_s)
            if g is not None:
                lyap = lyap + 0.5 * np.einsum("bjpr,bjrq->bpq", a_hs, g)
            u_noise = a_hs if u_noise is None else u_noise + a_hs
        a_new = a_mat + dt * lyap
        if u_noise is not None:
            a_new = a_new + np.einsum("bjpq,bj->bpq", u_noise, db)
        return symmetric(a_new)

    return _einsum_sweep(
        batch, lambda x_n: symmetric(problem.derivatives.hess_terminal(x_n)),
        step)


def _einsum_propagators(problem, batch):
    dt, eye = batch.grid.dt, np.eye(problem.d)

    def step(i, x, u, t, db, phi):
        jac = problem.derivatives.d1_drift(x, u, t)
        return np.einsum("bij,bjk->bik", phi, eye + dt * jac)

    return _einsum_sweep(
        batch, lambda x_n: np.broadcast_to(eye, (len(x_n),) + eye.shape),
        step)


@pytest.mark.parametrize("fixture", ["lq", "sg", "lq_d4"])
def test_matrix_products_match_einsum_forms(request, fixture):
    """The sweeps' batched products (matmul, or `_dot`'s broadcast product
    at an inner dimension of 1) and the frozen control's skipped du/dx
    against every step written out as einsums with du/dx contracted. At
    d = 1 (and the scalar geometric problem's G branch) the bits agree,
    sign bits included; at d = 4 matmul re-associates the sums, so the
    arrays agree to 1e-14 of their largest entry."""
    problem, control = _case(request, fixture)
    batch = sl.simulate_batch(problem, control, sl.TimeGrid(30, 1.0), 8, 16)
    got, want = {}, {}
    for tag, ctrl in (("", control), ("frozen ", sl.freeze_control(control))):
        full = sl.solve_first_order_adjoint(problem, ctrl, batch)
        got[tag + "full"] = full.values
        want[tag + "full"] = _einsum_full(problem, ctrl, batch)
        got[tag + "second"] = sl.solve_second_order_adjoint(
            problem, ctrl, batch, full).values
        want[tag + "second"] = _einsum_second_order(problem, ctrl, batch,
                                                    full.values)
    got["propagators"] = sl.fundamental_matrix(problem, control,
                                               batch).matrices
    want["propagators"] = _einsum_propagators(problem, batch)
    for name, value in got.items():
        if problem.d == 1:
            np.testing.assert_array_equal(value.view(np.uint64),
                                          want[name].view(np.uint64),
                                          err_msg=name)
        else:
            scale = np.max(np.abs(want[name]))
            np.testing.assert_allclose(value, want[name], rtol=0.0,
                                       atol=1e-14 * scale, err_msg=name)


# ---------------------------------------------------------------------------
# propagators and the reconstruction identity


def test_propagator_terminal_identity_and_exponential(zero_cost_problem):
    """For the constant Jacobian 0.5 the flow product converges to e^0.5."""
    ctrl = make_mild_feedback(1, 1, 1.0, scale=0.2, offset=0.0)
    grid = sl.TimeGrid(4000, 1.0)
    batch = sl.simulate_batch(zero_cost_problem, ctrl, grid, 0, 1)
    props = sl.fundamental_matrix(zero_cost_problem, ctrl, batch)
    np.testing.assert_array_equal(props.matrices[:, -1], np.eye(1)[None])
    assert props.matrices[0, 0, 0, 0] == pytest.approx(np.exp(0.5),
                                                       abs=1e-3)
    # interior node: Phi_i ~ exp(0.5 * (T - t_i))
    mid = grid.n_steps // 2
    assert props.matrices[0, mid, 0, 0] == pytest.approx(np.exp(0.25),
                                                         abs=1e-3)


def test_feynman_kac_reconstructs_lean(lq_problem, lq_control,
                                       sg_problem, sg_control, grid):
    for problem, control in ((lq_problem, lq_control),
                             (sg_problem, sg_control)):
        batch = sl.simulate_batch(problem, control, grid, 17, 8)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        props = sl.fundamental_matrix(problem, control, batch)
        fk = sl.feynman_kac_lean(problem, control, batch, props)
        gap = np.max(np.abs(fk.values - lean.values))
        assert gap <= 1e-10, f"{problem.name}: max gap {gap}"


def test_feynman_kac_2d(lq_2d_problem, grid):
    ctrl = make_mild_feedback(2, 1, 1.0)
    batch = sl.simulate_batch(lq_2d_problem, ctrl, grid, 2, 4)
    lean = sl.solve_lean_adjoint(lq_2d_problem, ctrl, batch)
    props = sl.fundamental_matrix(lq_2d_problem, ctrl, batch)
    fk = sl.feynman_kac_lean(lq_2d_problem, ctrl, batch, props)
    np.testing.assert_allclose(fk.values, lean.values, atol=1e-10)


# ---------------------------------------------------------------------------
# parameter gradients


@pytest.mark.parametrize("fixture", ["sg", "lq"])
def test_theta_gradient_matches_fd(request, fixture):
    problem = request.getfixturevalue(f"{fixture}_problem")
    control = request.getfixturevalue(f"{fixture}_control")
    grid = sl.TimeGrid(300, 1.0)
    batch = sl.simulate_batch(problem, control, grid, 29, 2)
    full = sl.solve_first_order_adjoint(problem, control, batch)
    grads = sl.theta_gradient_via_adjoint(problem, control, batch, full)
    step = 1e-6
    for p in range(2):
        traj = batch[p]
        fd = np.zeros(control.n_params)
        for q in range(control.n_params):
            bump = np.zeros(control.n_params)
            bump[q] = step
            up = sl.pathwise_value(problem,
                                   control.with_theta(control.theta + bump),
                                   grid, traj.noise, traj.x0)
            dn = sl.pathwise_value(problem,
                                   control.with_theta(control.theta - bump),
                                   grid, traj.noise, traj.x0)
            fd[q] = (up - dn) / (2.0 * step)
        np.testing.assert_allclose(grads[p], fd, rtol=2e-6, atol=1e-8)


def test_theta_gradient_single_trajectory_matches_batch(sg_problem,
                                                        sg_control, grid):
    batch = sl.simulate_batch(sg_problem, sg_control, grid, 4, 3)
    full = sl.solve_first_order_adjoint(sg_problem, sg_control, batch)
    grads = sl.theta_gradient_via_adjoint(sg_problem, sg_control, batch,
                                          full)
    one = sl.theta_gradient_via_adjoint(sg_problem, sg_control, batch[1],
                                        full[1])
    assert one.shape == (sg_control.n_params,)
    np.testing.assert_allclose(one, grads[1], rtol=1e-12)


# ---------------------------------------------------------------------------
# batch layout


def _solve_all(problem, control, batch):
    """Values of every backward solver, plus the direct theta-gradient."""
    lean = sl.solve_lean_adjoint(problem, control, batch)
    full = sl.solve_first_order_adjoint(problem, control, batch)
    second = sl.solve_second_order_adjoint(problem, control, batch, full)
    props = sl.fundamental_matrix(problem, control, batch)
    fk = sl.feynman_kac_lean(problem, control, batch, props)
    return {"lean": lean.values, "full": full.values,
            "second_order": second.values, "propagator": props.matrices,
            "feynman_kac": fk.values,
            "theta_grad": sl.theta_gradient_via_adjoint(problem, control,
                                                        batch, full)}


def _layout_case(request, fixture):
    if fixture == "lq_2d":
        problem = request.getfixturevalue("lq_2d_problem")
        return problem, make_mild_feedback(2, 1, 1.0)
    return (request.getfixturevalue(f"{fixture}_problem"),
            request.getfixturevalue(f"{fixture}_control"))


@pytest.mark.parametrize("fixture", ["sg", "lq_2d"])
def test_solver_values_are_time_major_views(request, fixture, grid):
    problem, control = _layout_case(request, fixture)
    batch = sl.simulate_batch(problem, control, grid, 6, 5)
    n, d = grid.n_steps, problem.d
    out = _solve_all(problem, control, batch)
    shapes = {"lean": (5, n + 1, d), "full": (5, n + 1, d),
              "second_order": (5, n + 1, d, d),
              "propagator": (5, n + 1, d, d), "feynman_kac": (5, n + 1, d)}
    for name, shape in shapes.items():
        assert out[name].shape == shape, name
        for i in (0, n // 2, n):
            assert out[name][:, i].flags.c_contiguous, (name, i)


@pytest.mark.parametrize("fixture", ["sg", "lq_2d"])
def test_solvers_ignore_input_layout(request, fixture, grid):
    """Path-major contiguous copies of a batch give bit-identical results."""
    problem, control = _layout_case(request, fixture)
    batch = sl.simulate_batch(problem, control, grid, 6, 5)
    copy = sl.TrajectoryBatch(
        grid=batch.grid, states=np.ascontiguousarray(batch.states),
        controls=np.ascontiguousarray(batch.controls),
        increments=np.ascontiguousarray(batch.increments),
        master_seed=batch.master_seed, x0_seed=batch.x0_seed,
        path_indices=batch.path_indices,
        pathwise_costs=batch.pathwise_costs)
    assert copy.states.flags.c_contiguous
    ref = _solve_all(problem, control, batch)
    out = _solve_all(problem, control, copy)
    for name in ref:
        np.testing.assert_array_equal(out[name], ref[name], err_msg=name)


# ---------------------------------------------------------------------------
# non-finite values in the backward sweeps


@pytest.fixture(scope="module")
def unstable_partials():
    """States stay O(1) under a stabilizing feedback (closed loop -10 x),
    but the partial drift Jacobian is +50: every sweep that ignores the
    feedback grows by 1.5 per step and overflows within 2,000 steps."""
    problem = sl.make_lq_problem(50.0, 1.0, 1.0, 0.0, 1.0, 20.0)
    control = sl.make_linear_feedback_control(1, 1, 1, 20.0,
                                              theta=[-60.0, 0.0])
    batch = sl.simulate_batch(problem, control, sl.TimeGrid(2000, 20.0), 0, 8)
    assert np.max(np.abs(batch.states)) < 1.5
    return problem, control, batch


_OVERFLOWING_SWEEPS = {
    "lean adjoint": lambda p, c, b: sl.solve_lean_adjoint(p, c, b),
    "full adjoint": lambda p, c, b: sl.solve_first_order_adjoint(
        p, sl.freeze_control(c), b),
    "second-order adjoint": lambda p, c, b: sl.solve_second_order_adjoint(
        p, sl.freeze_control(c), b, sl.solve_first_order_adjoint(p, c, b)),
    "fundamental matrix": lambda p, c, b: sl.fundamental_matrix(p, c, b),
}


@pytest.mark.parametrize("solver", sorted(_OVERFLOWING_SWEEPS))
def test_backward_sweeps_reject_non_finite_values(unstable_partials, solver):
    problem, control, batch = unstable_partials
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(sl.SimulationError) as err:
        _OVERFLOWING_SWEEPS[solver](problem, control, batch)
    assert str(err.value).startswith(f"{solver} became non-finite at step ")
    assert 0 <= err.value.step_index < batch.grid.n_steps
    assert err.value.path_index in batch.path_indices


def test_total_derivative_adjoint_survives_unstable_partials(
        unstable_partials):
    problem, control, batch = unstable_partials
    full = sl.solve_first_order_adjoint(problem, control, batch)
    assert np.all(np.isfinite(full.values))


def test_feynman_kac_names_first_non_finite_node(lq_problem, lq_control,
                                                 grid):
    """The error names the first bad node in backward order: a corrupt
    propagator at node 10 of path 3 poisons every earlier node too."""
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 6)
    props = sl.fundamental_matrix(lq_problem, lq_control, batch)
    props.matrices[3, 10] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(sl.SimulationError) as err:
        sl.feynman_kac_lean(lq_problem, lq_control, batch, props)
    assert str(err.value) == ("Feynman-Kac lean adjoint became non-finite "
                              "at step 10 (path 3)")
    assert (err.value.step_index, err.value.path_index) == (10, 3)


# ---------------------------------------------------------------------------
# containers and output


def test_adjoint_batch_indexing(lq_problem, lq_control, grid):
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 5)
    lean = sl.solve_lean_adjoint(lq_problem, lq_control, batch)
    assert len(lean) == 5
    path = lean[2]
    np.testing.assert_array_equal(path.values, lean.values[2])
    assert path.kind == "lean"
    assert sum(1 for _ in lean) == 5


def test_adjoints_csv(tmp_path, lq_problem, lq_control):
    grid = sl.TimeGrid(3, 1.0)
    batch = sl.simulate_batch(lq_problem, lq_control, grid, 0, 3)
    lean = sl.solve_lean_adjoint(lq_problem, lq_control, batch)
    out = tmp_path / "adj.csv"
    sl.write_adjoints_csv(lean, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,i,t,a_0"
    assert len(lines) == 1 + 3 * (grid.n_steps + 1)
    # one path of a batch keeps its batch row as its label
    sl.write_adjoints_csv(lean[2], out)
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == grid.n_steps + 1
    assert all(row.startswith("2,") for row in rows)
    assert rows == lines[1 + 2 * (grid.n_steps + 1):]


@pytest.mark.parametrize("solver", ["lean", "second_order", "propagator"])
def test_one_path_result_is_its_batch_row(lq_problem, lq_control, grid,
                                          solver):
    """Solving one Trajectory gives row 0 of the batch of one, as the same
    class; a path neither has a length nor indexes further."""
    def solve(traj):
        if solver == "propagator":
            return sl.fundamental_matrix(lq_problem, lq_control, traj)
        full = sl.solve_first_order_adjoint(lq_problem, lq_control, traj)
        if solver == "second_order":
            return sl.solve_second_order_adjoint(lq_problem, lq_control,
                                                 traj, full)
        return sl.solve_lean_adjoint(lq_problem, lq_control, traj)

    one = sl.simulate_batch(lq_problem, lq_control, grid, 0, 1)
    batch, path = solve(one), solve(one[0])
    assert type(path) is type(batch)
    assert batch.row is None and path.row == 0
    assert getattr(path, "kind", None) == getattr(batch, "kind", None)
    attr = "matrices" if solver == "propagator" else "values"
    np.testing.assert_array_equal(getattr(path, attr),
                                  getattr(batch, attr)[0])
    np.testing.assert_array_equal(getattr(batch[-1], attr),
                                  getattr(batch, attr)[0])
    with pytest.raises(TypeError):
        len(path)
    with pytest.raises(IndexError):
        batch[1]


def test_adjoints_csv_of_one_path_equals_its_batch_of_one(
        tmp_path, lq_problem, lq_control):
    grid = sl.TimeGrid(5, 1.0)
    one = sl.simulate_batch(lq_problem, lq_control, grid, 0, 1)
    for solve in (sl.solve_lean_adjoint, lambda p, c, traj:
                  sl.solve_second_order_adjoint(
                      p, c, traj, sl.solve_first_order_adjoint(p, c, traj))):
        written = []
        for traj in (one, one[0]):
            out = tmp_path / "adj.csv"
            sl.write_adjoints_csv(solve(lq_problem, lq_control, traj), out)
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"\n") == 1 + grid.n_steps + 1
