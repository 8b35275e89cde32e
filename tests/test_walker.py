"""The frozen-batch walker against a one-node-at-a-time reference.

The walks after the rollout (the three matching losses, the per-path
lean-AM gradients, the theta-gradient and the MSA step) all run through
`adjoint._walk`. It hands every callback a chunk of grid nodes at once
when the problem is time-homogeneous and the control affine, and the
walks contract du/dtheta in `node_chunk`'s factored form. The references
below visit one node at a time, through `evaluate` and `jacobians`' dense
(B, k, P) du/dtheta, and contract that dense block over every column, as
the walks did before chunking and factoring.
"""

import numpy as np
import pytest

import soc_lab as sl
from soc_lab import adjoint, cli

N_STEPS, N_PATHS = 75, 40


def _nodes(control, batch):
    """(i, t, X_i, u re-evaluated, dense du/dtheta) at every node, one by
    one."""
    for i, t in enumerate(batch.grid.nodes[:-1].tolist()):
        x = batch.states[:, i]
        yield i, t, x, control.evaluate(x, t), control.jacobians(x, t)[0]


def _lean_v(problem, x, u, t, a):
    bundle = problem.derivatives
    return bundle.d2_cost(x, u, t) + np.einsum("bic,bi->bc",
                                               bundle.d2_drift(x, u, t), a)


def _reference_loss(kind, problem, control, batch, adjoints, matrix=None):
    dt = batch.grid.dt
    per_time = np.empty(batch.grid.n_steps)
    grad = np.zeros(control.n_params)
    for i, t, x, u, dense in _nodes(control, batch):
        a = adjoints.values[:, i]
        if kind == "quadratic_am":
            v = u + np.einsum("bic,bi->bc", problem.diffusion(x, u, t), a)
            value = 0.5 * np.einsum("bk,bk->b", v, v)
        else:
            v = _lean_v(problem, x, u, t, a)
            value = (problem.running_cost(x, u, t)
                     + np.einsum("bi,bi->b", problem.drift(x, u, t), a))
        if kind == "bam":  # sigma ignores u here: no dsigma_du term
            sigma = problem.diffusion(x, u, t)
            value = value + 0.5 * np.einsum("bij,bej,bie->b", sigma, sigma,
                                            matrix.values[:, i])
        per_time[i] = value.mean()
        grad += dt * np.einsum("bcp,bc->bp", dense, v).mean(axis=0)
    return per_time, grad


def _reference_per_path(problem, control, batch, lean):
    grads = np.zeros((len(batch), control.n_params))
    for i, t, x, u, dense in _nodes(control, batch):
        v = _lean_v(problem, x, u, t, lean.values[:, i])
        grads += batch.grid.dt * np.einsum("bcp,bc->bp", dense, v)
    return grads


def _reference_theta_gradient(problem, control, batch, first):
    grads = np.zeros((len(batch), control.n_params))
    for i, t, x, _, dense in _nodes(control, batch):
        u = batch.controls[:, i]  # the stored control, not re-evaluated
        v = batch.grid.dt * _lean_v(problem, x, u, t, first.values[:, i + 1])
        grads += np.einsum("bcp,bc->bp", dense, v)
    return grads


def _reference_msa(problem, control, batch, lean):
    dt = batch.grid.dt
    normal = np.zeros((control.n_params, control.n_params))
    rhs = np.zeros(control.n_params)
    for i, t, x, u, dense in _nodes(control, batch):
        target = -np.einsum("bic,bi->bc", problem.derivatives.d2_drift(
            x, u, t), lean.values[:, i])
        normal += dt * np.einsum("bcp,bcq->pq", dense, dense)
        rhs += dt * np.einsum("bcp,bc->p", dense, target)
    return np.linalg.solve(normal, rhs)


def _walks(problem, control, batch):
    """Every chunked walk and its reference, as (name, got, want)."""
    lean = sl.solve_lean_adjoint(problem, control, batch)
    frozen = sl.freeze_control(control)
    full = sl.solve_first_order_adjoint(problem, frozen, batch)
    second = sl.solve_second_order_adjoint(problem, frozen, batch, full)
    losses = [("lean_am", sl.lean_am_loss(problem, control, batch, lean),
               (lean,)),
              ("bam", sl.bam_loss(problem, control, batch, full, second),
               (full, second))]
    if problem.k == problem.m:  # quadratic_am_loss needs it
        losses.append(("quadratic_am", sl.quadratic_am_loss(
            problem, control, batch, lean), (lean,)))
    out = []
    for kind, report, args in losses:
        per_time, grad = _reference_loss(kind, problem, control, batch,
                                         *args)
        out += [(f"{kind} per_time_terms", report.per_time_terms, per_time),
                (f"{kind} grad_theta", report.grad_theta, grad)]
        assert report.loss_value == batch.grid.dt * report.per_time_terms.sum()
    theta_grad = _reference_theta_gradient(problem, control, batch, full)
    return out + [
        ("per-path", sl.per_path_lean_am_gradients(problem, control, batch,
                                                   lean),
         _reference_per_path(problem, control, batch, lean)),
        ("theta-gradient", sl.theta_gradient_via_adjoint(problem, control,
                                                         batch, full),
         theta_grad),
        ("theta-gradient, one path", sl.theta_gradient_via_adjoint(
            problem, control, batch[3], full[3]), theta_grad[3]),
        ("msa", sl.msa_exact_step(problem, control, batch, lean),
         _reference_msa(problem, control, batch, lean))]


def _builtin():
    cfg = cli.load_config(None)
    problem = cli.build_problem(cfg)
    control = cli.build_control(cfg, problem)
    return problem, control


def _lq_2d(lq_2d_problem):
    return lq_2d_problem, sl.make_linear_feedback_control(2, 1, 3, 1.0)


@pytest.mark.parametrize("nodes", (7, 1, None),
                         ids=("7-node chunks", "wide blocks", "default"))
@pytest.mark.parametrize("case", ("builtin", "lq_2d"))
def test_chunked_walks_match_the_per_node_walk(case, nodes, lq_2d_problem,
                                               monkeypatch):
    """75 steps in 7-node chunks: the last chunk is short, and the control's
    interval boundaries (every 7.5 or 25 nodes) fall inside chunks. A
    bound below one node's block walks node by node; the default bound
    takes these small batches in one chunk."""
    problem, control = (_builtin() if case == "builtin"
                        else _lq_2d(lq_2d_problem))
    assert problem.time_homogeneous and control.affine
    control = control.with_theta(0.3 * np.random.default_rng(7)
                                 .standard_normal(control.n_params))
    node_block = N_PATHS * control.k * (control.k * control.d + control.k)
    if nodes == 7:
        monkeypatch.setattr(adjoint, "_CHUNK_BLOCK", 7 * node_block)
    elif nodes == 1:
        monkeypatch.setattr(adjoint, "_CHUNK_BLOCK", node_block - 1)
    batch = sl.simulate_batch(problem, control,
                              sl.TimeGrid(N_STEPS, problem.horizon), 5,
                              N_PATHS)
    chunks = [hi - lo for lo, hi, *_ in adjoint._walk(problem, control,
                                                      batch)]
    size = nodes or N_STEPS
    assert chunks == [size] * (N_STEPS // size) + (
        [N_STEPS % size] if N_STEPS % size else [])
    for name, got, want in _walks(problem, control, batch):
        assert got.shape == want.shape, name
        gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert gap <= 1e-14, f"{name}: relative gap {gap:.2e}"


def _lq_d4():
    """The solver-sweep benchmark's LQ, d = k = m = 4, under 4-interval
    feedback at a random theta."""
    d = 4
    problem = sl.make_lq_problem(
        -0.5 * np.eye(d) + 0.1 * np.eye(d, k=1), np.eye(d), np.eye(d),
        0.5 * np.eye(d), np.eye(d), 1.0)
    control = sl.make_linear_feedback_control(d, d, 4, 1.0)
    return problem, control.with_theta(0.3 * np.random.default_rng(8)
                                       .standard_normal(control.n_params))


@pytest.mark.parametrize("nodes", (1, None), ids=("node by node", "default"))
def test_d4_walks_match_the_per_node_walk_bit_for_bit(nodes, monkeypatch):
    """At d = k = 4 a component's du/dtheta is 5 features where the dense
    reference contracts 80 columns, 75 of them zero. Walked node by node
    or in 10-node chunks, every output has the reference's bits, sign bits
    included."""
    problem, control = _lq_d4()
    if nodes == 1:
        monkeypatch.setattr(adjoint, "_CHUNK_BLOCK", N_PATHS * 4 * 20 - 1)
    batch = sl.simulate_batch(problem, control,
                              sl.TimeGrid(N_STEPS, problem.horizon), 5,
                              N_PATHS)
    assert {hi - lo for lo, hi, *_ in adjoint._walk(
        problem, control, batch)} == ({1} if nodes else {10, 5})
    for name, got, want in _walks(problem, control, batch):
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      want.view(np.uint64), err_msg=name)


def _time_dependent_problem():
    """dX = (-X + u + t) dt + 0.5 dB, f = 0.5 x^2 + 0.5 u^2, g = 0.5 x^2:
    the drift reads t."""

    def ones(x):
        return np.ones((x.shape[0], 1, 1))

    bundle = sl.DerivativeBundle(
        d1_drift=lambda x, u, t: -ones(x),
        d2_drift=lambda x, u, t: ones(x),
        d1_cost=lambda x, u, t: np.array(x, dtype=np.float64),
        d2_cost=lambda x, u, t: np.array(u, dtype=np.float64),
        grad_terminal=lambda x: np.array(x, dtype=np.float64),
        hess_terminal=lambda x: ones(x),
        second_order=sl.SecondOrderBundle(
            cost_hess_xx=lambda x, u, t: ones(x),
            cost_hess_uu=lambda x, u, t: ones(x)))
    return sl.make_controlled_diffusion_problem(
        d=1, k=1, m=1, horizon=1.0,
        drift=lambda x, u, t: -x + u + t,
        diffusion=lambda x, u, t: np.full((x.shape[0], 1, 1), 0.5),
        running_cost=lambda x, u, t: 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2),
        terminal_cost=lambda x: 0.5 * x[:, 0] ** 2,
        initial_sampler=lambda seed, path: np.array([0.5]),
        derivatives=bundle, name="drift_reads_t")


def test_time_homogeneous_probe(lq_problem, ou_problem, sg_problem,
                                zero_cost_problem):
    for problem in (lq_problem, ou_problem, sg_problem, zero_cost_problem):
        assert problem.time_homogeneous, problem.name
    timed = _time_dependent_problem()
    assert not timed.time_homogeneous
    assert timed.control_affine_quadratic


def test_time_dependent_problem_walks_one_node_at_a_time():
    """A drift that reads t gets one node per chunk, and every walk is
    bit for bit the per-node one."""
    problem = _time_dependent_problem()
    control = sl.make_linear_feedback_control(1, 1, 3, 1.0, theta=[
        -0.4, 0.1, -0.2, 0.0, 0.3, -0.1])
    batch = sl.simulate_batch(problem, control, sl.TimeGrid(N_STEPS, 1.0),
                              5, N_PATHS)
    assert [hi - lo for lo, hi, *_ in adjoint._walk(
        problem, control, batch)] == [1] * N_STEPS
    for name, got, want in _walks(problem, control, batch):
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_non_affine_control_walks_one_node_at_a_time(lq_problem):
    control = sl.make_one_hidden_layer_control(1, 1, 3, 1.0, theta=0.2 * (
        np.random.default_rng(3).standard_normal(3 * 5 + 1)))
    batch = sl.simulate_batch(lq_problem, control, sl.TimeGrid(20, 1.0), 5,
                              N_PATHS)
    assert {hi - lo for lo, hi, *_ in adjoint._walk(
        lq_problem, control, batch)} == {1}
    lean = sl.solve_lean_adjoint(lq_problem, control, batch)
    per_time, grad = _reference_loss("lean_am", lq_problem, control, batch,
                                     lean)
    report = sl.lean_am_loss(lq_problem, control, batch, lean)
    np.testing.assert_array_equal(report.per_time_terms, per_time)
    np.testing.assert_array_equal(report.grad_theta, grad)


def test_theta_gradient_walk_does_not_evaluate_u(lq_problem, monkeypatch):
    """The theta-gradient uses the stored u_i, so its walk never asks the
    control for u; the other walks still do."""
    control = sl.make_linear_feedback_control(1, 1, 4, 1.0,
                                              theta=np.full(8, 0.3))
    batch = sl.simulate_batch(lq_problem, control, sl.TimeGrid(N_STEPS, 1.0),
                              3, N_PATHS)
    full = sl.solve_first_order_adjoint(lq_problem, control, batch)
    want = _reference_theta_gradient(lq_problem, control, batch, full)
    calls = []
    for name in ("_u", "_chunk_u"):
        monkeypatch.setattr(control, name,
                            lambda *a, _f=getattr(control, name):
                            calls.append(1) or _f(*a))
    got = sl.theta_gradient_via_adjoint(lq_problem, control, batch, full)
    np.testing.assert_array_equal(got, want)
    assert not calls
    sl.per_path_lean_am_gradients(lq_problem, control, batch, full)
    assert calls
