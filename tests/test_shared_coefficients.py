"""Coefficients shared by every path are contracted once for the batch.

The LQ builder returns its constant matrices (A, B, sigma, the cost
Hessians) as `np.broadcast_to` views, whose batch axis has stride 0, and
an affine control's du/dx is one too. The rollout, the sweeps and the
walks then contract one matrix for the whole batch instead of one per
path. A twin problem whose callbacks return contiguous copies takes the
per-path contractions, so comparing the two checks one route against the
other.
"""

import dataclasses

import numpy as np
import pytest

import soc_lab as sl

N_STEPS = 20
N_PATHS = 48


def _dense_lq(k, m):
    """A d = 4 LQ with dense random A, B (4 x k), sigma (4 x m) and
    cost matrices."""
    rng = np.random.default_rng(20261019 + 10 * k + m)
    d = 4
    a = -0.5 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
    root_run, root_term = rng.standard_normal((2, d, d))
    return sl.make_lq_problem(
        a_mat=a, b_mat=rng.standard_normal((d, k)),
        sigma=0.5 * rng.standard_normal((d, m)),
        q_run=root_run @ root_run.T / d, q_term=root_term @ root_term.T / d,
        horizon=1.0)


def _dense_control(problem):
    rng = np.random.default_rng(7)
    control = sl.make_linear_feedback_control(problem.d, problem.k, 2,
                                              problem.horizon)
    return control.with_theta(0.3 * rng.standard_normal(control.n_params))


def _copied(problem):
    """`problem` with every callback's array copied to fresh memory, so
    no coefficient has a stride-0 batch axis."""

    def fresh(fn):
        if fn is None:
            return None
        return lambda *args: np.ascontiguousarray(fn(*args))

    def copied(bundle):
        return dataclasses.replace(bundle, **{
            f.name: fresh(getattr(bundle, f.name))
            for f in dataclasses.fields(bundle)
            if f.name != "second_order"})

    bundle = copied(problem.derivatives)
    bundle = dataclasses.replace(
        bundle, second_order=copied(problem.derivatives.second_order))
    return dataclasses.replace(problem, diffusion=fresh(problem.diffusion),
                               derivatives=bundle)


def _outputs(problem, control):
    """Every solver, loss, gradient and the MSA step on one batch."""
    grid = sl.TimeGrid(N_STEPS, problem.horizon)
    batch = sl.simulate_batch(problem, control, grid, 11, N_PATHS)
    frozen = sl.freeze_control(control)
    lean = sl.solve_lean_adjoint(problem, control, batch)
    full = sl.solve_first_order_adjoint(problem, control, batch)
    full_frozen = sl.solve_first_order_adjoint(problem, frozen, batch)
    second = sl.solve_second_order_adjoint(problem, control, batch, full)
    second_frozen = sl.solve_second_order_adjoint(problem, frozen, batch,
                                                  full_frozen)
    props = sl.fundamental_matrix(problem, control, batch)
    out = {
        "states": batch.states, "controls": batch.controls,
        "costs": batch.pathwise_costs,
        "fresh costs": sl.sample_pathwise_costs(problem, control, grid, 3,
                                                N_PATHS)[0],
        "lean": lean.values, "full": full.values,
        "full frozen": full_frozen.values, "second": second.values,
        "second frozen": second_frozen.values, "propagators": props.matrices,
        "feynman-kac": sl.feynman_kac_lean(problem, control, batch,
                                           props).values,
        "theta gradient": sl.theta_gradient_via_adjoint(problem, control,
                                                        batch, full),
        "per-path": sl.per_path_lean_am_gradients(problem, control, batch,
                                                  lean),
        "msa": sl.msa_exact_step(problem, control, batch, lean),
    }
    for name, loss in (("lean_am", sl.lean_am_loss(problem, control, batch,
                                                   lean)),
                       ("bam", sl.bam_loss(problem, control, batch,
                                           full_frozen, second_frozen))):
        out[name] = loss.grad_theta
        out[name + " terms"] = loss.per_time_terms
    if problem.k == problem.m:
        loss = sl.quadratic_am_loss(problem, control, batch, lean)
        out["quadratic_am"] = loss.grad_theta
        out["quadratic_am terms"] = loss.per_time_terms
    return out


@pytest.mark.parametrize("k, m", ((2, 3), (3, 3)))
def test_shared_and_per_path_routes_agree_on_dense_matrices(k, m):
    """Dense d = 4 matrices sum in another order through one shared
    product than path by path: every output agrees to 1e-14 of its
    largest entry."""
    problem = _dense_lq(k, m)
    control = _dense_control(problem)
    assert problem.derivatives.d1_drift(
        np.zeros((3, 4)), np.zeros((3, k)), 0.0).strides[0] == 0
    shared, per_path = (_outputs(problem, control),
                        _outputs(_copied(problem), control))
    assert shared.keys() == per_path.keys()
    for name, want in per_path.items():
        got = shared[name]
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, name


@pytest.mark.parametrize("case", ("lq_problem", "ou_problem"))
def test_shared_route_keeps_the_bits_at_d1(case, request):
    """At d = 1 the shared product is the per-path one-term sum: every
    output has the per-path route's bits, sign bits included."""
    problem = request.getfixturevalue(case)
    control = _dense_control(problem)
    shared, per_path = (_outputs(problem, control),
                        _outputs(_copied(problem), control))
    for name, want in per_path.items():
        np.testing.assert_array_equal(
            np.asarray(shared[name]).view(np.uint64), want.view(np.uint64),
            err_msg=name)


def test_batch_row_does_not_change_a_paths_bits():
    """A path's bits do not depend on its row in a product over the
    batch: block sizes and batch sizes give every path the same bits in
    the rollout and in each backward solver."""
    problem = _dense_lq(2, 3)
    control = _dense_control(problem)
    grid = sl.TimeGrid(N_STEPS, problem.horizon)
    blocks = [sl.sample_pathwise_costs(problem, control, grid, 3, 100,
                                       block_size=size) for size in (7, 64)]
    for got, want in zip(*blocks):
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
    frozen = sl.freeze_control(control)

    def solved(n_paths):
        batch = sl.simulate_batch(problem, control, grid, 5, n_paths)
        full = sl.solve_first_order_adjoint(problem, control, batch)
        return {
            "states": batch.states, "costs": batch.pathwise_costs,
            "lean": sl.solve_lean_adjoint(problem, control, batch).values,
            "full": full.values,
            "full frozen": sl.solve_first_order_adjoint(
                problem, frozen, batch).values,
            "second": sl.solve_second_order_adjoint(
                problem, control, batch, full).values,
            "propagators": sl.fundamental_matrix(problem, control,
                                                 batch).matrices}

    small, large = solved(37), solved(100)
    for name, got in small.items():
        np.testing.assert_array_equal(got.view(np.uint64),
                                      large[name][:37].view(np.uint64),
                                      err_msg=name)


# The BAM loss's tr(sigma sigma' A) keeps its three-operand einsum: its
# bits are pinned by test_d4_walks_match_the_per_node_walk_bit_for_bit.
_KEPT_EINSUMS = {"bij,bej,bie->b"}


@pytest.mark.parametrize("k, m", ((2, 3), (3, 3)))
def test_no_einsum_contracts_a_shared_matrix(k, m, monkeypatch):
    """Inside the rollout, the sweeps and the walks no einsum gets an
    operand with a stride-0 axis: a matrix shared by every path goes
    through one product for the batch instead."""
    problem = _dense_lq(k, m)
    control = _dense_control(problem)
    einsum = np.einsum

    def guarded(subscripts, *operands, **kwargs):
        if subscripts not in _KEPT_EINSUMS:
            for op in operands:
                if isinstance(op, np.ndarray) and any(
                        n > 1 and s == 0
                        for n, s in zip(op.shape, op.strides)):
                    raise AssertionError(
                        f"einsum {subscripts!r} got a stride-0 operand "
                        f"{op.shape}")
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", guarded)
    _outputs(problem, control)
