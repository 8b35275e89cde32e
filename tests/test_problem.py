"""Problem construction, derivative validation, and capability probing."""

import dataclasses

import numpy as np
import pytest

import soc_lab as sl

from conftest import build_zero_cost_problem, make_mild_feedback


def test_lq_bundle_passes_validation(lq_problem):
    # The maker already validates; run the public entry point again with a
    # different seed to make sure the bundle holds away from the maker's
    # default probes.
    sl.validate_derivatives(lq_problem, n_probes=16, seed=7)


def test_lq_capability_flags(lq_problem, sg_problem, ou_problem):
    assert lq_problem.diffusion_time_only
    assert lq_problem.control_affine_quadratic
    assert not sg_problem.diffusion_time_only
    assert not sg_problem.control_affine_quadratic
    assert ou_problem.diffusion_time_only
    assert ou_problem.control_affine_quadratic


def test_corrupt_derivative_entry_is_caught(lq_problem):
    """A 1% error in one bundle entry must be named by the validator."""
    bad = dataclasses.replace(
        lq_problem.derivatives,
        d1_drift=lambda x, u, t, _f=lq_problem.derivatives.d1_drift:
            1.01 * _f(x, u, t),
    )
    broken = dataclasses.replace(lq_problem, derivatives=bad)
    with pytest.raises(sl.ValidationError, match="d1_drift"):
        sl.validate_derivatives(broken, n_probes=8)


def test_corrupt_terminal_hessian_is_caught(sg_problem):
    bad = dataclasses.replace(
        sg_problem.derivatives,
        hess_terminal=lambda x: np.full((x.shape[0], 1, 1), 2.5),
    )
    broken = dataclasses.replace(sg_problem, derivatives=bad)
    with pytest.raises(sl.ValidationError, match="hess_terminal"):
        sl.validate_derivatives(broken, n_probes=8)


def test_wrongly_declared_zero_is_caught(sg_problem):
    """sigma = nu x depends on x, so dsigma_dx may not be declared zero."""
    bad = dataclasses.replace(sg_problem.derivatives, dsigma_dx=None)
    broken = dataclasses.replace(sg_problem, derivatives=bad)
    with pytest.raises(sl.ValidationError,
                       match=r"dsigma_dx \(declared zero\)"):
        sl.validate_derivatives(broken, n_probes=8)


def test_scalar_lq_matches_matrix_lq():
    scal = sl.make_lq_problem(0.3, 1.0, 0.8, 0.5, 1.0, 1.0)
    mat = sl.make_lq_problem(np.array([[0.3]]), np.array([[1.0]]),
                             np.array([[0.8]]), np.array([[0.5]]),
                             np.array([[1.0]]), 1.0)
    x = np.array([[1.7], [-0.4]])
    u = np.array([[0.2], [0.9]])
    np.testing.assert_array_equal(scal.drift(x, u, 0.3),
                                  mat.drift(x, u, 0.3))
    np.testing.assert_array_equal(scal.running_cost(x, u, 0.3),
                                  mat.running_cost(x, u, 0.3))
    np.testing.assert_array_equal(scal.lq_data.a_mat, mat.lq_data.a_mat)


def test_lq_cost_values(lq_problem):
    x = np.array([[2.0]])
    u = np.array([[3.0]])
    # 0.5*q_run*x^2 + 0.5*|u|^2 with q_run=0.5
    assert lq_problem.running_cost(x, u, 0.0)[0] == pytest.approx(1.0 + 4.5)
    assert lq_problem.terminal_cost(x)[0] == pytest.approx(2.0)


def test_lq_rejects_bad_inputs():
    with pytest.raises(sl.ValidationError):
        sl.make_lq_problem(0.3, 1.0, 0.8, -0.5, 1.0, 1.0)  # q_run not PSD
    with pytest.raises(sl.ValidationError):
        sl.make_lq_problem(0.3, 1.0, 0.8, 0.5, 1.0, horizon=0.0)
    with pytest.raises(sl.ValidationError):
        sl.make_lq_problem(np.eye(2), np.ones((3, 1)), np.eye(2),
                           np.eye(2), np.eye(2), 1.0)  # b_mat row mismatch
    q_asym = np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(sl.ValidationError):
        sl.make_lq_problem(np.zeros((2, 2)), np.eye(2), np.eye(2),
                           q_asym, np.eye(2), 1.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
@pytest.mark.parametrize("build", [
    lambda h: sl.make_lq_problem(-1.0, 1.0, 1.0, 0.0, 1.0, h),
    lambda h: sl.make_ou_tilt_problem(1.0, 1.0, h),
    lambda h: sl.make_scalar_geometric_problem(horizon=h),
    lambda h: sl.make_linear_feedback_control(1, 1, 1, h),
], ids=["lq", "ou_tilt", "controlled_diffusion", "control"])
def test_non_finite_horizon_is_refused(build, horizon):
    with pytest.raises(sl.ValidationError, match="horizon must be finite"):
        build(horizon)


_NAN = float("nan")


@pytest.mark.parametrize("build, name", [
    (lambda: sl.make_lq_problem(_NAN, 1.0, 1.0, 0.0, 1.0, 1.0), "a_mat"),
    (lambda: sl.make_lq_problem(-1.0, 1.0, [[_NAN]], 0.0, 1.0, 1.0),
     "sigma"),
    (lambda: sl.make_lq_problem(-1.0, 1.0, 1.0, 0.0, 1.0, 1.0,
                                x0_mean=_NAN), "x0_mean"),
    (lambda: sl.make_lq_problem(-1.0, 1.0, 1.0, 0.0, 1.0, 1.0,
                                x0_cov=float("inf")), "x0_cov"),
    (lambda: sl.make_ou_tilt_problem(_NAN, 1.0, 1.0), "rate"),
    (lambda: sl.make_ou_tilt_problem(1.0, _NAN, 1.0), "tilt"),
    (lambda: sl.make_scalar_geometric_problem(nu=_NAN), "nu"),
    (lambda: sl.make_scalar_geometric_problem(x0_std=_NAN), "x0_std"),
], ids=["lq_a", "lq_sigma", "lq_x0_mean", "lq_x0_cov", "ou_rate", "ou_tilt",
        "sg_nu", "sg_x0_std"])
def test_non_finite_parameter_is_named(build, name):
    with pytest.raises(sl.ValidationError, match=f"{name} must be finite"):
        build()


def test_ou_tilt_parameters(ou_problem):
    assert ou_problem.ou_params.rate == 1.0
    assert ou_problem.ou_params.tilt == 1.0
    # drift -rate*x + sqrt(2 rate) u, noise gain sqrt(2 rate)
    x = np.array([[2.0]])
    u = np.array([[0.5]])
    drift = ou_problem.drift(x, u, 0.0)[0, 0]
    assert drift == pytest.approx(-2.0 + np.sqrt(2.0) * 0.5)
    sig = ou_problem.diffusion(x, u, 0.0)
    assert sig.shape == (1, 1, 1)
    assert sig[0, 0, 0] == pytest.approx(np.sqrt(2.0))
    # terminal cost 0.5 * tilt * x^2
    assert ou_problem.terminal_cost(x)[0] == pytest.approx(2.0)
    with pytest.raises(sl.ValidationError):
        sl.make_ou_tilt_problem(0.0, 1.0, 1.0)
    with pytest.raises(sl.ValidationError):
        sl.make_ou_tilt_problem(1.0, -1.0, 1.0)


def test_initial_sampler_keyed_by_seed_and_path(lq_problem):
    a = lq_problem.sample_initial(11, 4)
    b = lq_problem.sample_initial(11, 4)
    c = lq_problem.sample_initial(11, 5)
    d = lq_problem.sample_initial(12, 4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _correlated_lq():
    """d = k = m = 2 LQ with a non-diagonal initial covariance."""
    return sl.make_lq_problem(
        np.array([[0.0, 1.0], [-0.5, -0.2]]), np.eye(2), np.eye(2),
        np.eye(2), np.eye(2), 1.0, x0_mean=[0.2, -0.1],
        x0_cov=[[1.0, 0.3], [0.3, 0.5]])


@pytest.mark.parametrize("name", ["lq_problem", "lq_2d_problem", "ou_problem",
                                  "sg_problem", "correlated"])
def test_batched_initial_draw_matches_per_path(name, request):
    """sample_initial_batch gives sample_initial's bits in every row."""
    problem = (_correlated_lq() if name == "correlated"
               else request.getfixturevalue(name))
    got = problem.sample_initial_batch(8, 1000, 1300)
    want = np.stack([problem.sample_initial(8, p) for p in range(1000, 1300)])
    assert got.shape == (300, problem.d)
    np.testing.assert_array_equal(got, want)
    assert problem.sample_initial_batch(8, 5, 5).shape == (0, problem.d)


def test_batched_initial_draw_checks_its_keys(lq_problem):
    with pytest.raises(sl.ValidationError):
        lq_problem.sample_initial_batch(-1, 0, 3)
    with pytest.raises(sl.ValidationError):
        lq_problem.sample_initial_batch(0, (1 << 48) - 2, (1 << 48) + 1)


@pytest.mark.parametrize("name", ["lq_problem", "ou_problem", "lq_2d_problem"])
def test_lq_callbacks_match_their_matmul_forms(name, request):
    """The built-in LQ callbacks skip matmul when its inner dimension is 1
    (d = k = 1 here, k = 1 on lq_2d); the bits are matmul's."""
    problem = request.getfixturevalue(name)
    lq = problem.lq_data
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, problem.d))
    u = rng.standard_normal((500, problem.k))
    x[:3] = np.array([0.0, -0.0, -1e-300])[:, None]  # signed zeros
    bundle = problem.derivatives
    for got, want in [
            (problem.drift(x, u, 0.2), x @ lq.a_mat.T + u @ lq.b_mat.T),
            (bundle.d1_cost(x, u, 0.2), x @ lq.q_run),
            (bundle.grad_terminal(x), x @ lq.q_term),
            (problem.running_cost(x, u, 0.2),
             0.5 * np.einsum("bi,ij,bj->b", x, lq.q_run, x)
             + 0.5 * np.einsum("bk,bk->b", u, u)),
            (problem.terminal_cost(x),
             0.5 * np.einsum("bi,ij,bj->b", x, lq.q_term, x))]:
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_scalar_geometric_coefficients(sg_problem):
    x = np.array([[1.5]])
    u = np.array([[-0.4]])
    assert sg_problem.drift(x, u, 0.2)[0, 0] == pytest.approx(-0.6)
    assert sg_problem.diffusion(x, u, 0.2)[0, 0, 0] == pytest.approx(0.3)
    assert sg_problem.running_cost(x, u, 0.2)[0] == pytest.approx(0.08)
    assert sg_problem.terminal_cost(x)[0] == pytest.approx(0.25)
    assert sg_problem.derivatives.second_order is not None


def test_custom_problem_probes_flags():
    prob = build_zero_cost_problem()
    assert prob.diffusion_time_only
    assert not prob.control_affine_quadratic
    assert prob.lq_data is None


def test_custom_problem_rejects_wrong_derivatives():
    """make_controlled_diffusion_problem validates the supplied bundle."""

    def drift(x, u, t):
        return -x + u

    def diffusion(x, u, t):
        return np.full((x.shape[0], 1, 1), 0.5)

    def running_cost(x, u, t):
        return 0.5 * np.einsum("bk,bk->b", u, u)

    def terminal_cost(x):
        return np.einsum("bi,bi->b", x, x)

    def initial_sampler(seed, path_index):
        return np.zeros(1)

    bundle = sl.DerivativeBundle(
        d1_drift=lambda x, u, t: np.full((x.shape[0], 1, 1), -1.0),
        d2_drift=lambda x, u, t: np.ones((x.shape[0], 1, 1)),
        d1_cost=lambda x, u, t: np.zeros_like(x),
        d2_cost=lambda x, u, t: np.asarray(u),
        grad_terminal=lambda x: x,  # wrong: should be 2x
        hess_terminal=lambda x: np.full((x.shape[0], 1, 1), 2.0),
        dsigma_dx=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
        dsigma_du=lambda x, u, t: np.zeros((x.shape[0], 1, 1, 1)),
    )
    with pytest.raises(sl.ValidationError, match="grad_terminal"):
        sl.make_controlled_diffusion_problem(
            d=1, k=1, m=1, horizon=1.0, drift=drift, diffusion=diffusion,
            running_cost=running_cost, terminal_cost=terminal_cost,
            initial_sampler=initial_sampler, derivatives=bundle)


def test_custom_problem_rejects_bad_dimensions():
    prob = build_zero_cost_problem()
    with pytest.raises(sl.ValidationError):
        sl.make_controlled_diffusion_problem(
            d=0, k=1, m=1, horizon=1.0, drift=prob.drift,
            diffusion=prob.diffusion, running_cost=prob.running_cost,
            terminal_cost=prob.terminal_cost,
            initial_sampler=prob.initial_sampler,
            derivatives=prob.derivatives)


def test_second_order_none_entries_must_be_zero(lq_2d_problem):
    """Declaring a second derivative as None asserts it vanishes."""
    so = lq_2d_problem.derivatives.second_order
    assert so is not None
    bad_so = dataclasses.replace(
        so,
        cost_hess_xx=None,  # actually Q_run != 0
    )
    bad = dataclasses.replace(lq_2d_problem.derivatives, second_order=bad_so)
    broken = dataclasses.replace(lq_2d_problem, derivatives=bad)
    with pytest.raises(sl.ValidationError, match="cost_hess_xx"):
        sl.validate_derivatives(broken, n_probes=4)


def test_h_term_shapes(lq_problem):
    h = sl.HTerm(
        value=lambda x, t: np.sin(x[:, :1]) + 0.3 * t,
        grad=lambda x, t: np.cos(x)[:, None, :],
    )
    x = np.array([[0.3], [1.1]])
    assert h.value(x, 0.5).shape == (2, 1)
    assert h.grad(x, 0.5).shape == (2, 1, 1)


_SPEC_FIELDS = ("d", "k", "m", "horizon", "drift", "diffusion", "running_cost",
                "terminal_cost", "initial_sampler", "derivatives")


def _fields_of(problem):
    return {name: getattr(problem, name) for name in _SPEC_FIELDS}


def test_directly_built_spec_probes_its_flags(sg_problem):
    """sigma = nu x depends on the state even without a builder, so the
    methods that need time-only noise refuse the spec."""
    spec = sl.ProblemSpec(**_fields_of(sg_problem))
    assert not spec.diffusion_time_only
    assert not spec.control_affine_quadratic
    ctrl = make_mild_feedback(1, 1, 1.0)
    batch = sl.simulate_batch(spec, ctrl, sl.TimeGrid(10, 1.0), 0, 4)
    lean = sl.solve_lean_adjoint(spec, ctrl, batch)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.quadratic_am_loss(spec, ctrl, batch, lean)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.msa_exact_step(spec, ctrl, batch, lean)


@pytest.mark.parametrize("flag", ["diffusion_time_only",
                                  "control_affine_quadratic",
                                  "time_homogeneous",
                                  "diffusion_ignores_control"])
def test_flags_cannot_be_declared(sg_problem, flag):
    with pytest.raises(TypeError, match=flag):
        sl.ProblemSpec(**_fields_of(sg_problem), **{flag: True})
    with pytest.raises(ValueError, match=flag):
        dataclasses.replace(sg_problem, **{flag: True})


def test_replaced_spec_probes_its_flags_again(lq_problem):
    copy = dataclasses.replace(lq_problem,
                               diffusion=lambda x, u, t: 0.8 * x[:, :, None])
    assert not copy.diffusion_time_only
    assert not copy.control_affine_quadratic
    assert lq_problem.time_homogeneous
    timed = dataclasses.replace(
        lq_problem, drift=lambda x, u, t: lq_problem.drift(x, u, t) + t)
    assert not timed.time_homogeneous


def test_required_entry_left_none_is_refused(lq_problem):
    bad = dataclasses.replace(lq_problem.derivatives, d1_cost=None)
    broken = dataclasses.replace(lq_problem, derivatives=bad)
    with pytest.raises(sl.ValidationError, match="d1_cost is required"):
        sl.validate_derivatives(broken, n_probes=1)


@pytest.mark.parametrize("name, value, match", [
    ("d", 1.5, "d must be an integer"),
    ("k", 0, "k must be >= 1"),
    ("horizon", -1.0, "horizon must be finite and positive"),
])
@pytest.mark.parametrize("build", [sl.ProblemSpec,
                                   sl.make_controlled_diffusion_problem],
                         ids=["spec", "builder"])
def test_spec_checks_sizes_and_horizon(sg_problem, build, name, value, match):
    fields = dict(_fields_of(sg_problem), **{name: value})
    with pytest.raises(sl.ValidationError, match=match):
        build(**fields)
