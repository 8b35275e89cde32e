"""Control families: evaluation, jacobians, serialization."""

import json

import numpy as np
import pytest

import soc_lab as sl

_PROBE_SEED = 202


def _fd_jacobians(control, x, t, step=1e-6):
    """Central differences of evaluate() in theta and in x."""
    theta = control.theta.copy()
    base = np.asarray(control.evaluate(x, t))
    k = base.shape[1]
    d_theta = np.zeros((x.shape[0], k, theta.size))
    for p in range(theta.size):
        bump = np.zeros_like(theta)
        bump[p] = step
        up = np.asarray(control.with_theta(theta + bump).evaluate(x, t))
        dn = np.asarray(control.with_theta(theta - bump).evaluate(x, t))
        d_theta[:, :, p] = (up - dn) / (2.0 * step)
    d_x = np.zeros((x.shape[0], k, x.shape[1]))
    for q in range(x.shape[1]):
        bump = np.zeros_like(x)
        bump[:, q] = step
        up = np.asarray(control.evaluate(x + bump, t))
        dn = np.asarray(control.evaluate(x - bump, t))
        d_x[:, :, q] = (up - dn) / (2.0 * step)
    return d_theta, d_x


def _check_jacobians(control, d, n_probes=5, tol=5e-6):
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(n_probes):
        x = rng.standard_normal((3, d))
        t = float(rng.uniform(0.0, control.horizon))
        du_dtheta, du_dx = control.jacobians(x, t)
        fd_theta, fd_x = _fd_jacobians(control, x, t)
        np.testing.assert_allclose(du_dtheta, fd_theta, atol=tol)
        np.testing.assert_allclose(du_dx, fd_x, atol=tol)
        np.testing.assert_array_equal(control.state_jacobian(x, t), du_dx)


def test_linear_feedback_piecewise_evaluation():
    # two intervals on [0, 2): K_0=1, c_0=0 and K_1=-2, c_1=0.5
    theta = np.array([1.0, 0.0, -2.0, 0.5])
    ctrl = sl.make_linear_feedback_control(1, 1, 2, 2.0, theta=theta)
    x = np.array([[3.0]])
    assert ctrl.evaluate(x, 0.0)[0, 0] == pytest.approx(3.0)
    assert ctrl.evaluate(x, 0.999)[0, 0] == pytest.approx(3.0)
    # boundary t=1.0 belongs to the second interval
    assert ctrl.evaluate(x, 1.0)[0, 0] == pytest.approx(-5.5)
    # t = horizon clamps to the last interval instead of indexing past it
    assert ctrl.evaluate(x, 2.0)[0, 0] == pytest.approx(-5.5)
    # and a time inside the allowed slack below 0 to the first one
    assert ctrl.evaluate(x, -1.5e-9)[0, 0] == pytest.approx(3.0)
    np.testing.assert_array_equal(ctrl.jacobians(x, -1.5e-9)[0],
                                  [[[3.0, 1.0, 0.0, 0.0]]])


def test_linear_feedback_jacobians():
    rng = np.random.default_rng(_PROBE_SEED)
    for k in (1, 2):  # k = 2: each component's gain row and offset
        theta = rng.standard_normal(3 * (k * 2 + k))
        ctrl = sl.make_linear_feedback_control(2, k, 3, 1.0, theta=theta)
        _check_jacobians(ctrl, d=2)
        assert ctrl.x_hessian_is_zero and ctrl.affine


def test_feature_linear_evaluation_matches_manual():
    feats = ["1", "tau", "x", "x*exp(-2.0*tau)"]
    theta = np.array([0.3, -0.1, 0.7, 1.5])
    ctrl = sl.make_feature_linear_control(1, 1, feats, 1.0, theta=theta)
    x = np.array([[2.0]])
    t = 0.25
    tau = 0.75
    want = 0.3 - 0.1 * tau + 0.7 * 2.0 + 1.5 * 2.0 * np.exp(-2.0 * tau)
    assert ctrl.evaluate(x, t)[0, 0] == pytest.approx(want, rel=1e-12)


def test_feature_linear_jacobians():
    feats = ["1", "t", "x", "x*tau", "exp(-3*tau)"]
    rng = np.random.default_rng(_PROBE_SEED + 1)
    n_cols = 3 + 2 * 2  # 3 scalar features + 2 x-features in d=2
    for k in (1, 2):  # k = 2: one row of theta per component
        theta = rng.standard_normal(k * n_cols)
        ctrl = sl.make_feature_linear_control(2, k, feats, 1.0, theta=theta)
        assert ctrl.n_params == k * n_cols
        _check_jacobians(ctrl, d=2)
        assert ctrl.x_hessian_is_zero and ctrl.affine


def test_feature_linear_rejects_unknown_feature():
    with pytest.raises(sl.ValidationError):
        sl.make_feature_linear_control(1, 1, ["x^2"], 1.0)
    with pytest.raises(sl.ValidationError):
        sl.make_feature_linear_control(1, 1, ["exp(2*tau)"], 1.0)
    with pytest.raises(sl.ValidationError):
        sl.make_feature_linear_control(1, 1, [], 1.0)
    for text in ("x", "x*tau"):  # not split into one feature per letter
        with pytest.raises(sl.ValidationError, match="list of strings"):
            sl.make_feature_linear_control(1, 1, text, 1.0)


def test_one_hidden_layer_jacobians():
    rng = np.random.default_rng(_PROBE_SEED + 2)
    ctrl0 = sl.make_one_hidden_layer_control(2, 2, 8, 1.0)
    theta = 0.5 * rng.standard_normal(ctrl0.n_params)
    ctrl = ctrl0.with_theta(theta)
    _check_jacobians(ctrl, d=2, tol=5e-5)
    assert not ctrl.x_hessian_is_zero and not ctrl.affine


def test_one_hidden_layer_width_bounds():
    with pytest.raises(sl.ValidationError):
        sl.make_one_hidden_layer_control(1, 1, 0, 1.0)
    with pytest.raises(sl.ValidationError):
        sl.make_one_hidden_layer_control(1, 1, 65, 1.0)


def test_default_theta_is_zero_control():
    ctrl = sl.make_linear_feedback_control(2, 1, 4, 1.0)
    x = np.array([[1.0, -2.0]])
    np.testing.assert_array_equal(ctrl.evaluate(x, 0.3), np.zeros((1, 1)))
    np.testing.assert_array_equal(ctrl.theta, np.zeros(ctrl.n_params))


def test_with_theta_returns_fresh_model():
    ctrl = sl.make_linear_feedback_control(1, 1, 1, 1.0)
    other = ctrl.with_theta(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(ctrl.theta, [0.0, 0.0])
    np.testing.assert_array_equal(other.theta, [1.0, 2.0])
    with pytest.raises(sl.ValidationError):
        ctrl.with_theta(np.zeros(3))


def test_n_params_formulas():
    assert sl.make_linear_feedback_control(3, 2, 5, 1.0).n_params == \
        5 * (2 * 3 + 2)
    assert sl.make_one_hidden_layer_control(2, 1, 4, 1.0).n_params == \
        4 * (2 + 2) + 4 + 1 * 4 + 1


_FAMILIES = {
    "linear_feedback": lambda: sl.make_linear_feedback_control(2, 1, 3, 2.0),
    "feature_linear": lambda: sl.make_feature_linear_control(
        1, 1, ["x", "x*exp(-1.5*tau)"], 2.0),
    "one_hidden_layer": lambda: sl.make_one_hidden_layer_control(
        2, 2, 4, 2.0),
}


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(_PROBE_SEED + 3)
    for family, build in _FAMILIES.items():
        ctrl = build()
        ctrl = ctrl.with_theta(rng.standard_normal(ctrl.n_params))
        path = tmp_path / f"{family}.json"
        sl.save_control(ctrl, path)
        loaded = sl.load_control(path)
        assert loaded.family == ctrl.family == family
        assert loaded.horizon == ctrl.horizon
        np.testing.assert_array_equal(loaded.theta, ctrl.theta)
        x = rng.standard_normal((3, ctrl.d))
        np.testing.assert_array_equal(loaded.evaluate(x, 0.4),
                                      ctrl.evaluate(x, 0.4))
        # the file itself is stable: saving the loaded model reproduces it
        again = tmp_path / f"{family}_again.json"
        sl.save_control(loaded, again)
        assert path.read_bytes() == again.read_bytes()


_GOOD = {"family": "linear_feedback",
         "structure": {"d": 1, "k": 1, "horizon": 1.0, "n_intervals": 2},
         "theta": [0.0, 0.0, 0.0, 0.0]}


_CORRUPTIONS = {
    "theta length": lambda p: p.update(theta=[0.0, 0.0, 0.0]),
    "no n_intervals": lambda p: p["structure"].pop("n_intervals"),
    "fractional n_intervals": lambda p: p["structure"].update(n_intervals=2.5),
    "fractional d": lambda p: p["structure"].update(d=1.5),
    "string horizon": lambda p: p["structure"].update(horizon="1.0"),
    "another family's knob": lambda p: p["structure"].update(width=4),
    "string theta": lambda p: p.update(theta=["a", "b", "c", "d"]),
    "unknown family": lambda p: p.update(family="transformer"),
    "no structure": lambda p: p.pop("structure"),
    "non-string feature": lambda p: p.update(
        family="feature_linear",
        structure={"d": 1, "k": 1, "horizon": 1.0, "features": [1]}),
}


def test_load_rejects_corrupt_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_GOOD))
    sl.load_control(path)
    for name, corrupt in _CORRUPTIONS.items():
        payload = json.loads(json.dumps(_GOOD))
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(sl.ValidationError):
            sl.load_control(path)
            pytest.fail(f"accepted a payload with {name}")
    path.write_text("{not json")
    with pytest.raises(sl.ConfigError):
        sl.load_control(path)


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_every_entry_point_checks_the_point(family):
    ctrl = _FAMILIES[family]()
    good = np.zeros((3, ctrl.d))
    for call in (ctrl.evaluate, ctrl.jacobians, ctrl.state_jacobian,
                 lambda x, t: ctrl.node_chunk(x, [t])):
        call(good, 1.0)
        with pytest.raises(sl.ValidationError, match="state batch"):
            call(np.zeros((3, ctrl.d + 1)), 1.0)
        with pytest.raises(sl.ValidationError, match="outside control"):
            call(good, 2.5)
        with pytest.raises(sl.ValidationError, match="outside control"):
            call(good, float("nan"))


@pytest.mark.parametrize("frozen", (False, True), ids=("plain", "frozen"))
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_param_block_scatters_to_the_dense_jacobian(family, frozen):
    """A one-node chunk's factored du/dtheta (layout, phi), scattered into
    zeros component by component, is `jacobians`'s dense one bit for bit,
    at interior times and interval boundaries. An affine family's phi is
    shared by the components, whose layout rows name disjoint columns."""
    rng = np.random.default_rng(_PROBE_SEED + 4)
    ctrl = _FAMILIES[family]()
    ctrl = ctrl.with_theta(rng.standard_normal(ctrl.n_params))
    if frozen:
        ctrl = sl.freeze_control(ctrl)
    x = rng.standard_normal((5, ctrl.d))
    for t in (0.0, 0.3, 2.0 / 3.0, 1.0, 1.9, 2.0):
        _, (layout,), phi = ctrl.node_chunk(x, [t])
        assert layout.shape == (ctrl.k, phi.shape[-1])
        dense = np.zeros((5, ctrl.k, ctrl.n_params))
        for c in range(ctrl.k):
            dense[:, c, layout[c]] = phi if ctrl.affine else phi[:, c]
        np.testing.assert_array_equal(dense, ctrl.jacobians(x, t)[0])
        if ctrl.affine:
            assert phi.ndim == 2 and np.unique(layout).size == layout.size
        if family == "linear_feedback":  # [x, 1] in the active interval
            assert phi.shape == (5, ctrl.d + 1)
            per = ctrl.k * ctrl.d + ctrl.k
            assert layout.max() - layout.min() < per


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_node_chunk_stacks_the_per_node_calls(family):
    """A chunk of nodes gives, row block by row block, each node's
    `evaluate` and one-node chunk (its layout and features); only the
    affine families stack nodes."""
    rng = np.random.default_rng(_PROBE_SEED + 5)
    ctrl = _FAMILIES[family]()
    ctrl = ctrl.with_theta(rng.standard_normal(ctrl.n_params))
    times = [0.3, 2.0 / 3.0, 1.9] if ctrl.affine else [0.3]
    x = rng.standard_normal((5 * len(times), ctrl.d))
    u, layouts, phi = ctrl.node_chunk(x, times)
    assert len(layouts) == len(times)
    for j, t in enumerate(times):
        rows = slice(5 * j, 5 * (j + 1))
        np.testing.assert_array_equal(u[rows], ctrl.evaluate(x[rows], t))
        _, (want_layout,), want_phi = ctrl.node_chunk(x[rows], [t])
        np.testing.assert_array_equal(layouts[j], want_layout)
        np.testing.assert_array_equal(phi[rows], want_phi)
    if not ctrl.affine:
        with pytest.raises(sl.ValidationError, match="cannot split"):
            ctrl.node_chunk(np.zeros((4, ctrl.d)), [0.3, 0.6])
    with pytest.raises(sl.ValidationError, match="cannot split"):
        ctrl.node_chunk(np.zeros((5, ctrl.d)), [0.3, 0.6])
    with pytest.raises(sl.ValidationError, match="outside control"):
        ctrl.node_chunk(np.zeros((2, ctrl.d)), [0.3, 2.5])
    with pytest.raises(sl.ValidationError, match="state batch"):
        ctrl.node_chunk(np.zeros((2, ctrl.d + 1)), [0.3])


@pytest.mark.parametrize("d, k", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("family", ["linear_feedback", "feature_linear"])
def test_affine_u_matches_its_matmul_form(family, d, k):
    """u = K(t) x + c(t) skips matmul when d = 1; the bits are matmul's,
    for `evaluate` and for every node of a stacked chunk."""
    rng = np.random.default_rng(_PROBE_SEED + 6)
    if family == "linear_feedback":
        ctrl = sl.make_linear_feedback_control(d, k, 4, 2.0)
    else:
        ctrl = sl.make_feature_linear_control(
            d, k, ["x*exp(-2*tau)", "x", "1"], 2.0)
    ctrl = ctrl.with_theta(rng.standard_normal(ctrl.n_params))
    times = [0.3, 0.9, 1.9]
    x = rng.standard_normal((3 * 50, d))
    x[:3] = np.array([0.0, -0.0, -1e-300])[:, None]  # signed zeros
    u, _, _ = ctrl.node_chunk(x, times)
    for j, t in enumerate(times):
        rows = x[50 * j:50 * (j + 1)]
        gain, offset = ctrl._affine(t)
        want = rows @ gain.T + offset
        for got in (ctrl.evaluate(rows, t), u[50 * j:50 * (j + 1)]):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
