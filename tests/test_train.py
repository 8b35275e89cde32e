"""Training loop, MSA steps, and checkpoint evaluation."""

import dataclasses

import numpy as np
import pytest

import soc_lab as sl


def _simple_lq():
    # the q/(1+q(T-t)) Riccati instance: a=0, B=sigma=1, q_run=0
    return sl.make_lq_problem(0.0, 1.0, 1.0, 0.0, 1.0, 1.0)


def test_training_descends(lq_problem):
    grid = sl.TimeGrid(40, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 4, 1.0)
    cfg = sl.TrainConfig(n_iters=60, paths_per_iter=512, step_size=6.0,
                         master_seed=5)
    trained, history = sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    assert not history.aborted
    assert len(history.records) == 60
    first, last = history.records[0], history.records[-1]
    assert last.objective < first.objective - 3.0 * first.objective_se
    assert not np.array_equal(trained.theta, ctrl.theta)


def test_training_reaches_riccati_gains():
    """On the closed-form instance the trained gain must sit near -P(t)."""
    prob = _simple_lq()
    grid = sl.TimeGrid(32, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 8, 1.0)
    cfg = sl.TrainConfig(n_iters=150, paths_per_iter=1024, step_size=10.0,
                         master_seed=11)
    trained, history = sl.train_adjoint_matching(prob, ctrl, grid, cfg)
    assert not history.aborted
    for j in range(8):
        t_mid = (j + 0.5) / 8.0
        p_t = 1.0 / (1.0 + (1.0 - t_mid))
        gain = trained.theta[2 * j]
        offset = trained.theta[2 * j + 1]
        assert abs(gain + p_t) < 0.08, f"interval {j}: K={gain}, -P={-p_t}"
        assert abs(offset) < 0.05


def test_training_is_deterministic(lq_problem):
    grid = sl.TimeGrid(20, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 2, 1.0)
    cfg = sl.TrainConfig(n_iters=10, paths_per_iter=128, step_size=2.0,
                         master_seed=3)
    a_ctrl, a_hist = sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    b_ctrl, b_hist = sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    np.testing.assert_array_equal(a_ctrl.theta, b_ctrl.theta)
    for ra, rb in zip(a_hist.records, b_hist.records):
        assert ra == rb


def test_bam_training_matches_lean_on_time_only_noise(lq_problem):
    """The collapse identity lifts to whole training runs: with sigma(t)
    every BAM update equals the lean update, so the iterates coincide."""
    grid = sl.TimeGrid(20, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 2, 1.0)
    kw = dict(n_iters=8, paths_per_iter=256, step_size=3.0, master_seed=7)
    lean_ctrl, _ = sl.train_adjoint_matching(
        lq_problem, ctrl, grid, sl.TrainConfig(loss_kind="lean_am", **kw))
    bam_ctrl, _ = sl.train_adjoint_matching(
        lq_problem, ctrl, grid, sl.TrainConfig(loss_kind="bam", **kw))
    np.testing.assert_array_equal(lean_ctrl.theta, bam_ctrl.theta)


def test_trust_region_clips_steps(lq_problem):
    grid = sl.TimeGrid(20, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 1, 1.0)
    radius = 0.05
    cfg = sl.TrainConfig(n_iters=12, paths_per_iter=256, step_size=50.0,
                         master_seed=1, trust_region_radius=radius)
    _, history = sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    norms = [r.step_norm for r in history.records]
    assert max(norms) <= radius + 1e-12
    assert norms[0] == pytest.approx(radius)


def test_divergent_training_aborts_with_partial_history(lq_problem):
    grid = sl.TimeGrid(25, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 1, 1.0)
    cfg = sl.TrainConfig(n_iters=200, paths_per_iter=64, step_size=4e3,
                         master_seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sl.TrainingAborted) as err:
            sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    history = err.value.history
    assert history.aborted
    assert history.abort_reason
    assert 0 < len(history.records) < 200
    assert err.value.iteration is not None


def test_non_finite_adjoint_aborts_training():
    """Finite states, overflowing lean adjoint: the run stops with the
    solver's step and path as its reason, not with a nan loss."""
    prob = sl.make_lq_problem(50.0, 1.0, 1.0, 0.0, 1.0, 20.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 1, 20.0, theta=[-60.0, 0.0])
    cfg = sl.TrainConfig(n_iters=3, paths_per_iter=8, step_size=1e-6,
                         master_seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(sl.TrainingAborted) as err:
        sl.train_adjoint_matching(prob, ctrl, sl.TimeGrid(2000, 20.0), cfg)
    assert err.value.iteration == 0
    assert err.value.history.abort_reason.startswith(
        "lean adjoint became non-finite at step ")


def test_non_finite_state_aborts_training_with_history():
    """A forward pass that blows up stops the run like a backward one: with
    the partial history and the state's step and path as its reason."""
    prob = sl.make_scalar_geometric_problem()
    ctrl = sl.make_linear_feedback_control(1, 1, 1, prob.horizon,
                                           theta=[80.0, 0.0])
    cfg = sl.TrainConfig(n_iters=3, paths_per_iter=4, step_size=0.1,
                         master_seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(sl.TrainingAborted) as err:
        sl.train_adjoint_matching(prob, ctrl, sl.TimeGrid(200, prob.horizon),
                                  cfg)
    assert err.value.iteration == 0
    history = err.value.history
    assert history.aborted and history.records == []
    assert history.abort_reason.startswith("state became non-finite at step ")


def test_train_config_validation():
    with pytest.raises(sl.ValidationError):
        sl.TrainConfig(n_iters=0, paths_per_iter=8, step_size=1.0,
                       master_seed=0)
    with pytest.raises(sl.ValidationError):
        sl.TrainConfig(n_iters=1, paths_per_iter=0, step_size=1.0,
                       master_seed=0)
    with pytest.raises(sl.ValidationError):
        sl.TrainConfig(n_iters=1, paths_per_iter=8, step_size=1.0,
                       master_seed=0, loss_kind="huber")
    # counts are integers: range() would refuse them only mid-training
    with pytest.raises(sl.ValidationError, match="n_iters"):
        sl.TrainConfig(n_iters=2.5, paths_per_iter=8, step_size=1.0,
                       master_seed=0)
    with pytest.raises(sl.ValidationError, match="paths_per_iter"):
        sl.TrainConfig(n_iters=1, paths_per_iter="8", step_size=1.0,
                       master_seed=0)
    assert sl.TrainConfig(n_iters=np.int64(2), paths_per_iter=8,
                          step_size=1.0, master_seed=0).n_iters == 2


@pytest.mark.parametrize("field", ["step_size", "trust_region_radius"])
def test_train_config_refuses_nan(field):
    kw = dict(n_iters=1, paths_per_iter=8, step_size=1.0, master_seed=0)
    kw[field] = float("nan")
    with pytest.raises(sl.ValidationError, match=field):
        sl.TrainConfig(**kw)
    with pytest.raises(sl.ValidationError, match=field):
        sl.TrainConfig(msa_exact=True, **kw)


def test_train_config_refuses_infinite_step_size():
    kw = dict(n_iters=1, paths_per_iter=8, master_seed=0)
    for step_size in (float("inf"), float("-inf")):
        with pytest.raises(sl.ValidationError, match="step_size"):
            sl.TrainConfig(step_size=step_size, **kw)
        with pytest.raises(sl.ValidationError, match="step_size"):
            sl.TrainConfig(step_size=step_size, msa_exact=True, **kw)


# ---------------------------------------------------------------------------
# exact MSA steps


def _normal_equation_oracle(problem, control, batch, lean):
    """Literal least squares: stack the per-node regression rows
    sqrt(dt) * du_dtheta against targets -sqrt(dt) * sigma' a and solve
    with numpy's lstsq. Independent of the trainer's accumulation."""
    grid = batch.grid
    rows, targets = [], []
    sq = np.sqrt(grid.dt)
    for i in range(grid.n_steps):
        x = batch.states[:, i]
        t = float(grid.nodes[i])
        a = lean.values[:, i]
        du_dtheta, _ = control.jacobians(x, t)
        sigma = problem.diffusion(x, control.evaluate(x, t), t)
        target = -np.einsum("bic,bi->bc", sigma, a)
        rows.append(sq * du_dtheta.reshape(-1, control.n_params))
        targets.append(sq * target.reshape(-1))
    design = np.concatenate(rows)
    y = np.concatenate(targets)
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return theta


def test_msa_exact_step_matches_normal_equations():
    prob = _simple_lq()
    grid = sl.TimeGrid(50, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 5, 1.0)
    batch = sl.simulate_batch(prob, ctrl, grid, 13, 256)
    lean = sl.solve_lean_adjoint(prob, ctrl, batch)
    stepped = sl.msa_exact_step(prob, ctrl, batch, lean)
    oracle = _normal_equation_oracle(prob, ctrl, batch, lean)
    assert np.max(np.abs(stepped - oracle)) <= 1e-8


def test_msa_exact_step_feature_family(ou_problem):
    ctrl = sl.make_feature_linear_control(
        1, 1, ["x", "x*exp(-2*tau)"], ou_problem.horizon)
    grid = sl.TimeGrid(40, ou_problem.horizon)
    batch = sl.simulate_batch(ou_problem, ctrl, grid, 23, 512)
    lean = sl.solve_lean_adjoint(ou_problem, ctrl, batch)
    stepped = sl.msa_exact_step(ou_problem, ctrl, batch, lean)
    oracle = _normal_equation_oracle(ou_problem, ctrl, batch, lean)
    assert np.max(np.abs(stepped - oracle)) <= 1e-8


def test_msa_exact_step_is_a_fixed_point_near_optimum():
    """Starting from the Riccati gains, one exact step stays near them."""
    prob = _simple_lq()
    grid = sl.TimeGrid(64, 1.0)
    n_int = 8
    theta = np.zeros(2 * n_int)
    for j in range(n_int):
        t_mid = (j + 0.5) / n_int
        theta[2 * j] = -1.0 / (1.0 + (1.0 - t_mid))
    ctrl = sl.make_linear_feedback_control(1, 1, n_int, 1.0, theta=theta)
    batch = sl.simulate_batch(prob, ctrl, grid, 31, 4096)
    lean = sl.solve_lean_adjoint(prob, ctrl, batch)
    stepped = sl.msa_exact_step(prob, ctrl, batch, lean)
    assert np.max(np.abs(stepped - theta)) < 0.05


@pytest.mark.parametrize("b_mat, sigma", [
    (1.0, np.sqrt(2.0)),
    (2.0, 0.5),
    (np.array([[0.0], [1.5]]), 0.5 * np.eye(2)),  # k = 1, m = 2
], ids=["b1-sigma_sqrt2", "b2-sigma_half", "k1-m2"])
def test_msa_exact_step_zeroes_the_lean_am_gradient(b_mat, sigma):
    """The stepped theta is where the lean-AM gradient on the same batch
    and adjoints vanishes, also when the control does not enter through
    sigma."""
    d = np.atleast_2d(sigma).shape[0]
    prob = sl.make_lq_problem(-np.eye(d), b_mat, sigma, np.zeros((d, d)),
                              np.eye(d), 1.0)
    grid = sl.TimeGrid(50, 1.0)
    ctrl = sl.make_linear_feedback_control(d, prob.k, 5, 1.0)
    batch = sl.simulate_batch(prob, ctrl, grid, 13, 2048)
    lean = sl.solve_lean_adjoint(prob, ctrl, batch)
    stepped = ctrl.with_theta(sl.msa_exact_step(prob, ctrl, batch, lean))
    grad = sl.lean_am_loss(prob, stepped, batch, lean).grad_theta
    assert np.max(np.abs(grad)) <= 1e-12


def test_msa_exact_step_rejects_non_control_affine_problem(sg_problem,
                                                           sg_control):
    batch = sl.simulate_batch(sg_problem, sg_control, sl.TimeGrid(10, 1.0),
                              0, 8)
    lean = sl.solve_lean_adjoint(sg_problem, sg_control, batch)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.msa_exact_step(sg_problem, sg_control, batch, lean)


def test_msa_exact_step_rejects_nonlinear_family(lq_problem):
    grid = sl.TimeGrid(10, 1.0)
    net = sl.make_one_hidden_layer_control(1, 1, 4, 1.0)
    batch = sl.simulate_batch(lq_problem, net, grid, 0, 8)
    lean = sl.solve_lean_adjoint(lq_problem, net, batch)
    with pytest.raises(sl.UnsupportedProblemError):
        sl.msa_exact_step(lq_problem, net, batch, lean)


def test_msa_trainer_mode_runs():
    prob = _simple_lq()
    grid = sl.TimeGrid(32, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 4, 1.0)
    cfg = sl.TrainConfig(n_iters=6, paths_per_iter=1024, step_size=1.0,
                         master_seed=19, msa_exact=True)
    trained, history = sl.train_adjoint_matching(prob, ctrl, grid, cfg)
    assert not history.aborted
    # exact steps jump straight into the right neighborhood
    for j in range(4):
        t_mid = (j + 0.5) / 4.0
        assert abs(trained.theta[2 * j] + 1.0 / (2.0 - t_mid)) < 0.1


def test_msa_trainer_walks_each_batch_once(lq_problem, monkeypatch):
    """The MSA normal equations are summed in the loss walk: every
    iteration asks the control for each grid node once, not twice, and
    steps to the theta `msa_exact_step` gives on the same batch."""
    grid = sl.TimeGrid(40, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 4, 1.0,
                                           theta=np.full(8, -0.2))
    cfg = sl.TrainConfig(n_iters=3, paths_per_iter=256, step_size=1.0,
                         master_seed=5, msa_exact=True)
    batch = sl.simulate_batch(lq_problem, ctrl, grid, 5, 256)
    want = sl.msa_exact_step(lq_problem, ctrl, batch, sl.solve_lean_adjoint(
        lq_problem, ctrl, batch))
    nodes = []
    node_chunk = sl.ControlModel.node_chunk
    monkeypatch.setattr(sl.ControlModel, "node_chunk",
                        lambda self, x, times: nodes.extend(times)
                        or node_chunk(self, x, times))
    trained, history = sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    assert len(nodes) == cfg.n_iters * grid.n_steps
    one, _ = sl.train_adjoint_matching(lq_problem, ctrl, grid,
                                       dataclasses.replace(cfg, n_iters=1))
    np.testing.assert_array_equal(one.theta,
                                  ctrl.theta + (want - ctrl.theta))


def test_trainer_refuses_before_the_first_batch(u_noise_problem, sg_problem,
                                                lq_problem, monkeypatch):
    """lean_am on a diffusion that reads u, and msa_exact with a non-affine
    control or on a problem that is not control-affine-quadratic, raise
    UnsupportedProblemError before any batch is simulated."""
    grid = sl.TimeGrid(10, 1.0)
    affine = sl.make_linear_feedback_control(1, 1, 2, 1.0)
    net = sl.make_one_hidden_layer_control(1, 1, 3, 1.0)
    monkeypatch.setattr(sl.train, "simulate_batch", lambda *a: pytest.fail(
        "simulated a batch"))
    for problem, control, kw in (
            (u_noise_problem, affine, {}),
            (lq_problem, net, {"msa_exact": True}),
            (sg_problem, affine, {"msa_exact": True})):
        cfg = sl.TrainConfig(n_iters=1, paths_per_iter=8, step_size=0.1,
                             master_seed=0, **kw)
        with pytest.raises(sl.UnsupportedProblemError):
            sl.train_adjoint_matching(problem, control, grid, cfg)


def test_msa_and_gradient_descent_agree_when_drift_gain_is_not_sigma():
    """B = 2, sigma = 0.5: both trainers minimise the lean-AM loss, whose
    minimiser is -B'a, not -sigma'a, so both land on the Riccati gains."""
    prob = sl.make_lq_problem(0.0, 2.0, 0.5, 0.0, 1.0, 1.0)
    grid = sl.TimeGrid(32, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 4, 1.0)
    msa, msa_hist = sl.train_adjoint_matching(prob, ctrl, grid, sl.TrainConfig(
        n_iters=6, paths_per_iter=1024, step_size=1.0, master_seed=19,
        msa_exact=True))
    gd, gd_hist = sl.train_adjoint_matching(prob, ctrl, grid, sl.TrainConfig(
        n_iters=100, paths_per_iter=1024, step_size=2.0, master_seed=19))
    assert not (msa_hist.aborted or gd_hist.aborted)
    gains = sl.solve_riccati(prob, grid).gains[:-1, 0, 0]
    want = gains.reshape(4, -1).mean(axis=1)  # per-interval mean
    for trained in (msa, gd):
        np.testing.assert_allclose(trained.theta[0::2], want, atol=0.06)
    np.testing.assert_allclose(msa.theta[0::2], gd.theta[0::2], atol=0.06)


# ---------------------------------------------------------------------------
# evaluation and output


def test_evaluate_checkpoint_metrics(lq_problem, lq_control):
    grid = sl.TimeGrid(25, 1.0)
    metrics = sl.evaluate_checkpoint(lq_problem, lq_control, grid, 3, 2000)
    assert set(metrics) >= {"objective", "objective_se", "n_paths",
                            "terminal_mean_0", "terminal_var_0"}
    assert metrics["n_paths"] == 2000
    assert metrics["objective_se"] > 0.0
    # cross-check against the plain objective estimator on the same seed
    mean, se = sl.soc_objective(lq_problem, lq_control, grid, 3, 2000)
    assert metrics["objective"] == pytest.approx(mean)
    assert metrics["objective_se"] == pytest.approx(se)


def test_history_csv(tmp_path, lq_problem):
    grid = sl.TimeGrid(10, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 1, 1.0)
    cfg = sl.TrainConfig(n_iters=3, paths_per_iter=32, step_size=1.0,
                         master_seed=0)
    _, history = sl.train_adjoint_matching(lq_problem, ctrl, grid, cfg)
    out = tmp_path / "history.csv"
    history.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,loss,grad_norm,objective,objective_se,step_norm"
    assert len(lines) == 4
