"""End-to-end acceptance gates.

Each test prints exactly one PASS/FAIL line (visible with `pytest -s`, or
in the captured output on failure) and enforces both the numerical gate
and the runtime cap.  These are the slow, high-path-count runs; the
per-module suites hold the fast, surgical versions of the same identities.
"""

import json
import math
import time

import numpy as np
import pytest

import soc_lab as sl
from soc_lab import cli

from conftest import make_mild_feedback


def _gate(num, ok, detail, elapsed, cap):
    status = "PASS" if (ok and elapsed <= cap) else "FAIL"
    print(f"{status} criterion {num:02d}: {detail} "
          f"[{elapsed:.1f}s / cap {cap:.0f}s]")
    assert ok, f"criterion {num:02d}: {detail}"
    assert elapsed <= cap, (f"criterion {num:02d} exceeded its runtime cap: "
                            f"{elapsed:.1f}s > {cap}s")


def _fine_grid(problem):
    return sl.TimeGrid(round(problem.horizon / 1e-3), problem.horizon)


def _simple_lq():
    return sl.make_lq_problem(0.0, 1.0, 1.0, 0.0, 1.0, 1.0)


def _train_recovery_control():
    """MSA on one large fixed batch; lands on the surrogate optimum."""
    prob = _simple_lq()
    grid = sl.TimeGrid(96, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 24, 1.0)
    cfg = sl.TrainConfig(n_iters=4, paths_per_iter=16384, step_size=1.0,
                         master_seed=41, msa_exact=True,
                         resample_noise_each_iter=False)
    trained, history = sl.train_adjoint_matching(prob, ctrl, grid, cfg)
    assert not history.aborted
    return prob, grid, trained


def test_criterion_01_pathwise_gradient_matches_finite_differences(
        sg_problem, sg_control, lq_problem, lq_control):
    t0 = time.perf_counter()
    worst = 0.0
    for problem, control in ((sg_problem, sg_control),
                             (lq_problem, lq_control)):
        grid = _fine_grid(problem)
        batch = sl.simulate_batch(problem, control, grid, 42, 16)
        full = sl.solve_first_order_adjoint(problem, control, batch)
        for j in range(16):
            traj = batch[j]
            fd = sl.fd_pathwise_gradient(problem, control, grid, traj.noise,
                                         traj.x0, step=1e-5)
            rel = float(np.linalg.norm(full.values[j, 0] - fd)
                        / np.linalg.norm(fd))
            worst = max(worst, rel)
    _gate(1, worst <= 1e-3,
          f"max rel gradient error {worst:.2e} (gate 1e-3, dt=1e-3, "
          f"16 paths each on state-dependent-noise and LQ problems)",
          time.perf_counter() - t0, 30.0)


def test_criterion_02_pathwise_hessian_matches_finite_differences(
        sg_problem, sg_control, lq_problem, lq_control):
    t0 = time.perf_counter()
    worst = 0.0
    for problem, control in ((sg_problem, sg_control),
                             (lq_problem, lq_control)):
        grid = _fine_grid(problem)
        batch = sl.simulate_batch(problem, control, grid, 42, 8)
        full = sl.solve_first_order_adjoint(problem, control, batch)
        second = sl.solve_second_order_adjoint(problem, control, batch, full)
        for j in range(8):
            traj = batch[j]
            fd = sl.fd_pathwise_hessian(problem, control, grid, traj.noise,
                                        traj.x0, step=1e-4)
            rel = float(np.linalg.norm(second.values[j, 0] - fd)
                        / np.linalg.norm(fd))
            worst = max(worst, rel)
    _gate(2, worst <= 1e-2,
          f"max rel Hessian error {worst:.2e} (gate 1e-2, 8 paths each)",
          time.perf_counter() - t0, 60.0)


def test_criterion_03_matching_loss_shares_the_objective_first_variation(
        lq_problem, ou_problem):
    """Gradient of the matching loss vs the direct objective gradient at
    arbitrary (random) parameters, on common-seed batches of 1e5 paths.

    The loss-side gradient pairs the integrated-Hamiltonian derivative
    with the total-derivative first-order adjoints; both sides are
    estimated per path so each component's gap can be measured against
    its combined standard error.
    """
    t0 = time.perf_counter()
    n_paths, block, n_blocks = 100000, 25000, 4
    worst_z = 0.0
    for problem, n_steps in ((lq_problem, 512), (ou_problem, 1280)):
        grid = sl.TimeGrid(n_steps, problem.horizon)
        for theta_seed in range(5):
            rng = np.random.default_rng(1000 + theta_seed)
            control = sl.make_linear_feedback_control(
                1, 1, 4, problem.horizon,
                theta=0.3 * rng.standard_normal(8))
            g_am = np.empty((n_paths, 8))
            g_dir = np.empty((n_paths, 8))
            for b in range(n_blocks):
                seed = 7000 + 31 * theta_seed + b
                batch = sl.simulate_batch(problem, control, grid, seed,
                                          block)
                full = sl.solve_first_order_adjoint(problem, control, batch)
                rows = slice(b * block, (b + 1) * block)
                g_am[rows] = sl.per_path_lean_am_gradients(
                    problem, control, batch, full)
                g_dir[rows] = sl.theta_gradient_via_adjoint(
                    problem, control, batch, full)
            gap = np.abs(g_am.mean(axis=0) - g_dir.mean(axis=0))
            combined = np.sqrt(g_am.std(axis=0, ddof=1) ** 2
                               + g_dir.std(axis=0, ddof=1) ** 2) \
                / math.sqrt(n_paths)
            worst_z = max(worst_z, float(np.max(gap / combined)))
    _gate(3, worst_z <= 3.0,
          f"max componentwise |gap|/SE = {worst_z:.2f} over 2 problems x "
          f"5 random thetas x 1e5 common-seed paths (gate 3)",
          time.perf_counter() - t0, 300.0)


def test_criterion_04_time_only_noise_collapses_the_losses(
        lq_problem, lq_control, ou_problem):
    t0 = time.perf_counter()
    worst_bam = 0.0
    ou_control = make_mild_feedback(1, 1, ou_problem.horizon)
    for problem, control in ((lq_problem, lq_control),
                             (ou_problem, ou_control)):
        assert problem.diffusion_time_only
        grid = sl.TimeGrid(200, problem.horizon)
        batch = sl.simulate_batch(problem, control, grid, 9, 512)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        frozen = sl.freeze_control(control)
        full = sl.solve_first_order_adjoint(problem, frozen, batch)
        second = sl.solve_second_order_adjoint(problem, frozen, batch, full)
        g_lean = sl.lean_am_loss(problem, control, batch, lean).grad_theta
        g_bam = sl.bam_loss(problem, control, batch, full, second).grad_theta
        rel = float(np.max(np.abs(g_bam - g_lean))
                    / max(1.0, np.max(np.abs(g_lean))))
        worst_bam = max(worst_bam, rel)
    # quadratic-expansion loss == plain matching loss (control and noise
    # share the same channel on these instances)
    worst_quad = 0.0
    for problem, control in ((ou_problem, ou_control),
                             (_simple_lq(), make_mild_feedback(1, 1, 1.0))):
        grid = sl.TimeGrid(200, problem.horizon)
        batch = sl.simulate_batch(problem, control, grid, 10, 512)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        g_lean = sl.lean_am_loss(problem, control, batch, lean).grad_theta
        g_quad = sl.quadratic_am_loss(problem, control, batch,
                                      lean).grad_theta
        rel = float(np.max(np.abs(g_quad - g_lean))
                    / max(1.0, np.max(np.abs(g_lean))))
        worst_quad = max(worst_quad, rel)
    ok = worst_bam <= 1e-12 and worst_quad <= 1e-12
    _gate(4, ok,
          f"second-order-loss gradient gap {worst_bam:.2e}, quadratic-loss "
          f"gradient gap {worst_quad:.2e} (gates 1e-12)",
          time.perf_counter() - t0, 30.0)


def test_criterion_05_training_recovers_the_riccati_feedback():
    t0 = time.perf_counter()
    prob, grid, trained = _train_recovery_control()
    n_int = 24
    gains = trained.theta[0::2]
    nodes = grid.nodes[:-1]
    p_closed = 1.0 / (1.0 + (1.0 - nodes))
    which = np.minimum((nodes * n_int).astype(int), n_int - 1)
    gain_err = float(np.max(np.abs(gains[which] + p_closed)))

    mean, se = sl.soc_objective(prob, trained, grid, 977, 20000)
    optimum = 0.25 + 0.5 * math.log(2.0)
    z = abs(mean - optimum) / se
    ok = gain_err <= 5e-2 and z <= 3.0
    _gate(5, ok,
          f"max_i |K(t_i) + P(t_i)| = {gain_err:.3f} (gate 0.05); "
          f"objective {mean:.4f} vs optimum {optimum:.4f}, "
          f"|z| = {z:.2f} (gate 3)",
          time.perf_counter() - t0, 600.0)


def test_criterion_06_trained_control_samples_the_tilted_terminal_law(
        ou_problem):
    t0 = time.perf_counter()
    features = ["x*exp(-2*tau)", "x*exp(-4*tau)", "x*exp(-6*tau)",
                "x*exp(-8*tau)", "x*exp(-10*tau)", "x*exp(-12*tau)", "x"]
    control = sl.make_feature_linear_control(1, 1, features,
                                             ou_problem.horizon)
    grid = sl.TimeGrid(512, ou_problem.horizon)
    cfg = sl.TrainConfig(n_iters=4, paths_per_iter=16384, step_size=1.0,
                         master_seed=43, msa_exact=True,
                         resample_noise_each_iter=False)
    trained, history = sl.train_adjoint_matching(ou_problem, control, grid,
                                                 cfg)
    assert not history.aborted
    _, terminal = sl.sample_pathwise_costs(ou_problem, trained, grid,
                                           1234, 100000)
    x_t = terminal[:, 0]
    target_mean, target_var = sl.tilted_gaussian_target(ou_problem)
    var = float(x_t.var(ddof=1))
    mean = float(x_t.mean())
    se_mean = float(x_t.std(ddof=1) / math.sqrt(len(x_t)))
    var_ok = abs(var - target_var) <= 0.05 * target_var
    mean_ok = abs(mean - target_mean) <= 3.0 * se_mean
    _gate(6, var_ok and mean_ok,
          f"terminal var {var:.4f} vs {target_var} (gate 5%), "
          f"mean {mean:+.4f} vs 3 SE = {3 * se_mean:.4f}, 1e5 fresh paths",
          time.perf_counter() - t0, 600.0)


def test_criterion_07_msa_equivalences(ou_problem):
    t0 = time.perf_counter()
    # (a) the matching-loss gradient IS the gradient of the batch
    # Hamiltonian time-integral, on problems whose control and noise act
    # through the same channel
    worst_dir = 0.0
    for problem, control in ((ou_problem, make_mild_feedback(
            1, 1, ou_problem.horizon)),
            (_simple_lq(), make_mild_feedback(1, 1, 1.0))):
        grid = sl.TimeGrid(100, problem.horizon)
        batch = sl.simulate_batch(problem, control, grid, 11, 1024)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        grad = sl.lean_am_loss(problem, control, batch, lean).grad_theta
        g_h = np.zeros(control.n_params)
        for i in range(grid.n_steps):
            x = batch.states[:, i]
            t = float(grid.nodes[i])
            u = control.evaluate(x, t)
            du_dtheta, _ = control.jacobians(x, t)
            gu = (problem.derivatives.d2_cost(x, u, t)
                  + np.einsum("bik,bi->bk",
                              problem.derivatives.d2_drift(x, u, t),
                              lean.values[:, i]))
            g_h += grid.dt * np.einsum("bkp,bk->p", du_dtheta, gu)
        g_h /= batch.states.shape[0]
        rel = float(np.max(np.abs(grad - g_h)) / max(1.0, np.max(np.abs(g_h))))
        worst_dir = max(worst_dir, rel)

    # (b) one exact step from theta = 0 equals the normal-equation solve
    prob = _simple_lq()
    grid = sl.TimeGrid(50, 1.0)
    ctrl = sl.make_linear_feedback_control(1, 1, 5, 1.0)
    batch = sl.simulate_batch(prob, ctrl, grid, 13, 512)
    lean = sl.solve_lean_adjoint(prob, ctrl, batch)
    stepped = sl.msa_exact_step(prob, ctrl, batch, lean)
    rows, targets = [], []
    sq = math.sqrt(grid.dt)
    for i in range(grid.n_steps):
        x = batch.states[:, i]
        t = float(grid.nodes[i])
        du_dtheta, _ = ctrl.jacobians(x, t)
        sigma = prob.diffusion(x, ctrl.evaluate(x, t), t)
        target = -np.einsum("bic,bi->bc", sigma, lean.values[:, i])
        rows.append(sq * du_dtheta.reshape(-1, ctrl.n_params))
        targets.append(sq * target.reshape(-1))
    oracle, *_ = np.linalg.lstsq(np.concatenate(rows),
                                 np.concatenate(targets), rcond=None)
    step_gap = float(np.max(np.abs(stepped - oracle)))
    ok = worst_dir <= 1e-12 and step_gap <= 1e-8
    _gate(7, ok,
          f"descent-direction gap {worst_dir:.2e} (gate 1e-12); exact-step "
          f"vs least-squares oracle {step_gap:.2e} (gate 1e-8)",
          time.perf_counter() - t0, 60.0)


def test_criterion_08_integral_representation_reproduces_the_lean_adjoint(
        lq_problem, lq_control, sg_problem, sg_control):
    t0 = time.perf_counter()
    worst = 0.0
    for problem, control in ((lq_problem, lq_control),
                             (sg_problem, sg_control)):
        grid = sl.TimeGrid(200, problem.horizon)
        batch = sl.simulate_batch(problem, control, grid, 3, 16)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        props = sl.fundamental_matrix(problem, control, batch)
        recon = sl.feynman_kac_lean(problem, control, batch, props)
        scale = max(1.0, float(np.max(np.abs(lean.values))))
        rel = float(np.max(np.abs(recon.values - lean.values))) / scale
        worst = max(worst, rel)
    _gate(8, worst <= 1e-10,
          f"max rel deviation {worst:.2e} over 16 paths x 2 problems "
          f"(gate 1e-10)",
          time.perf_counter() - t0, 10.0)


def test_criterion_09_adjoint_regression_recovers_the_value_hessian(
        lq_problem):
    t0 = time.perf_counter()
    grid = sl.TimeGrid(200, 1.0)
    report = sl.smp_representation_check(lq_problem, grid, 100000, seed=5)
    assert len(report.rows) == 5
    _gate(9, report.passed,
          f"binned slope vs Riccati P(t) at 5 interior times, 1e5 paths: "
          f"max |z| = {report.max_abs_z:.2f} (gate 3)",
          time.perf_counter() - t0, 180.0)


def test_criterion_10_dynamic_programming_residual(lq_problem):
    t0 = time.perf_counter()
    value_fn = sl.LQValueFunction(lq_problem)
    analytic = sl.hjb_residual_1d(
        lq_problem, None, np.linspace(-3.0, 3.0, 21),
        np.linspace(0.05, 0.95, 21), 0, 0, value_fn=value_fn)
    worst_analytic = analytic.max_abs_residual

    prob, _, trained = _train_recovery_control()
    mc = sl.hjb_residual_1d(prob, trained, [-1.0, 0.5, 1.2], [0.35, 0.65],
                            20000, seed=88, n_steps=50, n_blocks=8)
    ratio = mc.max_ratio(floor_multiple=5.0)
    ok = worst_analytic <= 1e-4 and ratio <= 1.0
    _gate(10, ok,
          f"analytic value-function residual {worst_analytic:.2e} "
          f"(gate 1e-4); trained-control residual/noise-floor ratio "
          f"{ratio:.2f} (gate 1 at 5x floor)",
          time.perf_counter() - t0, 300.0)


def test_criterion_11_check_and_train_runs_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "master_seed": 3,
        "problem": {"id": "lq",
                    "params": {"a_mat": 0.3, "b_mat": 1.0, "sigma": 0.8,
                               "q_run": 0.5, "q_term": 1.0, "horizon": 1.0}},
        "grid": {"n_steps": 100},
        "control": {"family": "linear_feedback", "n_intervals": 2,
                    "theta": [-0.4, 0.05, -0.3, 0.0]},
        "train": {"n_iters": 5, "paths_per_iter": 256, "step_size": 1.0},
        "checks": ["adjoint_vs_fd", "first_variation", "sigma_collapse",
                   "feynman_kac"],
        "check_params": {"n_paths": 2000},
    }))

    def run(command, out):
        code = cli.main([command, "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 0, f"{command} exited {code}"
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    ok = True
    details = []
    for command in ("check", "train"):
        ref = run(command, tmp_path / f"{command}_a")
        rerun = run(command, tmp_path / f"{command}_b")
        same = ref == rerun
        ok = ok and same
        details.append(f"{command}: {len(ref)} artifacts "
                       f"{'identical' if same else 'DIFFER'} across rerun")
    _gate(11, ok, "; ".join(details), time.perf_counter() - t0, 600.0)
