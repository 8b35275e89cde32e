"""The four benchmark workloads.

A workload builds its problems and controls once (`build`, the set-up),
then runs units. `run(state, seed, unit)` is the timed body of one unit.
`check(state, result)` compares the unit's outputs with a reference that
shares no numerics with the code under test, and returns
(ok, detail, outputs); `outputs` are the arrays and bytes a traced and an
untraced run must reproduce bit for bit. Every input of a unit is a
function of (seed, unit index).

`tiny=True` shrinks every size so the smoke test runs in seconds; the
full sizes are the workload definitions.
"""

import copy
import json
import math
import os
import pathlib
import shutil

import numpy as np

import soc_lab as sl
from soc_lab import cli

OUT = pathlib.Path(__file__).resolve().parent / ".out"


def work_dir():
    """Scratch directory of this process; the runner removes it at exit."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _batch_seed(seed, unit):
    return 1000 * seed + unit


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class AmGradientLQ:
    """Criterion-03 block: forward, full adjoint, two per-path gradients."""

    name = "am_gradient_lq"

    def __init__(self, tiny):
        self.n_steps, self.n_paths = (32, 400) if tiny else (512, 25_000)
        self.path_steps = self.n_paths * self.n_steps

    def build(self):
        problem = sl.make_lq_problem(a_mat=0.3, b_mat=1.0, sigma=0.8,
                                     q_run=0.5, q_term=1.0, horizon=1.0)
        controls = [sl.make_linear_feedback_control(
            1, 1, 4, 1.0,
            theta=0.3 * np.random.default_rng(1000 + j).standard_normal(8))
            for j in range(5)]
        return {"problem": problem, "controls": controls,
                "grid": sl.TimeGrid(self.n_steps, 1.0)}

    def run(self, state, seed, unit):
        problem, grid = state["problem"], state["grid"]
        control = state["controls"][(seed + unit) % len(state["controls"])]
        batch = sl.simulate_batch(problem, control, grid,
                                  _batch_seed(seed, unit), self.n_paths)
        full = sl.solve_first_order_adjoint(problem, control, batch)
        return {"g_am": sl.per_path_lean_am_gradients(problem, control,
                                                      batch, full),
                "g_dir": sl.theta_gradient_via_adjoint(problem, control,
                                                       batch, full),
                "costs": batch.pathwise_costs}

    def check(self, state, result):
        g_am, g_dir = result["g_am"], result["g_dir"]
        gap = np.abs(g_am.mean(axis=0) - g_dir.mean(axis=0))
        se = np.sqrt(g_am.var(axis=0, ddof=1) + g_dir.var(axis=0, ddof=1)) \
            / math.sqrt(len(g_am))
        z = float(np.max(gap / se))
        return z <= 3.0, f"max |gap|/SE = {z:.2f} (gate 3)", result


FEATURES = ["x*exp(-2*tau)", "x*exp(-4*tau)", "x*exp(-6*tau)",
            "x*exp(-8*tau)", "x*exp(-10*tau)", "x*exp(-12*tau)", "x"]


def ou_exact_objective(n_steps, horizon=4.0, tilt=1.0, weight=-0.1):
    """Exact discrete objective of the OU tilt problem (rate 1) under
    u = k(t) x with k the criterion-06 features weighted by `weight`.

    For an offset-free linear control the Euler second moment obeys
    v_{i+1} = (1 + dt (-1 + sqrt2 k_i))^2 v_i + 2 dt from v_0 = 1, and the
    cost is sum_i dt k_i^2 v_i / 2 + tilt v_N / 2.
    """
    dt = horizon / n_steps
    v, cost = 1.0, 0.0
    for i in range(n_steps):
        tau = horizon - i * dt
        k = weight * (1.0 + sum(math.exp(-r * tau) for r in (2, 4, 6, 8,
                                                              10, 12)))
        cost += dt * 0.5 * k * k * v
        v = (1.0 + dt * (-1.0 + math.sqrt(2.0) * k)) ** 2 * v + 2.0 * dt
    return cost + 0.5 * tilt * v


class FreshEvalOU:
    """Forward-only objective estimate on fresh paths."""

    name = "fresh_eval_ou"

    def __init__(self, tiny):
        self.n_steps, self.n_paths = (32, 4000) if tiny else (512, 100_000)
        self.path_steps = self.n_paths * self.n_steps

    def build(self):
        problem = sl.make_ou_tilt_problem(1.0, 1.0, 4.0)
        control = sl.make_feature_linear_control(1, 1, FEATURES, 4.0,
                                                 theta=-0.1 * np.ones(7))
        return {"problem": problem, "control": control,
                "grid": sl.TimeGrid(self.n_steps, 4.0),
                "exact": ou_exact_objective(self.n_steps)}

    def run(self, state, seed, unit):
        mean, se = sl.soc_objective(state["problem"], state["control"],
                                    state["grid"], _batch_seed(seed, unit),
                                    self.n_paths)
        return {"mean": np.float64(mean), "se": np.float64(se)}

    def check(self, state, result):
        z = float((result["mean"] - state["exact"]) / result["se"])
        return (abs(z) <= 3.0,
                f"mean {float(result['mean']):.5f} vs exact "
                f"{state['exact']:.5f}, z = {z:+.2f} (gate 3)", result)


class TrainBuiltin:
    """`soc-lab train` on the built-in config, in-process via cli.main."""

    name = "train_builtin"

    def __init__(self, tiny):
        self.tiny = tiny
        raw = copy.deepcopy(cli.DEFAULT_CONFIG)
        if tiny:
            raw["grid"]["n_steps"] = 20
            raw["train"].update(n_iters=3, paths_per_iter=64)
        self.raw = raw
        self.n_steps = raw["grid"]["n_steps"]
        self.n_iters = raw["train"]["n_iters"]
        self.path_steps = (self.n_iters * raw["train"]["paths_per_iter"]
                           * self.n_steps)

    def build(self):
        config_path = None
        if self.tiny:
            config_path = work_dir() / "tiny-config.json"
            config_path.write_text(json.dumps(self.raw))
        # Built for the set-up time only: cli.main rebuilds all of it on
        # every call, as `soc-lab train` does.
        cfg = cli.load_config(config_path)
        problem = cli.build_problem(cfg)
        return {"config": config_path, "problem": problem,
                "grid": cli.build_grid(cfg, problem),
                "control": cli.build_control(cfg, problem),
                "reference": None}

    def run(self, state, seed, unit):
        out = work_dir() / f"train-{unit}"
        argv = ["train", "--seed", str(seed), "--out", str(out)]
        if state["config"] is not None:
            argv += ["--config", str(state["config"])]
        return {"rc": cli.main(argv), "out": out}

    def check(self, state, result):
        out = result["out"]
        try:
            artifacts = {name: (out / name).read_bytes()
                         for name in ("history.csv", "checkpoint.json")
                         if (out / name).exists()}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if result["rc"] != 0 or len(artifacts) != 2:
            return (False, f"exit code {result['rc']}, artifacts "
                           f"{sorted(artifacts)}", artifacts)
        rows = artifacts["history.csv"].decode().splitlines()[1:]
        finite = all(math.isfinite(float(cell))
                     for row in rows for cell in row.split(","))
        if state["reference"] is None:
            state["reference"] = artifacts
        same = artifacts == state["reference"]
        ok = len(rows) == self.n_iters and finite and same
        return (ok, f"exit 0, {len(rows)} history rows "
                    f"({'all finite' if finite else 'NON-FINITE'}), "
                    f"artifacts {'identical to' if same else 'DIFFER from'} "
                    f"the run's first unit", artifacts)


class SolverSweepD4:
    """Every backward solver, loss and the MSA step on a d = 4 LQ batch."""

    name = "solver_sweep_d4"
    d = 4
    n_intervals = 4

    def __init__(self, tiny):
        self.n_steps, self.n_paths = (10, 64) if tiny else (100, 1024)
        self.path_steps = self.n_paths * self.n_steps

    def build(self):
        d = self.d
        a_mat = -0.5 * np.eye(d) + 0.1 * np.eye(d, k=1)
        problem = sl.make_lq_problem(a_mat, np.eye(d), np.eye(d),
                                     0.5 * np.eye(d), np.eye(d), 1.0)
        piece = np.concatenate([(-0.4 * np.eye(d)).ravel(), np.full(d, 0.05)])
        control = sl.make_linear_feedback_control(
            d, d, self.n_intervals, 1.0,
            theta=np.tile(piece, self.n_intervals))
        return {"problem": problem, "control": control,
                "grid": sl.TimeGrid(self.n_steps, 1.0)}

    def run(self, state, seed, unit):
        problem, control = state["problem"], state["control"]
        batch = sl.simulate_batch(problem, control, state["grid"],
                                  _batch_seed(seed, unit), self.n_paths)
        lean = sl.solve_lean_adjoint(problem, control, batch)
        frozen = sl.freeze_control(control)
        full = sl.solve_first_order_adjoint(problem, frozen, batch)
        second = sl.solve_second_order_adjoint(problem, frozen, batch, full)
        props = sl.fundamental_matrix(problem, control, batch)
        fk = sl.feynman_kac_lean(problem, control, batch, props)
        return {
            "states": batch.states, "lean": lean.values, "full": full.values,
            "second": second.values, "propagators": props.matrices,
            "fk": fk.values,
            "g_lean": sl.lean_am_loss(problem, control, batch,
                                      lean).grad_theta,
            "g_bam": sl.bam_loss(problem, control, batch, full,
                                 second).grad_theta,
            "g_quad": sl.quadratic_am_loss(problem, control, batch,
                                           lean).grad_theta,
            "msa": sl.msa_exact_step(problem, control, batch, lean)}

    def _msa_oracle(self, states, lean):
        """Least-squares fit of u_theta(X_i, t_i) to -sigma' a_i = -a_i.

        Builds d u / d theta of the linear-feedback layout directly and
        solves the stacked system by Householder QR, folding the rows in
        step by step through the R factor of the augmented matrix
        [rows | target]. Every step has the same weight dt, so the
        weights drop out.
        """
        n, d = self.n_steps, self.d
        per = d * d + d
        n_params = self.n_intervals * per
        r_aug = np.zeros((0, n_params + 1))
        for i in range(n):
            base = per * min(self.n_intervals - 1,
                             math.floor(i * self.n_intervals / n + 1e-9))
            x = states[:, i]
            rows = np.zeros((len(x), d, n_params + 1))
            for c in range(d):
                rows[:, c, base + c * d:base + (c + 1) * d] = x
                rows[:, c, base + d * d + c] = 1.0
            rows[:, :, -1] = -lean[:, i]
            r_aug = np.linalg.qr(
                np.vstack([r_aug, rows.reshape(-1, n_params + 1)]), mode="r")
        return np.linalg.solve(r_aug[:n_params, :n_params],
                               r_aug[:n_params, -1])

    def check(self, state, result):
        bam = _rel_gap(result["g_bam"], result["g_lean"])
        quad = _rel_gap(result["g_quad"], result["g_lean"])
        fk = _rel_gap(result["fk"], result["lean"])
        msa = float(np.max(np.abs(
            result["msa"] - self._msa_oracle(result["states"],
                                             result["lean"]))))
        ok = bam <= 1e-12 and quad <= 1e-12 and fk <= 1e-10 and msa <= 1e-8
        return ok, (f"bam-lean {bam:.1e}, quadratic-lean {quad:.1e} "
                    f"(gates 1e-12); feynman-kac vs lean {fk:.1e} (gate "
                    f"1e-10); msa vs QR oracle {msa:.1e} (gate 1e-8)"), result


WORKLOADS = {cls.name: cls for cls in (AmGradientLQ, FreshEvalOU,
                                       TrainBuiltin, SolverSweepD4)}
