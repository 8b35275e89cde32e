"""Command-line experiment runner.

Subcommands (all driven by one JSON config; every run is a pure function
of the config file, so reruns produce byte-identical artifacts):

    soc-lab check    --config cfg.json [--out DIR] [--seed S] [--workers N]
    soc-lab train    ...
    soc-lab simulate ...
    soc-lab report   ... [--checkpoint PATH]

Exit codes: 0 success, 1 check/training failure, 2 config error. Failing
checks are named on stderr. With no --config the built-in default runs: a
scalar LQ instance equivalent to a unit-rate OU process (drift -x, noise
scale sqrt(2), stationary N(0,1) start) tilted by a quadratic terminal
cost over a horizon of 5.

The config validator rejects unknown keys and reports problems with
dotted paths (e.g. "train.step_size: expected a number"). Omitted
sections fall back to the defaults below; a present section is validated
key by key.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import math
import pathlib
import sys

import numpy as np

from . import _io
from .adjoint import (feynman_kac_lean, freeze_control, fundamental_matrix,
                      solve_first_order_adjoint, solve_lean_adjoint,
                      solve_second_order_adjoint, theta_gradient_via_adjoint)
from .control import (load_control, make_feature_linear_control,
                      make_linear_feedback_control,
                      make_one_hidden_layer_control, save_control)
from .errors import ConfigError, SocLabError, TrainingAborted, ValidationError
from .hamiltonians import (bam_loss, lean_am_loss,
                           per_path_lean_am_gradients)
from .oracle import (LQValueFunction, fd_pathwise_gradient,
                     fd_pathwise_hessian, hjb_residual_1d,
                     memorylessness_check, smp_representation_check)
from .problem import (DerivativeBundle, make_lq_problem, make_ou_tilt_problem,
                      make_scalar_geometric_problem, validate_derivatives)
from .simulate import TimeGrid, simulate_batch, write_trajectories_csv
from .train import (TrainConfig, evaluate_checkpoint, train_adjoint_matching,
                    write_history_csv, write_metrics_csv)

logger = logging.getLogger(__name__)

CHECK_NAMES = ("adjoint_vs_fd", "hessian_vs_fd", "first_variation",
               "sigma_collapse", "feynman_kac", "smp_representation",
               "memorylessness", "hjb_residual")

_PROBLEM_IDS = ("lq", "ou_tilt", "scalar_geometric")
_FAMILIES = ("linear_feedback", "feature_linear", "one_hidden_layer")
_BUNDLE_ENTRIES = tuple(f.name for f in dataclasses.fields(DerivativeBundle)
                        if f.name != "second_order")

_TRAIN_DEFAULTS = {
    "n_iters": 50,
    "paths_per_iter": 1024,
    "step_size": 0.5,
    "loss_kind": "lean_am",
    "resample_noise_each_iter": True,
    "trust_region_radius": None,
    "msa_exact": False,
}

_CHECK_DEFAULTS = {
    "n_paths": 10000,
    "probe_paths": 4,
}

DEFAULT_CONFIG = {
    "master_seed": 0,
    "out_dir": "soc_lab_out",
    "problem": {
        "id": "lq",
        "params": {
            "a_mat": -1.0,
            "b_mat": 1.0,
            "sigma": math.sqrt(2.0),
            "q_run": 0.0,
            "q_term": 1.0,
            "horizon": 5.0,
            "x0_mean": 0.0,
            "x0_cov": 1.0,
        },
    },
    "grid": {"n_steps": 500},
    "control": {"family": "linear_feedback", "n_intervals": 10,
                "theta": None},
    "train": dict(_TRAIN_DEFAULTS),
    "checks": list(CHECK_NAMES),
    "check_params": dict(_CHECK_DEFAULTS),
    "simulate": {"n_paths": 8},
    "report": {"n_paths": 20000},
}


# ---------------------------------------------------------------------------
# config validation (hand-rolled; unknown keys are errors)


def _reject_unknown(obj, path, allowed):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _take_int(obj, key, path, default=None):
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer, "
                          f"got {value!r}")
    return value


def _take_num(obj, key, path, default=None, allow_none=False):
    value = obj.get(key, default)
    if value is None and allow_none:
        return None
    if not _is_num(value):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _take_bool(obj, key, path, default=None):
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a boolean, got {value!r}")
    return value


def _take_str(obj, key, path, choices=None, default=None, required=True):
    if key not in obj:
        if not required:
            return default
        raise ConfigError(f"{path}.{key}: missing required key")
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {list(choices)}, "
                          f"got {value!r}")
    return value


def _matrix_like(value, path):
    """Accept a scalar or (nested) list of numbers; reject anything else."""
    if _is_num(value):
        return float(value)
    if isinstance(value, list):
        return [_matrix_like(item, path) for item in value]
    raise ConfigError(f"{path}: expected a number or nested list of numbers")


def _validate_problem(section):
    _reject_unknown(section, "problem", ("id", "params", "corrupt_entry"))
    pid = _take_str(section, "id", "problem", choices=_PROBLEM_IDS)
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("problem.params: expected an object")
    corrupt = _take_str(section, "corrupt_entry", "problem",
                        choices=_BUNDLE_ENTRIES, required=False)
    out = {"id": pid, "corrupt_entry": corrupt}
    path = "problem.params"
    if pid == "lq":
        _reject_unknown(params, path, ("a_mat", "b_mat", "sigma", "q_run",
                                       "q_term", "horizon", "x0_mean",
                                       "x0_cov"))
        for key in ("a_mat", "b_mat", "sigma", "q_run", "q_term"):
            if key not in params:
                raise ConfigError(f"{path}.{key}: missing required key")
            out[key] = _matrix_like(params[key], f"{path}.{key}")
        out["horizon"] = _take_num(params, "horizon", path)
        for key in ("x0_mean", "x0_cov"):
            if key in params:
                out[key] = _matrix_like(params[key], f"{path}.{key}")
            else:
                out[key] = None
    elif pid == "ou_tilt":
        _reject_unknown(params, path, ("rate", "tilt", "horizon"))
        out["rate"] = _take_num(params, "rate", path)
        out["tilt"] = _take_num(params, "tilt", path)
        out["horizon"] = _take_num(params, "horizon", path)
    else:  # scalar_geometric
        _reject_unknown(params, path, ("nu", "horizon", "x0_mean", "x0_std"))
        out["nu"] = _take_num(params, "nu", path, default=0.2)
        out["horizon"] = _take_num(params, "horizon", path, default=1.0)
        out["x0_mean"] = _take_num(params, "x0_mean", path, default=1.0)
        out["x0_std"] = _take_num(params, "x0_std", path, default=0.2)
    return out


def _validate_control(section):
    _reject_unknown(section, "control",
                    ("family", "n_intervals", "features", "width", "theta"))
    family = _take_str(section, "family", "control", choices=_FAMILIES)
    out = {"family": family}
    theta = section.get("theta")
    if theta is not None:
        if not (isinstance(theta, list) and all(_is_num(v) for v in theta)):
            raise ConfigError("control.theta: expected a list of numbers "
                              "or null")
        out["theta"] = [float(v) for v in theta]
    else:
        out["theta"] = None
    if family == "linear_feedback":
        out["n_intervals"] = _take_int(section, "n_intervals", "control",
                                       default=1)
        if "features" in section or "width" in section:
            raise ConfigError("control: features/width only apply to "
                              "feature_linear/one_hidden_layer families")
    elif family == "feature_linear":
        features = section.get("features")
        if not (isinstance(features, list) and features
                and all(isinstance(f, str) for f in features)):
            raise ConfigError("control.features: expected a non-empty list "
                              "of feature strings")
        out["features"] = list(features)
        if "n_intervals" in section or "width" in section:
            raise ConfigError("control: n_intervals/width do not apply to "
                              "feature_linear")
    else:
        out["width"] = _take_int(section, "width", "control", default=16)
        if "n_intervals" in section or "features" in section:
            raise ConfigError("control: n_intervals/features do not apply "
                              "to one_hidden_layer")
    return out


def _validate_train(section):
    _reject_unknown(section, "train", tuple(_TRAIN_DEFAULTS))
    merged = dict(_TRAIN_DEFAULTS)
    merged["n_iters"] = _take_int(section, "n_iters", "train",
                                  default=merged["n_iters"])
    merged["paths_per_iter"] = _take_int(section, "paths_per_iter", "train",
                                         default=merged["paths_per_iter"])
    merged["step_size"] = _take_num(section, "step_size", "train",
                                    default=merged["step_size"])
    merged["loss_kind"] = _take_str(section, "loss_kind", "train",
                                    choices=("lean_am", "bam",
                                             "quadratic_am"),
                                    required=False,
                                    default=merged["loss_kind"])
    merged["resample_noise_each_iter"] = _take_bool(
        section, "resample_noise_each_iter", "train",
        default=merged["resample_noise_each_iter"])
    merged["trust_region_radius"] = _take_num(
        section, "trust_region_radius", "train",
        default=merged["trust_region_radius"], allow_none=True)
    merged["msa_exact"] = _take_bool(section, "msa_exact", "train",
                                     default=merged["msa_exact"])
    return merged


def _check_seed(seed):
    """Seeds key the Philox streams directly, so they must fit 64 bits."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"config.master_seed: must be in [0, 2**64), "
                          f"got {seed}")
    return seed


def validate_config(raw):
    """Normalize a raw config dict: defaults applied, unknown keys rejected.

    Raises ConfigError with a dotted key path on the first violation.
    """
    _reject_unknown(raw, "config",
                    ("master_seed", "out_dir", "problem", "grid", "control",
                     "train", "checks", "check_params", "simulate", "report"))
    for key in ("problem", "grid", "control"):
        if key not in raw:
            raise ConfigError(f"config.{key}: missing required key")
    cfg = {}
    cfg["master_seed"] = _check_seed(
        _take_int(raw, "master_seed", "config", default=0))
    cfg["out_dir"] = _take_str(raw, "out_dir", "config", required=False,
                               default=DEFAULT_CONFIG["out_dir"])
    cfg["problem"] = _validate_problem(raw["problem"])

    grid = raw["grid"]
    _reject_unknown(grid, "grid", ("n_steps",))
    cfg["grid"] = {"n_steps": _take_int(grid, "n_steps", "grid")}
    if cfg["grid"]["n_steps"] < 1:
        raise ConfigError("grid.n_steps: must be >= 1")

    cfg["control"] = _validate_control(raw["control"])
    cfg["train"] = _validate_train(raw.get("train", {}))

    checks = raw.get("checks", list(CHECK_NAMES))
    if not isinstance(checks, list):
        raise ConfigError("config.checks: expected a list of check names")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError(f"config.checks: unknown check {name!r}; "
                              f"known: {list(CHECK_NAMES)}")
    cfg["checks"] = list(checks)

    params = raw.get("check_params", {})
    _reject_unknown(params, "check_params", tuple(_CHECK_DEFAULTS))
    cfg["check_params"] = {
        "n_paths": _take_int(params, "n_paths", "check_params",
                             default=_CHECK_DEFAULTS["n_paths"]),
        "probe_paths": _take_int(params, "probe_paths", "check_params",
                                 default=_CHECK_DEFAULTS["probe_paths"]),
    }

    sim = raw.get("simulate", {})
    _reject_unknown(sim, "simulate", ("n_paths",))
    cfg["simulate"] = {"n_paths": _take_int(sim, "n_paths", "simulate",
                                            default=8)}
    rep = raw.get("report", {})
    _reject_unknown(rep, "report", ("n_paths",))
    cfg["report"] = {"n_paths": _take_int(rep, "n_paths", "report",
                                          default=20000)}
    return cfg


def load_config(path):
    """Read and validate a JSON config; None loads the built-in default."""
    if path is None:
        return validate_config(copy.deepcopy(DEFAULT_CONFIG))
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    return validate_config(raw)


# ---------------------------------------------------------------------------
# builders


def _corrupted(problem, entry):
    """Scale one derivative-bundle entry by 1.01 (negative-test hook)."""
    original = getattr(problem.derivatives, entry)

    def skewed(*args):
        return 1.01 * np.asarray(original(*args), dtype=np.float64)

    bundle = dataclasses.replace(problem.derivatives, **{entry: skewed})
    return dataclasses.replace(problem, derivatives=bundle)


def build_problem(cfg):
    spec = cfg["problem"]
    pid = spec["id"]
    try:
        if pid == "lq":
            problem = make_lq_problem(
                spec["a_mat"], spec["b_mat"], spec["sigma"], spec["q_run"],
                spec["q_term"], spec["horizon"], x0_mean=spec["x0_mean"],
                x0_cov=spec["x0_cov"])
        elif pid == "ou_tilt":
            problem = make_ou_tilt_problem(spec["rate"], spec["tilt"],
                                           spec["horizon"])
        else:
            problem = make_scalar_geometric_problem(
                nu=spec["nu"], horizon=spec["horizon"],
                x0_mean=spec["x0_mean"], x0_std=spec["x0_std"])
    except ValidationError as exc:
        raise ConfigError(f"problem.params: {exc}")
    if spec["corrupt_entry"] is not None:
        problem = _corrupted(problem, spec["corrupt_entry"])
    return problem


def build_grid(cfg, problem):
    return TimeGrid(n_steps=cfg["grid"]["n_steps"], horizon=problem.horizon)


def build_control(cfg, problem):
    spec = cfg["control"]
    theta = None if spec["theta"] is None else np.asarray(spec["theta"])
    try:
        if spec["family"] == "linear_feedback":
            return make_linear_feedback_control(
                problem.d, problem.k, spec["n_intervals"], problem.horizon,
                theta=theta)
        if spec["family"] == "feature_linear":
            return make_feature_linear_control(
                problem.d, problem.k, spec["features"], problem.horizon,
                theta=theta)
        return make_one_hidden_layer_control(
            problem.d, problem.k, spec["width"], problem.horizon, theta=theta)
    except ValidationError as exc:
        raise ConfigError(f"control: {exc}")


# ---------------------------------------------------------------------------
# checks


@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fd_check_grid(problem):
    """Grid with dt ~ 1e-3 for FD-vs-adjoint identities (O(dt) agreement)."""
    return TimeGrid(n_steps=max(1, round(problem.horizon / 1e-3)),
                    horizon=problem.horizon)


def _check_adjoint_vs_fd(problem, control, grid, seed, params, out_file):
    fine = _fd_check_grid(problem)
    batch = simulate_batch(problem, control, fine, seed, params["probe_paths"])
    full = solve_first_order_adjoint(problem, control, batch)
    rows = []
    worst = 0.0
    for j, traj in enumerate(batch):
        fd = fd_pathwise_gradient(problem, control, fine, traj.noise,
                                  traj.x0, step=1e-5)
        a0 = full.values[j, 0]
        rel = float(np.linalg.norm(a0 - fd) / max(1.0, np.linalg.norm(fd)))
        worst = max(worst, rel)
        rows.append([j, rel, bool(rel <= 1e-3)])
    _io.write_csv(out_file, ["path", "rel_err", "pass"], rows)
    return worst <= 1e-3, f"max rel err {worst:.3e} (gate 1e-3)"


def _check_hessian_vs_fd(problem, control, grid, seed, params, out_file):
    fine = _fd_check_grid(problem)
    batch = simulate_batch(problem, control, fine, seed, params["probe_paths"])
    full = solve_first_order_adjoint(problem, control, batch)
    second = solve_second_order_adjoint(problem, control, batch, full)
    rows = []
    worst = 0.0
    for j, traj in enumerate(batch):
        fd = fd_pathwise_hessian(problem, control, fine, traj.noise, traj.x0,
                                 step=1e-4)
        a0 = second.values[j, 0]
        rel = float(np.linalg.norm(a0 - fd) / max(1.0, np.linalg.norm(fd)))
        worst = max(worst, rel)
        rows.append([j, rel, bool(rel <= 1e-2)])
    _io.write_csv(out_file, ["path", "rel_err", "pass"], rows)
    return worst <= 1e-2, f"max rel err {worst:.3e} (gate 1e-2)"


def _check_first_variation(problem, control, grid, seed, params, out_file):
    """Matching-loss gradient vs direct objective gradient, 3 combined SE.

    The loss side pairs the integrated-Hamiltonian gradient with the
    total-derivative first-order adjoints (the convention under which the
    equality holds at arbitrary parameters, not just at critical points);
    both sides share the same simulated batch.
    """
    n_paths = params["n_paths"]
    batch = simulate_batch(problem, control, grid, seed, n_paths)
    full = solve_first_order_adjoint(problem, control, batch)
    g_am = per_path_lean_am_gradients(problem, control, batch, full)
    g_dir = theta_gradient_via_adjoint(problem, control, batch, full)
    mean_am = g_am.mean(axis=0)
    mean_dir = g_dir.mean(axis=0)
    se_am = g_am.std(axis=0, ddof=1) / math.sqrt(n_paths)
    se_dir = g_dir.std(axis=0, ddof=1) / math.sqrt(n_paths)
    combined = np.sqrt(se_am**2 + se_dir**2)
    rows = []
    ok = True
    for p in range(control.n_params):
        gap = abs(mean_am[p] - mean_dir[p])
        bound = 3.0 * combined[p] + 1e-12
        rows.append([p, float(mean_am[p]), float(mean_dir[p]),
                     float(combined[p]), bool(gap <= bound)])
        ok = ok and gap <= bound
    _io.write_csv(out_file, ["param", "grad_am", "grad_direct",
                             "combined_se", "pass"], rows)
    return ok, "componentwise gap vs 3 combined SE"


def _check_sigma_collapse(problem, control, grid, seed, params, out_file):
    if not problem.diffusion_time_only:
        return False, "problem diffusion depends on state or control"
    batch = simulate_batch(problem, control, grid, seed,
                           min(params["n_paths"], 2048))
    lean = solve_lean_adjoint(problem, control, batch)
    frozen = freeze_control(control)
    full = solve_first_order_adjoint(problem, frozen, batch)
    second = solve_second_order_adjoint(problem, frozen, batch, full)
    lean_report = lean_am_loss(problem, control, batch, lean)
    bam_report = bam_loss(problem, control, batch, full, second)
    gap = float(np.max(np.abs(lean_report.grad_theta
                              - bam_report.grad_theta)))
    denom = max(1.0, float(np.max(np.abs(lean_report.grad_theta))))
    rel = gap / denom
    _io.write_csv(out_file, ["max_abs_grad_gap", "rel_gap", "pass"],
                  [[gap, rel, bool(rel <= 1e-12)]])
    return rel <= 1e-12, f"gradient gap {rel:.3e} (gate 1e-12)"


def _check_feynman_kac(problem, control, grid, seed, params, out_file):
    batch = simulate_batch(problem, control, grid, seed, 16)
    lean = solve_lean_adjoint(problem, control, batch)
    props = fundamental_matrix(problem, control, batch)
    recon = feynman_kac_lean(problem, control, batch, props)
    scale = max(1.0, float(np.max(np.abs(lean.values))))
    rel = float(np.max(np.abs(recon.values - lean.values))) / scale
    _io.write_csv(out_file, ["max_rel_gap", "pass"],
                  [[rel, bool(rel <= 1e-10)]])
    return rel <= 1e-10, f"max rel gap {rel:.3e} (gate 1e-10)"


def _check_smp_representation(problem, control, grid, seed, params, out_file):
    report = smp_representation_check(problem, grid, params["n_paths"], seed)
    report.to_csv(out_file)
    return report.passed, f"max |z| {report.max_abs_z:.2f} (gate 3)"


def _check_memorylessness(problem, control, grid, seed, params, out_file):
    report = memorylessness_check(problem, grid, params["n_paths"], seed)
    report.to_csv(out_file)
    return report.passed, (f"max |corr| {report.max_abs_corr:.4f} "
                           f"(gate {report.threshold:.4f})")


def _check_hjb_residual(problem, control, grid, seed, params, out_file):
    horizon = problem.horizon
    if problem.lq_data is not None:
        value_fn = LQValueFunction(problem)
        t_grid = np.linspace(0.05 * horizon, 0.95 * horizon, 21)
        x_grid = np.linspace(-3.0, 3.0, 21)
        report = hjb_residual_1d(problem, control, x_grid, t_grid, 0, seed,
                                 value_fn=value_fn)
        report.to_csv(out_file)
        worst = report.max_abs_residual
        return worst <= 1e-4, f"max |residual| {worst:.3e} (gate 1e-4)"
    t_grid = np.linspace(0.2 * horizon, 0.8 * horizon, 5)
    x_grid = np.linspace(0.6, 1.4, 5)
    report = hjb_residual_1d(problem, control, x_grid, t_grid,
                             max(params["n_paths"], 8 * 500), seed)
    report.to_csv(out_file)
    ratio = report.max_ratio(floor_multiple=5.0)
    reliable = all(r.reliable for r in report.rows)
    if not reliable:
        return True, "marked unreliable (too few paths); not gated"
    return ratio <= 1.0, f"max residual/floor ratio {ratio:.2f} (gate 1, 5x floor)"


_CHECKS = {
    "adjoint_vs_fd": _check_adjoint_vs_fd,
    "hessian_vs_fd": _check_hessian_vs_fd,
    "first_variation": _check_first_variation,
    "sigma_collapse": _check_sigma_collapse,
    "feynman_kac": _check_feynman_kac,
    "smp_representation": _check_smp_representation,
    "memorylessness": _check_memorylessness,
    "hjb_residual": _check_hjb_residual,
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(cfg, out_dir):
    problem = build_problem(cfg)
    seed = cfg["master_seed"]
    try:
        validate_derivatives(problem, n_probes=8, seed=seed)
    except ValidationError as exc:
        print(f"check failed: problem.validation — {exc}", file=sys.stderr)
        return 1
    grid = build_grid(cfg, problem)
    control = build_control(cfg, problem)
    params = cfg["check_params"]
    failures = []
    for name in cfg["checks"]:
        out_file = out_dir / f"check_{name}.csv"
        try:
            passed, detail = _CHECKS[name](problem, control, grid, seed,
                                           params, out_file)
        except SocLabError as exc:
            passed, detail = False, str(exc)
        logger.info("check %s: %s (%s)", name,
                    "pass" if passed else "FAIL", detail)
        if not passed:
            failures.append((name, detail))
    for name, detail in failures:
        print(f"check failed: {name} — {detail}", file=sys.stderr)
    return 1 if failures else 0


def cmd_train(cfg, out_dir):
    problem = build_problem(cfg)
    grid = build_grid(cfg, problem)
    control = build_control(cfg, problem)
    tc = cfg["train"]
    try:
        config = TrainConfig(
            n_iters=tc["n_iters"], paths_per_iter=tc["paths_per_iter"],
            step_size=tc["step_size"], master_seed=cfg["master_seed"],
            loss_kind=tc["loss_kind"],
            resample_noise_each_iter=tc["resample_noise_each_iter"],
            trust_region_radius=tc["trust_region_radius"],
            msa_exact=tc["msa_exact"])
    except ValidationError as exc:
        raise ConfigError(f"train: {exc}")
    try:
        trained, history = train_adjoint_matching(problem, control, grid,
                                                  config)
    except TrainingAborted as exc:
        write_history_csv(exc.history, out_dir / "history.csv")
        print(f"training failed: {exc}", file=sys.stderr)
        return 1
    write_history_csv(history, out_dir / "history.csv")
    save_control(trained, out_dir / "checkpoint.json")
    return 0


def cmd_simulate(cfg, out_dir):
    problem = build_problem(cfg)
    grid = build_grid(cfg, problem)
    control = build_control(cfg, problem)
    batch = simulate_batch(problem, control, grid, cfg["master_seed"],
                           cfg["simulate"]["n_paths"])
    write_trajectories_csv(batch, out_dir / "trajectories.csv")
    return 0


def cmd_report(cfg, out_dir, checkpoint):
    problem = build_problem(cfg)
    grid = build_grid(cfg, problem)
    path = pathlib.Path(checkpoint) if checkpoint else out_dir / "checkpoint.json"
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    control = load_control(path)
    metrics = evaluate_checkpoint(problem, control, grid, cfg["master_seed"],
                                  cfg["report"]["n_paths"])
    write_metrics_csv(metrics, out_dir / "metrics.csv")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="soc-lab",
        description="Stochastic optimal control experiments: invariant "
                    "checks, adjoint-matching training, simulation, and "
                    "checkpoint reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("check", "run invariant/diagnostic checks, one CSV each"),
            ("train", "train a control; writes history.csv and "
                      "checkpoint.json"),
            ("simulate", "simulate paths under the configured control"),
            ("report", "evaluate a trained checkpoint on fresh paths")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None,
                       help="JSON config path (default: built-in LQ config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override config master_seed")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted and ignored; draws are serial")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config out_dir)")
        if name == "report":
            p.add_argument("--checkpoint", default=None,
                           help="checkpoint JSON (default: OUT/checkpoint.json)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["master_seed"] = _check_seed(args.seed)
        out_dir = pathlib.Path(args.out if args.out else cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        return cmd_report(cfg, out_dir, args.checkpoint)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SocLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
