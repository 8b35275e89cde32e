"""Command-line experiment runner.

Subcommands (all driven by one JSON config; every run is a pure function
of the config file, so reruns produce byte-identical artifacts):

    soc-lab check    --config cfg.json [--out DIR] [--seed S]
    soc-lab train    ...
    soc-lab simulate ...
    soc-lab report   ... [--checkpoint PATH]

Exit codes: 0 success, 1 check/training failure, 2 config error. Failing
checks are named on stderr. With no --config the built-in default runs: a
scalar LQ instance equivalent to a unit-rate OU process (drift -x, noise
scale sqrt(2), stationary N(0,1) start) tilted by a quadratic terminal
cost over a horizon of 5.

The config schema is one table per section (see `_CONFIG`): it rejects
unknown keys and reports problems with dotted paths (e.g.
"train.step_size: expected a finite number"). Omitted sections and keys
fall back to the tables' defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
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
from .train import (_LOSS_KINDS, TrainConfig, evaluate_checkpoint,
                    train_adjoint_matching, write_history_csv,
                    write_metrics_csv)

logger = logging.getLogger(__name__)

CHECK_NAMES = ("adjoint_vs_fd", "hessian_vs_fd", "first_variation",
               "sigma_collapse", "feynman_kac", "smp_representation",
               "memorylessness", "hjb_residual")

_BUNDLE_ENTRIES = tuple(f.name for f in dataclasses.fields(DerivativeBundle)
                        if f.name != "second_order")


# ---------------------------------------------------------------------------
# config schema: a section is a table {key: (kind, default)}; a kind checks
# and normalizes one value, naming its dotted path on failure

_REQUIRED = inspect.Parameter.empty  # a builder parameter's "no default"


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _count(value, path):
    if _integer(value, path) < 1:
        raise ConfigError(f"{path}: must be >= 1, got {value}")
    return value


def _seed(value, path):
    """Seeds key the Philox streams directly, so they must fit 64 bits."""
    if not 0 <= _integer(value, path) < 2 ** 64:
        raise ConfigError(f"{path}: must be in [0, 2**64), got {value}")
    return value


def _number(value, path):
    """A finite number as a float; JSON's NaN and Infinity are refused."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _matrix(value, path):
    """A number or a (nested) list of numbers."""
    if isinstance(value, list):
        return [_matrix(item, path) for item in value]
    return _number(value, path)


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean, got {value!r}")
    return value


def _string(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _choice(*choices):
    def kind(value, path):
        if _string(value, path) not in choices:
            raise ConfigError(f"{path}: expected one of {list(choices)}, "
                              f"got {value!r}")
        return value
    return kind


def _list_of(item_kind):
    def kind(value, path):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [item_kind(item, f"{path}[{i}]")
                for i, item in enumerate(value)]
    return kind


def _section(raw, path, table):
    """`raw` checked against `table`, with every omitted key's default.

    Unknown keys are refused; a key whose default is None also takes null.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in raw:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key")
    out = {}
    for key, (kind, default) in table.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required key")
        out[key] = (None if value is None and default is None
                    else kind(value, f"{path}.{key}"))
    return out


def _object(path, table):
    """Kind of a nested section; its errors start at its own dotted path."""
    return lambda raw, _: _section(raw, path, table)


def _keywords(builder, **kinds):
    """(builder, table): one kind per keyword, with the builder's default."""
    params = inspect.signature(builder).parameters
    return builder, {key: (kind, params[key].default)
                     for key, kind in kinds.items()}


def _tagged(raw, path, tag, tables):
    """The table that raw[tag] picks, for a section whose keys depend on it."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    if tag not in raw:
        raise ConfigError(f"{path}.{tag}: missing required key")
    return tables[_choice(*tables)(raw[tag], f"{path}.{tag}")][1]


# Each problem id and control family maps to (builder, table); the table's
# keys are the builder's keywords. The control builders take d, k and
# horizon from the problem.
_PROBLEMS = {
    "lq": _keywords(make_lq_problem, a_mat=_matrix, b_mat=_matrix,
                    sigma=_matrix, q_run=_matrix, q_term=_matrix,
                    horizon=_number, x0_mean=_matrix, x0_cov=_matrix),
    "ou_tilt": _keywords(make_ou_tilt_problem, rate=_number, tilt=_number,
                         horizon=_number),
    "scalar_geometric": _keywords(make_scalar_geometric_problem, nu=_number,
                                  horizon=_number, x0_mean=_number,
                                  x0_std=_number),
}

_CONTROLS = {
    "linear_feedback": (make_linear_feedback_control,
                        {"n_intervals": (_integer, 1)}),
    "feature_linear": (make_feature_linear_control,
                       {"features": (_list_of(_string), _REQUIRED)}),
    "one_hidden_layer": (make_one_hidden_layer_control,
                         {"width": (_integer, 16)}),
}


def _problem(raw, _):
    return _section(raw, "problem", {
        "id": (_string, _REQUIRED),
        "params": (_object("problem.params",
                           _tagged(raw, "problem", "id", _PROBLEMS)), {}),
        "corrupt_entry": (_choice(*_BUNDLE_ENTRIES), None)})


def _control(raw, _):
    return _section(raw, "control", {
        "family": (_string, _REQUIRED),
        "theta": (_list_of(_number), None),
        **_tagged(raw, "control", "family", _CONTROLS)})


_TRAIN = {
    "n_iters": (_count, 50),
    "paths_per_iter": (_count, 1024),
    "step_size": (_number, 0.5),
    "loss_kind": (_choice(*_LOSS_KINDS), "lean_am"),
    "resample_noise_each_iter": (_boolean, True),
    "trust_region_radius": (_number, None),
    "msa_exact": (_boolean, False),
}
_CHECK_PARAMS = {"n_paths": (_count, 10000), "probe_paths": (_count, 4)}
_SIMULATE = {"n_paths": (_count, 8)}
_REPORT = {"n_paths": (_count, 20000)}

_CONFIG = {
    "master_seed": (_seed, 0),
    "out_dir": (_string, "soc_lab_out"),
    "problem": (_problem, _REQUIRED),
    "grid": (_object("grid", {"n_steps": (_count, _REQUIRED)}), _REQUIRED),
    "control": (_control, _REQUIRED),
    "train": (_object("train", _TRAIN), {}),
    "checks": (_list_of(_choice(*CHECK_NAMES)), list(CHECK_NAMES)),
    "check_params": (_object("check_params", _CHECK_PARAMS), {}),
    "simulate": (_object("simulate", _SIMULATE), {}),
    "report": (_object("report", _REPORT), {}),
}


def _defaults(table):
    return {key: default for key, (_, default) in table.items()}


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
    "train": _defaults(_TRAIN),
    "checks": list(CHECK_NAMES),
    "check_params": _defaults(_CHECK_PARAMS),
    "simulate": _defaults(_SIMULATE),
    "report": _defaults(_REPORT),
}


def validate_config(raw):
    """Normalize a raw config dict: defaults applied, unknown keys rejected.

    The result is itself a valid config. Raises ConfigError with a dotted
    key path on the first violation.
    """
    return _section(raw, "config", _CONFIG)


def load_config(path):
    """Read and validate a JSON config; None loads the built-in default."""
    if path is None:
        return validate_config(DEFAULT_CONFIG)
    try:
        raw = json.loads(pathlib.Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return validate_config(raw)


# ---------------------------------------------------------------------------
# builders


def _corrupted(problem, entry):
    """Scale one derivative-bundle entry by 1.01 (negative-test hook)."""
    original = getattr(problem.derivatives, entry)
    if original is None:
        raise ConfigError(
            f"problem.corrupt_entry: {entry} is declared identically zero "
            f"by problem {problem.name!r}; there is nothing to corrupt")

    def skewed(*args):
        return 1.01 * np.asarray(original(*args), dtype=np.float64)

    bundle = dataclasses.replace(problem.derivatives, **{entry: skewed})
    return dataclasses.replace(problem, derivatives=bundle)


def build_problem(cfg):
    spec = cfg["problem"]
    builder, _ = _PROBLEMS[spec["id"]]
    try:
        problem = builder(**spec["params"])
    except ValidationError as exc:
        raise ConfigError(f"problem.params: {exc}")
    if spec["corrupt_entry"] is not None:
        problem = _corrupted(problem, spec["corrupt_entry"])
    return problem


def build_grid(cfg, problem):
    return TimeGrid(n_steps=cfg["grid"]["n_steps"], horizon=problem.horizon)


def build_control(cfg, problem):
    spec = dict(cfg["control"])
    builder, _ = _CONTROLS[spec.pop("family")]
    try:
        return builder(problem.d, problem.k, horizon=problem.horizon, **spec)
    except ValidationError as exc:
        raise ConfigError(f"control: {exc}")


# ---------------------------------------------------------------------------
# checks


def _check_vs_fd(second_order, problem, control, grid, seed, params,
                 out_file):
    """The full (or second-order) adjoint at t = 0 against pathwise FD of
    the same discrete functional, per probe path on a dt ~ 1e-3 grid (the
    identities hold to O(dt))."""
    fd, step, gate = ((fd_pathwise_hessian, 1e-4, 1e-2) if second_order
                      else (fd_pathwise_gradient, 1e-5, 1e-3))
    fine = TimeGrid(n_steps=max(1, round(problem.horizon / 1e-3)),
                    horizon=problem.horizon)
    batch = simulate_batch(problem, control, fine, seed, params["probe_paths"])
    adjoints = solve_first_order_adjoint(problem, control, batch)
    if second_order:
        adjoints = solve_second_order_adjoint(problem, control, batch,
                                              adjoints)
    rows = []
    for j, traj in enumerate(batch):
        want = fd(problem, control, fine, traj.noise, traj.x0, step=step)
        rel = float(np.linalg.norm(adjoints.values[j, 0] - want)
                    / max(1.0, np.linalg.norm(want)))
        rows.append([j, rel, bool(rel <= gate)])
    _io.write_csv(out_file, ["path", "rel_err", "pass"], rows)
    worst = max(rel for _, rel, _ in rows)
    return worst <= gate, f"max rel err {worst:.3e} (gate {gate:.0e})"


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
    "adjoint_vs_fd": functools.partial(_check_vs_fd, False),
    "hessian_vs_fd": functools.partial(_check_vs_fd, True),
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
    try:
        config = TrainConfig(master_seed=cfg["master_seed"], **cfg["train"])
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
            cfg["master_seed"] = _seed(args.seed, "config.master_seed")
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
