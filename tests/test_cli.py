"""Config validation, subcommands, exit codes, and artifact determinism."""

import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from soc_lab import cli


def _write_config(path, **overrides):
    cfg = {
        "master_seed": 3,
        "out_dir": str(path.parent / "default_out"),
        "problem": {
            "id": "lq",
            "params": {"a_mat": 0.3, "b_mat": 1.0, "sigma": 0.8,
                       "q_run": 0.5, "q_term": 1.0, "horizon": 1.0},
        },
        "grid": {"n_steps": 50},
        "control": {"family": "linear_feedback", "n_intervals": 2},
        "train": {"n_iters": 3, "paths_per_iter": 64, "step_size": 1.0},
        "checks": [],
        "simulate": {"n_paths": 4},
        "report": {"n_paths": 500},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


# ---------------------------------------------------------------------------
# config validation


def test_validate_config_applies_defaults():
    cfg = cli.validate_config({
        "problem": {"id": "ou_tilt",
                    "params": {"rate": 1.0, "tilt": 1.0, "horizon": 4.0}},
        "grid": {"n_steps": 100},
        "control": {"family": "linear_feedback"},
    })
    assert cfg["master_seed"] == 0
    assert cfg["train"]["step_size"] == 0.5
    assert cfg["train"]["loss_kind"] == "lean_am"
    assert cfg["control"]["n_intervals"] == 1
    assert cfg["checks"] == list(cli.CHECK_NAMES)
    assert cfg["check_params"]["n_paths"] == 10000
    assert cfg["report"]["n_paths"] == 20000


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c.update({"momentum": 0.9}), "config.momentum"),
    (lambda c: c.pop("problem"), "config.problem"),
    (lambda c: c["grid"].update({"n_steps": "many"}), "grid.n_steps"),
    (lambda c: c["train"].update({"step_size": "big"}), "train.step_size"),
    (lambda c: c["problem"]["params"].pop("sigma"), "problem.params.sigma"),
    (lambda c: c["control"].update({"family": "transformer"}),
     "control.family"),
    (lambda c: c.update({"checks": ["no_such_check"]}), "config.checks"),
    (lambda c: c["grid"].update({"n_steps": 0}), "grid.n_steps: must be >= 1"),
    (lambda c: c["train"].update({"n_iters": 0}), "train.n_iters"),
    (lambda c: c["train"].update({"paths_per_iter": 0}),
     "train.paths_per_iter"),
    (lambda c: c.update({"check_params": {"n_paths": 0}}),
     "check_params.n_paths"),
    (lambda c: c.update({"check_params": {"probe_paths": 0}}),
     "check_params.probe_paths"),
    (lambda c: c.update({"simulate": {"n_paths": 0}}), "simulate.n_paths"),
    (lambda c: c.update({"report": {"n_paths": 0}}), "report.n_paths"),
])
def test_validate_config_names_the_offending_key(mutate, fragment):
    raw = {
        "problem": {"id": "lq",
                    "params": {"a_mat": 0.0, "b_mat": 1.0, "sigma": 1.0,
                               "q_run": 0.0, "q_term": 1.0, "horizon": 1.0}},
        "grid": {"n_steps": 10},
        "control": {"family": "linear_feedback"},
        "train": {},
    }
    mutate(raw)
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(raw)
    assert fragment in str(err.value)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_master_seed_outside_64_bits_is_refused(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, master_seed=seed)
    with pytest.raises(cli.ConfigError, match="config.master_seed"):
        cli.load_config(cfg)
    _write_config(cfg)
    code = cli.main(["simulate", "--config", str(cfg), "--seed", str(seed),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config.master_seed" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, key", [
    (lambda c: c["train"].update(step_size=float("inf")), "train.step_size"),
    (lambda c: c["train"].update(trust_region_radius=float("nan")),
     "train.trust_region_radius"),
    (lambda c: c["problem"]["params"].update(horizon=float("nan")),
     "problem.params.horizon"),
    (lambda c: c["problem"]["params"].update(sigma=[float("-inf")]),
     "problem.params.sigma"),
])
def test_non_finite_numbers_are_refused(tmp_path, capsys, mutate, key):
    """JSON's NaN and Infinity literals fail at load, naming the key."""
    cfg = tmp_path / "cfg.json"
    raw = _write_config(cfg)
    mutate(raw)
    cfg.write_text(json.dumps(raw))
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.json").exists()


def test_schema_tables_match_their_builders():
    """A renamed builder keyword cannot orphan a config key."""
    for builder, table in cli._PROBLEMS.values():
        params = inspect.signature(builder).parameters
        assert {key: default for key, (_, default) in table.items()} == \
            {name: p.default for name, p in params.items()}
    for builder, knobs in cli._CONTROLS.values():
        params = inspect.signature(builder).parameters
        assert set(params) == {"d", "k", "horizon", "theta", *knobs}
        assert params["theta"].default is None
    cfg = cli.validate_config(cli.DEFAULT_CONFIG)
    assert cli.validate_config(cfg) == cfg


def test_control_section_rejects_mismatched_knobs():
    base = {
        "problem": {"id": "lq",
                    "params": {"a_mat": 0.0, "b_mat": 1.0, "sigma": 1.0,
                               "q_run": 0.0, "q_term": 1.0, "horizon": 1.0}},
        "grid": {"n_steps": 10},
    }
    with pytest.raises(cli.ConfigError):
        cli.validate_config(dict(base, control={
            "family": "linear_feedback", "width": 8}))
    with pytest.raises(cli.ConfigError):
        cli.validate_config(dict(base, control={"family": "feature_linear"}))


def test_load_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.load_config(bad)
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]")
    with pytest.raises(cli.ConfigError):
        cli.load_config(toplevel)
    assert cli.load_config(None)["problem"]["id"] == "lq"


# ---------------------------------------------------------------------------
# subcommands (in-process via cli.main)


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n_steps": 10}}))
    code = cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_simulate_writes_trajectories(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    lines = (out / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "path,i,t,x_0,u_0"
    # 4 paths x (50 interior nodes + terminal row)
    assert len(lines) == 1 + 4 * 51


def test_train_and_report_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    history = out / "history.csv"
    checkpoint = out / "checkpoint.json"
    assert history.exists() and checkpoint.exists()
    lines = history.read_text().strip().splitlines()
    assert lines[0] == "iter,loss,grad_norm,objective,objective_se,step_norm"
    assert len(lines) == 4

    assert cli.main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "metric,value"
    names = {line.split(",")[0] for line in metrics[1:]}
    assert {"objective", "objective_se", "n_paths"} <= names

    explicit = tmp_path / "elsewhere"
    assert cli.main(["report", "--config", str(cfg), "--out", str(explicit),
                     "--checkpoint", str(checkpoint)]) == 0
    assert (explicit / "metrics.csv").exists()


def test_training_that_blows_up_forward_still_writes_history(tmp_path,
                                                             capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, problem={"id": "scalar_geometric", "params": {}},
                  grid={"n_steps": 200},
                  control={"family": "linear_feedback", "n_intervals": 1,
                           "theta": [80.0, 0.0]},
                  train={"n_iters": 3, "paths_per_iter": 4,
                         "step_size": 0.1})
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "state became non-finite" in capsys.readouterr().err
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert lines == ["iter,loss,grad_norm,objective,objective_se,step_norm"]
    assert not (out / "checkpoint.json").exists()


def test_report_without_checkpoint_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    code = cli.main(["report", "--config", str(cfg),
                     "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "checkpoint not found" in capsys.readouterr().err


def test_report_on_malformed_checkpoint_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps({
        "family": "linear_feedback", "theta": [0.0, 0.0],
        "structure": {"d": 1, "k": 1, "horizon": 1.0}}))
    code = cli.main(["report", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--checkpoint", str(checkpoint)])
    assert code == 1
    assert "error: malformed control JSON" in capsys.readouterr().err


def test_artifacts_are_rerun_invariant(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(out)]) == 0
    ref_hist = (outs[0] / "history.csv").read_bytes()
    ref_ckpt = (outs[0] / "checkpoint.json").read_bytes()
    assert (outs[1] / "history.csv").read_bytes() == ref_hist
    assert (outs[1] / "checkpoint.json").read_bytes() == ref_ckpt

    seeded = tmp_path / "s"
    assert cli.main(["train", "--config", str(cfg), "--out", str(seeded),
                     "--seed", "9"]) == 0
    assert (seeded / "checkpoint.json").read_bytes() != ref_ckpt


def test_check_subcommand_passes_on_sound_problem(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, checks=["feynman_kac", "sigma_collapse"],
                  check_params={"n_paths": 512})
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "check_feynman_kac.csv").exists()
    assert (out / "check_sigma_collapse.csv").exists()
    collapse = (out / "check_sigma_collapse.csv").read_text().splitlines()
    assert collapse[0] == "max_abs_grad_gap,rel_gap,pass"
    assert collapse[1] == "0.0,0.0,1"  # gradient collapse is exact


def test_check_with_no_checks_still_validates_problem(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, checks=[])
    assert cli.main(["check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0


def test_corrupt_bundle_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, checks=[])
    base["problem"]["corrupt_entry"] = "d1_drift"
    cfg.write_text(json.dumps(base))
    code = cli.main(["check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "problem.validation" in err and "d1_drift" in err


def test_corrupting_a_declared_zero_entry_is_a_config_error(tmp_path,
                                                            capsys):
    """The LQ bundle declares dsigma_dx zero (None): there is nothing to
    scale, so the negative-test hook refuses instead of testing nothing."""
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, checks=[])
    base["problem"]["corrupt_entry"] = "dsigma_dx"
    cfg.write_text(json.dumps(base))
    code = cli.main(["check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "problem.corrupt_entry" in err and "dsigma_dx" in err


def test_failing_check_is_named_on_stderr(tmp_path, capsys):
    # memorylessness on a short-horizon problem genuinely fails
    cfg = tmp_path / "cfg.json"
    _write_config(
        cfg,
        problem={"id": "ou_tilt",
                 "params": {"rate": 1.0, "tilt": 1.0, "horizon": 0.2}},
        checks=["memorylessness"],
        check_params={"n_paths": 2000})
    code = cli.main(["check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "check failed: memorylessness" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "out"
    # the child imports the soc_lab under test, installed or not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "soc_lab.cli", "simulate",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectories.csv").exists()
