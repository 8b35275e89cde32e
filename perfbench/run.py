#!/usr/bin/env python3
"""soc-lab benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload am_gradient_lq --seed 1 \\
        --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from `src/`, never
from an installed copy. `--trace 0` measures the end-to-end metrics:
units of the workload run back to back for about `--seconds` of summed
wall time, and each unit's outputs are checked. `--trace 1`
runs set-up plus one unit untraced, then again under the layer tracer,
checks that both give bit-identical outputs and reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Span files go to
`perfbench/.out/`. `--tiny` shrinks every size, for the smoke test.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
# Metric names and units, and the workload list, come from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# Set-up is timed once in the measuring process and once in each of this
# many fresh interpreters, spread over the run's body so that they sample
# the machine's speed across the whole run; the reported set-up time is
# their median.
SETUP_PROBES = 6


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _check_source():
    if not (SRC / "soc_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no soc_lab package under {SRC}; run the "
                         f"benchmark from a full checkout")


def _import_package():
    """Put src/ first on sys.path and check soc_lab really comes from it."""
    _check_source()
    sys.path.insert(0, str(SRC))
    import soc_lab
    if pathlib.Path(soc_lab.__file__).resolve().parent != SRC / "soc_lab":
        raise SystemExit(f"error: soc_lab imported from {soc_lab.__file__}, "
                         f"not from {SRC}")


def timed_setup(name, tiny):
    """Import soc_lab, build the workload's problems and controls.

    Returns (seconds, workload, state).
    """
    start = time.perf_counter()
    _import_package()
    import workloads
    workload = workloads.WORKLOADS[name](tiny)
    state = workload.build()
    return time.perf_counter() - start, workload, state


def _probe_setup(args):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """`git describe --always --dirty`: the commit, marked if changed."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _openblas_threads(),
        "thread_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "SOC_LAB_DETERMINISTIC") if key in os.environ},
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# runs


def _run_unit(workload, state, seed, unit, build=False):
    """(seconds, ok, detail, outputs) of one unit; a raise is a failure.

    The seconds cover `run`, and `build` first when asked, but never the
    check.
    """
    start = time.perf_counter()
    try:
        if build:
            state = workload.build()
        result = workload.run(state, seed, unit)
    except Exception:
        traceback.print_exc()
        return (time.perf_counter() - start, False,
                traceback.format_exc(limit=0).strip(), None)
    elapsed = time.perf_counter() - start
    try:
        ok, detail, outputs = workload.check(state, result)
    except Exception:
        traceback.print_exc()
        return elapsed, False, "check raised", None
    return elapsed, ok, detail, outputs


def measure(args):
    """Untraced run: the end-to-end metrics."""
    setup_s, workload, state = timed_setup(args.workload, args.tiny)
    setups = [setup_s]
    print("env " + json.dumps(environment()))
    rates, times, failed, unit = [], [], 0, 0
    # Start another unit only if it should end less than half a unit past
    # --seconds, so the body lasts about --seconds whatever the unit size.
    while unit == 0 or (sum(times) + statistics.median(times) / 2
                        < args.seconds):
        elapsed, ok, detail, outputs = _run_unit(workload, state, args.seed,
                                                 unit)
        times.append(elapsed)
        if outputs is not None:  # the unit ran to the end
            rates.append(workload.path_steps / elapsed)
        failed += not ok
        print(f"unit {unit}: {elapsed:.3f} s, "
              f"{workload.path_steps / elapsed:.4g} path-steps/s, "
              f"{'ok' if ok else 'FAILED'}: {detail}")
        unit += 1
        # Probe k is due once k / (SETUP_PROBES + 1) of the body has run.
        while (len(setups) <= SETUP_PROBES and sum(times)
               >= len(setups) * args.seconds / (SETUP_PROBES + 1)):
            setups.append(_probe_setup(args))
    setups += [_probe_setup(args) for _ in range(SETUP_PROBES + 1
                                                 - len(setups))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"path_steps_per_s": statistics.median(rates or [0.0]),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": peak_rss_mb}
    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]}
               for spec in SPEC["end_to_end"]}
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"fail_ratio = {failed}/{unit} = {failed / unit:g}")
    return metrics, unit, failed


def _same_outputs(a, b):
    """True when both units' outputs agree bit for bit."""
    import numpy

    def bits(value):
        if isinstance(value, bytes):
            return value
        value = numpy.asarray(value)
        return value.dtype.str, value.shape, value.tobytes()

    return (a is not None and b is not None and a.keys() == b.keys()
            and all(bits(a[key]) == bits(b[key]) for key in a))


def traced(args):
    """Traced run: the per-layer metrics of build plus one unit.

    The trace overhead is the number of spans times the cost of one
    traced call, calibrated in this process. The traced wall minus the
    untraced wall is printed too, but the machine's speed swings by more
    than the overhead between two units, so it is not the metric.
    """
    _, workload, _ = timed_setup(args.workload, args.tiny)
    from tracer import GRID_WALKS, ROLLOUTS, Tracer, span_cost_s

    wall_plain, plain_ok, plain_detail, plain_outputs = _run_unit(
        workload, None, args.seed, 0, build=True)
    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        wall_traced, ok, detail, outputs = _run_unit(
            workload, None, args.seed, 0, build=True)
    finally:
        tracer.uninstall()
    identical = _same_outputs(plain_outputs, outputs)
    print(f"untraced: {'ok' if plain_ok else 'FAILED'}: {plain_detail}")
    print(f"traced: {'ok' if ok else 'FAILED'}: {detail}")
    print(f"traced outputs {'identical to' if identical else 'DIFFER from'} "
          f"untraced outputs")

    report = tracer.report()
    calls, counters = report["calls"], report["counters"]
    batches = max(1, sum(calls.get(layer, 0) for layer in ROLLOUTS))
    paths = counters.get("paths_drawn", 0)
    derived = {
        "noise.generators_per_path":
            report["draw_generators"] / paths if paths else 0.0,
        "control.calls_per_step":
            report["control_calls"] / (batches * workload.n_steps),
        "grid_walks_per_batch":
            sum(calls.get(layer, 0) for layer in GRID_WALKS) / batches,
        "batch.stored_mb": counters.get("stored_bytes", 0) / batches / 1e6,
        "trace.overhead_s": sum(calls.values()) * span_cost_s(),
    }
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            value = report["self_s"].get(layer, 0.0)
        elif kind == "calls":
            value = calls.get(layer, 0)
        else:
            value = derived[name]
        metrics[name] = {"value": value, "unit": spec["unit"]}

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file, {"workload": args.workload, "seed": args.seed,
                             "columns": ["id", "layer", "parent", "thread",
                                         "start_ns", "end_ns"],
                             "environment": environment(),
                             "metrics": metrics})
    print(f"untraced wall {wall_plain:.3f} s, traced wall {wall_traced:.3f} s "
          f"({sum(calls.values())} spans); spans in "
          f"{span_file.relative_to(ROOT)}")
    # A traced unit whose outputs differ from the untraced one fails.
    failed = (not plain_ok) + (not (ok and identical))
    return metrics, 2, failed


def run_all(seed, seconds, trace=0, tiny=False):
    """Every workload, each in its own process.

    Returns the result object of each workload that ran to the end, and
    an exit status that is 1 if any did not or was not correct.
    """
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--tiny"] if tiny else [])
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    return results, status


def main(argv=None):
    args = _parse(argv)
    _check_source()
    if args.workload == "all":
        results, status = run_all(args.seed, args.seconds, args.trace,
                                  args.tiny)
        print(json.dumps(results))
        return status
    try:
        if args.setup_probe:
            print(repr(timed_setup(args.workload, args.tiny)[0]))
            return 0
        print(f"workload {args.workload}, seed {args.seed}, "
              f"seconds {args.seconds:g}, trace {args.trace}"
              f"{', tiny sizes' if args.tiny else ''}")
        if args.trace:
            metrics, attempted, failed = traced(args)
        else:
            metrics, attempted, failed = measure(args)
    finally:
        if "workloads" in sys.modules:
            shutil.rmtree(sys.modules["workloads"].work_dir(),
                          ignore_errors=True)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
