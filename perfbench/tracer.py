"""Layer spans recorded from outside soc_lab, by wrapping its public calls.

The tracer replaces every binding of each traced function: the defining
module's attribute, and the same function object imported by name into
any other `soc_lab` module (`soc_lab`, `soc_lab.train`, `soc_lab.cli`,
`soc_lab.hamiltonians`, ...). Methods are wrapped on their class.
`uninstall` puts every original binding back.

Spans are kept in memory, one list and one open-span stack per thread.
`draw_batch_inputs` fills paths in worker threads; a span that opens on a
worker thread with an empty stack takes as its parent the innermost span
open on the thread that installed the tracer, which is blocked waiting for
the workers. See `Tracer.report` for how self time is attributed when
threads overlap.
"""

import collections
import functools
import itertools
import json
import statistics
import threading
import time

# (module, qualified name) -> layer. Two entries may share a layer.
LAYERS = {
    ("soc_lab.simulate", "draw_batch_inputs"): "noise.draw",
    ("soc_lab.problem", "ProblemSpec.sample_initial"): "noise.initial_state",
    ("soc_lab._rng", "philox_generator"): "noise.rng_gen",
    ("soc_lab.simulate", "simulate_batch"): "simulate.rollout",
    ("soc_lab.simulate", "simulate_costs"): "simulate.costs",
    ("soc_lab.adjoint", "solve_lean_adjoint"): "adjoint.lean",
    ("soc_lab.adjoint", "solve_first_order_adjoint"): "adjoint.full",
    ("soc_lab.adjoint", "solve_second_order_adjoint"): "adjoint.second_order",
    ("soc_lab.adjoint", "fundamental_matrix"): "adjoint.propagator",
    ("soc_lab.adjoint", "feynman_kac_lean"): "adjoint.propagator",
    ("soc_lab.adjoint", "theta_gradient_via_adjoint"): "adjoint.theta_grad",
    ("soc_lab.hamiltonians", "lean_am_loss"): "loss.lean_am",
    ("soc_lab.hamiltonians", "per_path_lean_am_gradients"):
        "loss.per_path_lean_am",
    ("soc_lab.hamiltonians", "bam_loss"): "loss.bam",
    ("soc_lab.hamiltonians", "quadratic_am_loss"): "loss.quadratic_am",
    ("soc_lab.train", "msa_exact_step"): "train.msa_step",
    ("soc_lab.train", "train_adjoint_matching"): "train.loop",
    ("soc_lab.control", "ControlModel.evaluate"): "control.evaluate",
    ("soc_lab.control", "ControlModel.jacobians"): "control.jacobians",
    ("soc_lab.control", "ControlModel.state_jacobian"):
        "control.state_jacobian",
    ("soc_lab.problem", "validate_derivatives"): "problem.validate",
    ("soc_lab.cli", "load_config"): "cli.config",
    ("soc_lab.cli", "build_problem"): "cli.config",
    ("soc_lab.cli", "build_grid"): "cli.config",
    ("soc_lab.cli", "build_control"): "cli.config",
    ("soc_lab._io", "write_csv"): "io.write",
    ("soc_lab.control", "save_control"): "io.write",
}

# Layers that walk the whole time grid once per call.
GRID_WALKS = ("simulate.rollout", "simulate.costs", "adjoint.lean",
              "adjoint.full", "adjoint.second_order", "adjoint.propagator",
              "adjoint.theta_grad", "loss.lean_am", "loss.per_path_lean_am",
              "loss.bam", "loss.quadratic_am", "train.msa_step")
ROLLOUTS = ("simulate.rollout", "simulate.costs")
CONTROL_CALLS = ("control.evaluate", "control.jacobians",
                 "control.state_jacobian")


def _nbytes(*arrays):
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _batch_bytes(args, kwargs, result):
    return {"stored_bytes": _nbytes(result.states, result.controls,
                                    result.increments, result.pathwise_costs)}


def _increment_bytes(args, kwargs, result):
    increments = args[4] if len(args) > 4 else kwargs["increments"]
    return {"stored_bytes": _nbytes(increments)}


def _values_bytes(args, kwargs, result):
    return {"stored_bytes": _nbytes(getattr(result, "values", None),
                                    getattr(result, "matrices", None))}


def _paths_drawn(args, kwargs, result):
    start = args[4] if len(args) > 4 else kwargs["start"]
    stop = args[5] if len(args) > 5 else kwargs["stop"]
    return {"paths_drawn": stop - start}


# What each layer adds to the tracer's counters, computed from the call.
MEASURES = {
    "noise.draw": _paths_drawn,
    "simulate.rollout": _batch_bytes,
    "simulate.costs": _increment_bytes,
    "adjoint.lean": _values_bytes,
    "adjoint.full": _values_bytes,
    "adjoint.second_order": _values_bytes,
    "adjoint.propagator": _values_bytes,
}


def _resolve(modules, module_name, qualname):
    owner = modules[module_name]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps soc_lab's layer functions and records one span per call."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = []  # (thread id, span list) per thread seen
        self._lock = threading.Lock()
        self._main_stack = None
        self._main_thread = None
        self._restore = []
        self.counters = {}

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # (open-span stack, finished spans)
            self._local.state = state
            with self._lock:
                self._threads.append((threading.get_ident(), state[1]))
        return state

    def _wrap(self, layer, fn):
        measure = MEASURES.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._thread_state()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                try:
                    parent = main[-1] if main is not stack else None
                except IndexError:
                    parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, layer, parent, start, end))
            if measure is not None:
                for key, amount in measure(args, kwargs, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + amount
            return result

        return traced

    # -- binding -----------------------------------------------------------

    def install(self, modules):
        """Wrap every binding of each traced function in `modules`.

        `modules` maps module names to soc_lab module objects, as
        `sys.modules` does.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._thread_state()[0]
        self._main_thread = threading.get_ident()
        owned = [(name, mod) for name, mod in modules.items()
                 if name == "soc_lab" or name.startswith("soc_lab.")]
        for (module_name, qualname), layer in LAYERS.items():
            owner, name = _resolve(modules, module_name, qualname)
            original = vars(owner)[name]
            wrapper = self._wrap(layer, original)
            bindings = [(owner, name)]
            if "." not in qualname:
                bindings += [(mod, attr) for _, mod in owned if mod is not owner
                             for attr, value in vars(mod).items()
                             if value is original]
            for target, attr in bindings:
                setattr(target, attr, wrapper)
                self._restore.append((target, attr, original))

    def uninstall(self):
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore = []

    # -- analysis ----------------------------------------------------------

    def spans(self):
        """All finished spans as (id, layer, parent id, thread, start, end)."""
        with self._lock:
            threads = list(self._threads)
        out = []
        for thread_id, spans in threads:
            out.extend((sid, layer, parent, thread_id, start, end)
                       for sid, layer, parent, start, end in spans)
        out.sort(key=lambda s: s[4])
        return out

    def report(self):
        """Per-layer self seconds and call counts, plus the derived counts.

        Self time is wall time attributed by a sweep over span boundaries:
        each instant goes to the innermost open span of every thread that
        has one, split evenly between them. The installing thread is left
        out while any other thread has a span open, because it is then
        waiting for those threads. Summed over layers, self time equals
        the wall time covered by spans.
        """
        spans = self.spans()
        by_id = {s[0]: s for s in spans}
        timed = [s for s in spans if s[5] > s[4]]
        events = sorted([(s[4], 1, s[0]) for s in timed]
                        + [(s[5], 0, -s[0]) for s in timed])
        stacks = {}
        self_s = {}
        last = events[0][0] if events else 0
        for when, is_start, key in events:
            if when > last:
                open_threads = [t for t, st in stacks.items() if st]
                others = [t for t in open_threads if t != self._main_thread]
                active = others or open_threads
                share = (when - last) / 1e9 / len(active) if active else 0.0
                for thread in active:
                    layer = by_id[stacks[thread][-1]][1]
                    self_s[layer] = self_s.get(layer, 0.0) + share
                last = when
            span = by_id[key if is_start else -key]
            stack = stacks.setdefault(span[3], [])
            if is_start:
                stack.append(span[0])
            else:
                stack.remove(span[0])

        calls = collections.Counter(s[1] for s in spans)

        def under_draw(span):
            while span[2] is not None:
                span = by_id[span[2]]
                if span[1] == "noise.draw":
                    return True
            return False

        draw_generators = sum(1 for s in spans
                              if s[1] == "noise.rng_gen" and under_draw(s))
        control_calls = sum(
            1 for s in spans if s[1] in CONTROL_CALLS
            and (s[2] is None or by_id[s[2]][1] not in CONTROL_CALLS))
        return {"self_s": self_s, "calls": dict(calls),
                "draw_generators": draw_generators,
                "control_calls": control_calls,
                "counters": dict(self.counters)}

    def write(self, path, header):
        """Write `header` and every span to `path` as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def span_cost_s(calls=100_000, repeats=5):
    """Wall seconds one traced call adds to the call it wraps.

    Times `calls` calls of a no-op function, bare and wrapped as `Tracer`
    wraps a layer, and returns the median over `repeats` of the
    difference per call. The wrapper records into a tracer of its own.
    """
    def noop():
        return None

    probe = Tracer()
    probe._main_stack, spans = probe._thread_state()
    wrapped = probe._wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
        spans.clear()
    return statistics.median(costs)
