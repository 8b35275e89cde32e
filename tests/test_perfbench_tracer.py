"""The benchmark's layer tracer still finds every function it wraps.

`perfbench/tracer.py` wraps soc_lab's layer functions by module and name.
A refactor that renames or moves one of them breaks traced benchmark runs;
this catches it in the fast suite. The tracer is imported from its file,
as the benchmark runner does, and installed on the imported package.
"""

import importlib.util
import pathlib
import sys

import soc_lab as sl
import soc_lab.cli  # noqa: F401  (the tracer wraps cli functions too)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench/tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("soc_lab_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(modules, module_name, qualname):
    """(object holding the binding, attribute name) of one LAYERS entry."""
    owner = modules[module_name]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _bindings(modules, owners):
    """Every attribute of every package module and of `owners`, by owner."""
    return {id(obj): dict(vars(obj))
            for obj in list(modules.values()) + owners}


def test_tracer_wraps_every_layer_and_uninstall_restores_bindings():
    tracer_mod = _load_tracer()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "soc_lab" or name.startswith("soc_lab.")}
    missing = []
    for key in tracer_mod.LAYERS:
        try:
            owner, name = _owner(modules, *key)
        except (KeyError, AttributeError):
            missing.append(key)
            continue
        if name not in vars(owner):
            missing.append(key)
    assert not missing, f"tracer layers that no longer resolve: {missing}"
    owners = [_owner(modules, *key)[0] for key in tracer_mod.LAYERS
              if "." in key[1]]
    before = _bindings(modules, owners)
    problem = sl.make_lq_problem(0.3, 1.0, 0.8, 0.5, 1.0, 1.0)
    control = sl.make_linear_feedback_control(1, 1, 2, 1.0)

    tracer = tracer_mod.Tracer()
    tracer.install(modules)
    try:
        for key in tracer_mod.LAYERS:
            owner, name = _owner(modules, *key)
            assert vars(owner)[name].__wrapped__ is before[id(owner)][name]
        # called through the package namespace, as the workloads call them
        batch = sl.simulate_batch(problem, control, sl.TimeGrid(10, 1.0),
                                  0, 4)
        full = sl.solve_first_order_adjoint(problem, control, batch)
        sl.theta_gradient_via_adjoint(problem, control, batch, full)
        props = sl.fundamental_matrix(problem, control, batch)
        fk = sl.feynman_kac_lean(problem, control, batch, props)
    finally:
        tracer.uninstall()

    report = tracer.report()
    for layer, count in (("simulate.rollout", 1), ("adjoint.full", 1),
                         ("adjoint.theta_grad", 1), ("adjoint.propagator", 2)):
        assert report["calls"].get(layer) == count, layer
    # each stored array counted once: the batch, then every solver's values
    assert report["counters"]["stored_bytes"] == sum(a.nbytes for a in (
        batch.states, batch.controls, batch.increments, batch.pathwise_costs,
        full.values, props.matrices, fk.values))

    after = _bindings(modules, owners)
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        assert [name for name, value in attrs.items()
                if after[key][name] is not value] == []


def test_no_control_family_bypasses_the_wrapped_methods():
    """The tracer wraps evaluate / jacobians / state_jacobian on
    ControlModel itself; a family overriding one would never be counted."""
    families, pending = [], [sl.ControlModel]
    while pending:
        cls = pending.pop()
        families.append(cls)
        pending.extend(cls.__subclasses__())
    assert len(families) > 3
    wrapped = {"evaluate", "jacobians", "state_jacobian"}
    for cls in families[1:]:
        assert not wrapped & set(vars(cls)), cls.__name__
