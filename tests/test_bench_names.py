"""The benchmark harness under perfbench/ reaches into qhm by name: its tracer
wraps the functions listed in TARGETS, its report reads qhm.HAS_NUMBA, and
its workloads call qhm functions with the arguments of their signatures. A
rename or a removed parameter in qhm must fail here, not only in the
harness's own tests."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import qhm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    assert tracer.TARGETS
    missing = [(mod, attr) for mod, attr, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []
    for mod in tracer.MODULES:
        importlib.import_module(mod)


def test_report_flags_exist():
    assert hasattr(qhm, "HAS_NUMBA")


def _dotted(func):
    """"qhm.spaces.space_to_json" for a call target written that way, or
    None when the target is not an attribute chain from the name qhm."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not (isinstance(func, ast.Name) and func.id == "qhm" and parts):
        return None
    return ".".join(["qhm"] + parts[::-1])


def _qhm_calls():
    """(file, line, dotted name, call node) of every qhm.X(...) and
    qhm.<module>.X(...) call in perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _dotted(node.func):
                yield path.name, node.lineno, _dotted(node.func), node


def _resolve(dotted):
    module, name = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


def _unbound_calls():
    """Each benchmark call to qhm whose positional count and keyword names
    do not bind to the callee's current signature, as "file:line name:
    reason". A call that spreads *args or **kwargs binds only what it
    names."""
    problems = []
    for file, line, dotted, node in _qhm_calls():
        where = f"{file}:{line} {dotted}"
        try:
            target = _resolve(dotted)
        except (ImportError, AttributeError):
            problems.append(f"{where}: not found")
            continue
        spread = (any(isinstance(a, ast.Starred) for a in node.args)
                  or any(k.arg is None for k in node.keywords))
        args = [None for a in node.args if not isinstance(a, ast.Starred)]
        kwargs = {k.arg: None for k in node.keywords if k.arg is not None}
        try:
            signature = inspect.signature(target)
            if spread:
                signature.bind_partial(*args, **kwargs)
            else:
                signature.bind(*args, **kwargs)
        except TypeError as exc:
            problems.append(f"{where}: {exc}")
    return problems


def test_benchmark_calls_bind_to_the_signatures():
    calls = {dotted for _, _, dotted, _ in _qhm_calls()}
    # the walk sees the calls of every workload
    assert {"qhm.run_converge", "qhm.run_glue_diverge", "qhm.ascent_oracle",
            "qhm.m_constant", "qhm.load_space", "qhm.spaces.space_to_json",
            "qhm.cli.main"} <= calls
    assert _unbound_calls() == []


def test_binding_check_sees_a_removed_parameter(monkeypatch):
    # ball-sweep passes seed= to run_converge: without the parameter the
    # workload would raise TypeError
    def run_converge(family, sizes, tol=0.0):
        return None

    monkeypatch.setattr(qhm, "run_converge", run_converge)
    problems = _unbound_calls()
    assert problems and all("qhm.run_converge" in p for p in problems)
    assert any("'seed'" in p for p in problems)
