"""The benchmark harness under perfbench/ reaches into qhm by name: its tracer
wraps the functions listed in TARGETS, and its report reads qhm.HAS_NUMBA.
A rename in qhm must fail here, not only in the harness's own tests."""

import importlib
import importlib.util
from pathlib import Path

import qhm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
