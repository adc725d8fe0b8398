"""Per-layer spans recorded around the public functions of each qhm module.

The tracer edits nothing under ``src/``. While it is installed it replaces
each traced function by a timing wrapper in every qhm module that holds a
reference to it, so calls are caught where the caller imported the name
(``qhm.msolver.classify``, ``qhm.spaces.worst_triangle_deficit``,
``qhm.experiments.m_constant``, ...). Leaving the ``with`` block restores
the originals.

Spans are kept in memory as ``(name, start, end, parent, request)`` tuples;
a layer's self time is its span duration minus the durations of its direct
children. Counts that repeat exactly (cells of each dense O(n^3) operation,
factorizations, ascent iterations, JSON bytes) are recorded at the same
boundaries.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_triangle(counts, args, kwargs, result):
    n = args[0].shape[0]
    counts["kernels.triangle_scan.cells"] += n ** 3


def _count_classify(counts, args, kwargs, result):
    n = args[0].n
    if n > 1:  # one eigh of the (n-1)-dimensional restricted form
        counts["classify.eigh_cells"] += (n - 1) ** 3
        counts["factorizations"] += 1


def _count_invariant(counts, args, kwargs, result):
    n = args[0].n  # one SVD least-squares solve of the bordered system
    counts["msolver.lstsq_cells"] += (n + 1) ** 3
    counts["factorizations"] += 1


def _count_step(counts, args, kwargs, result):
    if args[0].n > 1:  # one eigvalsh of the distance matrix
        counts["factorizations"] += 1


def _count_ascent(counts, args, kwargs, result):
    counts["msolver.ascent.iterations"] += result.iterations_run


def _count_json_out(counts, args, kwargs, result):
    counts["spaces.json.bytes"] += len(result)


def _count_json_in(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["spaces.json.bytes"] += len(text)


# (module, function, span name, counter); the span name is the layer metric
# prefix.
TARGETS = [
    ("qhm.spaces", "validate_metric", "spaces.validate_metric", None),
    ("qhm.spaces", "ball_discretization", "spaces.build", None),
    ("qhm.spaces", "euclidean_cloud", "spaces.build", None),
    ("qhm.spaces", "subspace", "spaces.build", None),
    ("qhm.spaces", "glue", "spaces.build", None),
    ("qhm.spaces", "interval_grid", "spaces.build", None),
    ("qhm.spaces", "regular_polygon_arc", "spaces.build", None),
    ("qhm.spaces", "random_metric", "spaces.build", None),
    ("qhm.spaces", "space_to_json", "spaces.json", _count_json_out),
    ("qhm.spaces", "space_from_json", "spaces.json", _count_json_in),
    ("qhm.spaces", "save_space", "spaces.json", None),
    ("qhm.spaces", "load_space", "spaces.json", None),
    ("qhm._kernels", "worst_triangle_deficit", "kernels.triangle_scan",
     _count_triangle),
    ("qhm.energy", "energy", "energy", None),
    ("qhm.energy", "energy_bilinear", "energy", None),
    ("qhm.energy", "potential", "energy", None),
    ("qhm.energy", "measure", "energy", None),
    ("qhm.energy", "uniform", "energy", None),
    ("qhm.energy", "atomic", "energy", None),
    ("qhm.energy", "seminorm_zero", "energy", None),
    ("qhm.energy", "inner_zero", "energy", None),
    ("qhm.energy", "inner_extended", "energy", None),
    ("qhm.classify", "classify", "classify", _count_classify),
    ("qhm.msolver", "m_constant", "msolver.m_constant", None),
    ("qhm.msolver", "invariant_measure", "msolver.invariant_measure",
     _count_invariant),
    ("qhm.msolver", "ascent_oracle", "msolver.ascent", _count_ascent),
    ("qhm.msolver", "ascent_step_default", "msolver.ascent_step_default",
     _count_step),
    ("qhm.msolver", "sequence_diagnostics", "msolver.sequence_diagnostics",
     None),
    ("qhm.experiments", "run_converge", "experiments", None),
    ("qhm.experiments", "run_glue_diverge", "experiments", None),
    ("qhm.experiments", "ball_chain", "experiments", None),
    ("qhm.fixtures", "fixture", "fixtures.fixture", None),
    ("qhm.cli", "main", "cli.main", None),
]

MODULES = ["qhm", "qhm.spaces", "qhm._kernels", "qhm.energy", "qhm.classify",
           "qhm.msolver", "qhm.experiments", "qhm.fixtures", "qhm.cli"]


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._restore = []

    def _wrap(self, span_name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent, self.request)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        for mod_name, attr, span_name, count in TARGETS:
            if mod_name not in sys.modules:
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()
        return False


def layer_totals(spans):
    """Per span name: (calls, self seconds). Self time subtracts children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = Counter()
    self_s = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
    return calls, self_s


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced pass, by metric name."""
    calls, self_s = layer_totals(spans)
    decisions = calls["msolver.m_constant"]
    return {
        "spaces.validate_metric.calls": calls["spaces.validate_metric"],
        "spaces.validate_metric.self_s": self_s["spaces.validate_metric"],
        "kernels.triangle_scan.calls": calls["kernels.triangle_scan"],
        "kernels.triangle_scan.s": self_s["kernels.triangle_scan"],
        "kernels.triangle_scan.cells": counts["kernels.triangle_scan.cells"],
        "spaces.build.s": self_s["spaces.build"],
        "spaces.json.s": self_s["spaces.json"],
        "spaces.json.bytes": counts["spaces.json.bytes"],
        "classify.calls": calls["classify"],
        "classify.s": self_s["classify"],
        "classify.eigh_cells": counts["classify.eigh_cells"],
        "msolver.m_constant.calls": decisions,
        "msolver.m_constant.self_s": self_s["msolver.m_constant"],
        "msolver.invariant_measure.calls": calls["msolver.invariant_measure"],
        "msolver.invariant_measure.s": self_s["msolver.invariant_measure"],
        "msolver.lstsq_cells": counts["msolver.lstsq_cells"],
        "msolver.factorizations_per_decision":
            counts["factorizations"] / decisions if decisions else 0.0,
        "msolver.ascent.calls": calls["msolver.ascent"],
        "msolver.ascent.iterations": counts["msolver.ascent.iterations"],
        "msolver.ascent.s": self_s["msolver.ascent"],
        "msolver.ascent_step_default.s": self_s["msolver.ascent_step_default"],
        "msolver.sequence_diagnostics.s":
            self_s["msolver.sequence_diagnostics"],
        "experiments.self_s": self_s["experiments"],
        "energy.calls": calls["energy"],
        "energy.s": self_s["energy"],
        "fixtures.fixture.calls": calls["fixtures.fixture"],
        "fixtures.fixture.s": self_s["fixtures.fixture"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.self_sum_s": sum(self_s.values()),
    }
