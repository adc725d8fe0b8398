"""The contract of the public API on its scalar, sequence and path
arguments.

Every callable in `qhm.__all__` has one valid base call in TABLE. One
numeric scalar, sequence or path argument at a time is replaced by each
value of SWEEP, and by values that hypothesis draws: the call must return
or raise a ValidationError subclass, never anything else. A path that is
not a str or os.PathLike must not be taken as a file descriptor, so stdout
is still open after the path cases.

Counts, seeds and indices meet only invalid integers from hypothesis: a
valid count is a size, and a huge one would build a huge space. Sequences
(and the fixture key, a str) meet scalars and text. Paths meet no text from
hypothesis: a str is a valid path, and what the file system says of it is
not a property of the API; SWEEP holds the one str no file can have, with
a NUL byte."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhm
from qhm import (
    ExperimentResult,
    FiniteMetricSpace,
    GlueSpec,
    InconsistencyError,
    QhmError,
    SignedMeasure,
    SolverError,
    ValidationError,
    Verdict,
    ascent_oracle,
    atomic,
    ball_chain,
    ball_discretization,
    classify,
    diameter,
    energy,
    energy_bilinear,
    euclidean_cloud,
    fixture,
    fixture_keys,
    glue,
    glued_invariant,
    glued_m_predict,
    inner_extended,
    inner_zero,
    interval_grid,
    invariant_measure,
    kernel_flat_values,
    load_measure,
    load_space,
    m_constant,
    measure,
    potential,
    random_metric,
    regular_polygon_arc,
    run_converge,
    run_equal_glue_demo,
    run_glue_diverge,
    save_measure,
    save_space,
    seminorm_zero,
    sequence_diagnostics,
    subspace,
    uniform,
    validate_metric,
    verify_maximal,
)

# The adversarial values every swept argument meets.
SWEEP = [1.5, True, -1, 2 ** 63, 10 ** 400, "x", None, math.nan,
         np.float64(2), np.array(3.0), "a\0b"]

BIG = 2 ** 1100
REALS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(-BIG, BIG), st.booleans(), st.text(),
                  st.none())
# invalid counts only: a negative or a too large integer, or no integer
COUNTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-BIG, -1), st.integers(2 ** 63, BIG),
                   st.booleans(), st.text(), st.none())
PATHS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(-BIG, BIG), st.booleans(), st.none())

X = interval_grid(0, 1, 3)
MU = uniform(X)
NU = measure(X, [1.0, -1.0, 0.0])
PAIR = validate_metric([[0.0, 1.0], [1.0, 0.0]])
W = m_constant(PAIR).maximal_measure  # (1/2, 1/2), M = 1/2
CIRCLE = fixture("circle-8").space  # NonStrict
TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Row:
    """A valid base call `call(**kwargs)` and the names of its arguments
    that are real numbers, counts (seeds and indices too), sequences and
    paths."""

    call: object
    kwargs: dict
    reals: tuple = ()
    counts: tuple = ()
    sequences: tuple = ()
    paths: tuple = ()


def _record(make):
    """A result record, rebuilt field by field: records are made by the
    package and take no scalar of their own to check."""
    return Row(lambda: dataclasses.replace(make()), {})


def _write_csv(path):
    ExperimentResult("t", {}, ["a"], [{"a": 1.5}]).write_csv(path)


TABLE = {
    "AscentTrace": _record(lambda: ascent_oracle(X, iterations=10)),
    "Classification": _record(lambda: classify(X)),
    "Expected": _record(lambda: fixture("interval-5").expected),
    "ExperimentResult": Row(_write_csv, {"path": "result.csv"},
                            paths=("path",)),
    "FiniteMetricSpace": Row(FiniteMetricSpace,
                             {"labels": ("a", "b"), "dist": PAIR.dist},
                             sequences=("labels",)),
    "Fixture": _record(lambda: fixture("interval-5")),
    "GluePrediction": _record(lambda: glued_m_predict(0.5, 0.5, 1.0)),
    "GlueSpec": Row(GlueSpec, {"x": PAIR, "y": PAIR, "c": 1.0},
                    reals=("c",)),
    "InconsistencyError": Row(InconsistencyError,
                              {"msg": "m", "diagnostics": {}}),
    "InvariantSolve": _record(lambda: invariant_measure(X)),
    "KernelFlatValue": _record(
        lambda: kernel_flat_values(CIRCLE, classify(CIRCLE))[0]),
    "MDecision": _record(lambda: m_constant(X)),
    "MaximalityReport": _record(lambda: verify_maximal(PAIR, W, 0.5, 5)),
    "QhmError": Row(QhmError, {}),
    "SequenceRow": _record(lambda: sequence_diagnostics(X, [[0, 1, 2]],
                                                        [MU])[0]),
    "SignedMeasure": Row(SignedMeasure, {"space": X, "weights": [1, 0, 0]}),
    "SolverError": Row(SolverError, {}),
    "ValidationError": Row(ValidationError, {}),
    "Verdict": Row(Verdict, {"value": "Strict"}),
    "ascent_oracle": Row(ascent_oracle,
                         {"space": X, "iterations": 50, "seed": 0,
                          "blowup": 10.0},
                         reals=("blowup",), counts=("iterations", "seed")),
    "atomic": Row(atomic, {"space": X, "i": 1}, counts=("i",)),
    "ball_chain": Row(ball_chain, {"sizes": [6, 11]}, sequences=("sizes",)),
    "ball_discretization": Row(ball_discretization,
                               {"shells": 1, "points_per_shell": 4},
                               counts=("shells", "points_per_shell")),
    "classify": Row(classify, {"space": X, "tol": TOL}, reals=("tol",)),
    "diameter": Row(diameter, {"space": X}),
    "energy": Row(energy, {"space": X, "mu": MU}),
    "energy_bilinear": Row(energy_bilinear, {"space": X, "mu": MU, "nu": NU}),
    "euclidean_cloud": Row(euclidean_cloud,
                           {"coords": [[0, 0], [1, 0]], "labels": ["a", "b"]},
                           sequences=("labels",)),
    "fixture": Row(fixture, {"key": "interval-5"}, sequences=("key",)),
    "fixture_keys": Row(fixture_keys, {}),
    "glue": Row(glue, {"spec": GlueSpec(PAIR, PAIR, 1.0)}),
    "glued_invariant": Row(glued_invariant,
                           {"mu1": W, "mu2": W, "m_x": 0.5, "m_y": 0.5,
                            "c": 1.0},
                           reals=("m_x", "m_y", "c")),
    "glued_m_predict": Row(glued_m_predict, {"m_x": 0.5, "m_y": 0.5, "c": 1.0},
                           reals=("m_x", "m_y", "c")),
    "inner_extended": Row(inner_extended,
                          {"space": X, "m_value": 0.5, "mu": MU, "nu": MU},
                          reals=("m_value",)),
    "inner_zero": Row(inner_zero, {"space": X, "mu": NU, "nu": NU}),
    "interval_grid": Row(interval_grid, {"a": 0, "b": 2, "n": 3},
                         reals=("a", "b"), counts=("n",)),
    "invariant_measure": Row(invariant_measure, {"space": X, "tol": TOL},
                             reals=("tol",)),
    "kernel_flat_values": Row(kernel_flat_values,
                              {"space": CIRCLE, "cls": classify(CIRCLE)}),
    "load_measure": Row(load_measure, {"path": "measure.json", "space": X},
                        paths=("path",)),
    "load_space": Row(load_space, {"path": "space.json"}, paths=("path",)),
    "m_constant": Row(m_constant, {"space": X, "tol": TOL}, reals=("tol",)),
    "measure": Row(measure, {"space": X, "weights": [1, 0, 0]}),
    "potential": Row(potential, {"space": X, "mu": MU}),
    "random_metric": Row(random_metric, {"n": 3, "seed": 0},
                         counts=("n", "seed")),
    "regular_polygon_arc": Row(regular_polygon_arc, {"n": 4}, counts=("n",)),
    "run_converge": Row(run_converge,
                        {"family": "interval", "sizes": [3, 5], "seed": 0,
                         "tol": TOL},
                        reals=("tol",), counts=("seed",),
                        sequences=("sizes",)),
    "run_equal_glue_demo": Row(run_equal_glue_demo,
                               {"n_polygon": 3, "tol": TOL},
                               reals=("tol",), counts=("n_polygon",)),
    "run_glue_diverge": Row(run_glue_diverge,
                            {"sizes": [6, 11], "seed": 0, "tol": TOL},
                            reals=("tol",), counts=("seed",),
                            sequences=("sizes",)),
    "save_measure": Row(save_measure, {"mu": MU, "path": "measure.json"},
                        paths=("path",)),
    "save_space": Row(save_space, {"space": X, "path": "space.json"},
                      paths=("path",)),
    "seminorm_zero": Row(seminorm_zero, {"space": X, "mu": NU}),
    "sequence_diagnostics": Row(sequence_diagnostics,
                                {"full_space": X, "index_chain": [[0, 1, 2]],
                                 "measures": [MU]},
                                sequences=("index_chain", "measures")),
    "subspace": Row(subspace, {"space": X, "indices": [0, 1]},
                    sequences=("indices",)),
    "uniform": Row(uniform, {"space": X}),
    "validate_metric": Row(validate_metric,
                           {"matrix": PAIR.dist, "labels": ["a", "b"]},
                           sequences=("labels",)),
    "verify_maximal": Row(verify_maximal,
                          {"space": PAIR, "mu": W, "m_value": 0.5,
                           "trials": 5, "seed": 0, "tol": TOL},
                          reals=("m_value", "tol"),
                          counts=("trials", "seed")),
}

CASES = [(name, arg, kind) for name, row in sorted(TABLE.items())
         for kind in ("reals", "counts", "sequences", "paths")
         for arg in getattr(row, kind)]
STRATEGIES = {"reals": REALS, "counts": COUNTS, "sequences": REALS,
              "paths": PATHS}


@pytest.fixture(scope="module", autouse=True)
def files(tmp_path_factory):
    """Run in a directory that holds the base calls' files, and a space file
    named "x", so that the sweep's "x" names a file that exists."""
    here = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("contract"))
    for path in ("space.json", "x"):
        save_space(X, path)
    save_measure(MU, "measure.json")
    yield
    os.chdir(here)


def _call(name, arg, value):
    """The base call of `name` with `arg` replaced by `value`: its result,
    or the ValidationError it raised. Any other exception propagates."""
    row = TABLE[name]
    try:
        return row.call(**{**row.kwargs, arg: value})
    except ValidationError as exc:
        return exc


def test_every_export_has_a_row():
    callables = {name for name in qhm.__all__
                 if callable(getattr(qhm, name))}
    assert set(TABLE) == callables


@pytest.mark.parametrize("name", sorted(TABLE))
def test_base_call_is_valid(name):
    row = TABLE[name]
    row.call(**row.kwargs)


@pytest.mark.parametrize("name, arg, kind", CASES)
def test_sweep(name, arg, kind):
    for value in SWEEP:
        _call(name, arg, value)
    os.fstat(1)


@pytest.mark.parametrize("name, arg, kind", CASES)
def test_drawn(name, arg, kind):
    @settings(max_examples=20, deadline=None)
    @given(value=STRATEGIES[kind])
    def check(value):
        _call(name, arg, value)

    check()
    os.fstat(1)


@pytest.mark.parametrize("name, arg, value", [
    ("interval_grid", "a", "0"), ("interval_grid", "a", True),
    ("inner_extended", "m_value", True), ("verify_maximal", "m_value", math.nan),
    ("save_space", "path", 1), ("save_measure", "path", True),
    ("load_space", "path", True), ("load_measure", "path", 1),
    ("ExperimentResult", "path", 1),
    ("run_converge", "tol", "x"), ("run_converge", "seed", "x"),
    ("run_glue_diverge", "tol", -1.0), ("run_glue_diverge", "seed", "x"),
    ("run_equal_glue_demo", "tol", math.nan)])
def test_silent_passes_now_raise(name, arg, value):
    # each of these used to build a space, return a number, pass a report
    # with no violations, take the integer as a file descriptor and close
    # it, or return rows that failed on a bad tolerance or recorded a bad
    # seed
    assert isinstance(_call(name, arg, value), ValidationError)
    os.fstat(1)
