"""The public surface of the package, pinned: each callable in
`qhm.__all__` with its parameter names, each optional parameter with its
default as `name=default`, each exported dataclass with its field names,
the Verdict members and the arguments of the exceptions that take their
own. A parameter, field or export added or removed, or a default moved,
shows up here as a deliberate change of this file."""

import dataclasses
import enum
import inspect

import qhm

CONSTANTS = {"DEFAULT_TOL", "HAS_NUMBA"}

SURFACE = {
    "AscentTrace": (
        "iterations", "best_values", "best_value", "best_measure", "status",
        "iterations_run"),
    "Classification": (
        "verdict", "eigenvalues", "margin", "tol_used", "restricted_values",
        "restricted_vectors", "witness", "kernel_basis"),
    "Expected": (
        "verdict", "m_status", "m_value", "reason", "measure", "measure_value",
        "note"),
    "ExperimentResult": ("name", "metadata", "columns", "rows"),
    "FiniteMetricSpace": ("labels", "dist", "name"),
    "Fixture": ("key", "space", "expected"),
    "GluePrediction": ("kind", "value"),
    "GlueSpec": ("x", "y", "c"),
    "InconsistencyError": ("msg", "diagnostics=None"),
    "InvariantSolve": ("measure", "value", "residual", "unique"),
    "KernelFlatValue": ("vector", "value", "deviation"),
    "MDecision": (
        "status", "value", "maximal_measure", "reason", "witness",
        "diagnostics"),
    "MaximalityReport": (
        "flatness", "dominance_violations", "worst_excess", "norm_squared",
        "identity_gap", "trials"),
    "QhmError": (),
    "SequenceRow": ("k", "n_k", "i_mu", "flatness", "seminorm_step"),
    "SignedMeasure": ("space", "weights"),
    "SolverError": (),
    "ValidationError": (),
    "Verdict": ("NOT_QUASIHYPERMETRIC", "STRICT", "NON_STRICT"),
    "ascent_oracle": (
        "space", "iterations=100000", "seed=0", "blowup=None"),
    "atomic": ("space", "i"),
    "ball_chain": ("sizes",),
    "ball_discretization": ("shells", "points_per_shell"),
    "classify": ("space", "tol=1e-09"),
    "diameter": ("space",),
    "energy": ("space", "mu"),
    "energy_bilinear": ("space", "mu", "nu"),
    "euclidean_cloud": ("coords", "labels=None", "name=''"),
    "fixture": ("key",),
    "fixture_keys": (),
    "glue": ("spec",),
    "glued_invariant": ("mu1", "mu2", "m_x", "m_y", "c"),
    "glued_m_predict": ("m_x", "m_y", "c"),
    "inner_extended": ("space", "m_value", "mu", "nu"),
    "inner_zero": ("space", "mu", "nu"),
    "interval_grid": ("a", "b", "n"),
    "invariant_measure": ("space", "tol=1e-09"),
    "kernel_flat_values": ("space", "cls"),
    "load_measure": ("path", "space"),
    "load_space": ("path",),
    "m_constant": ("space", "tol=1e-09"),
    "measure": ("space", "weights"),
    "potential": ("space", "mu"),
    "random_metric": ("n", "seed"),
    "regular_polygon_arc": ("n",),
    "run_converge": ("family", "sizes", "seed=0", "tol=1e-09"),
    "run_equal_glue_demo": ("n_polygon", "tol=1e-09"),
    "run_glue_diverge": ("sizes", "seed=0", "tol=1e-09"),
    "save_measure": ("mu", "path"),
    "save_space": ("space", "path"),
    "seminorm_zero": ("space", "mu"),
    "sequence_diagnostics": ("full_space", "index_chain", "measures"),
    "subspace": ("space", "indices"),
    "uniform": ("space",),
    "validate_metric": ("matrix", "labels=None", "name=''"),
    "verify_maximal": (
        "space", "mu", "m_value", "trials=1000", "seed=0", "tol=1e-09"),
}


def _shape(obj):
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return tuple(m.name for m in obj)
    if isinstance(obj, type):  # an exception: its own arguments, if any
        if "__init__" not in vars(obj):
            return ()
        return _parameters(obj.__init__)[1:]
    return _parameters(obj)


def _parameters(func):
    return tuple(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                 for p in inspect.signature(func).parameters.values())


def test_exports():
    assert set(qhm.__all__) == set(SURFACE) | CONSTANTS
    assert not any(callable(getattr(qhm, name)) for name in CONSTANTS)


def test_parameters_and_fields():
    assert {name: _shape(getattr(qhm, name)) for name in SURFACE} == SURFACE
