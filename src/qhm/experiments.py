"""Experiment harness: refinement sweeps, glue-divergence, equal-glue demo.

Each experiment returns an ExperimentResult whose rows serialize to a fixed
CSV schema (header row, UTF-8, '.' decimal); the caller writes them with
`write_csv`. Runs are deterministic given (sizes, seed): repeated runs
produce identical CSV bytes apart from the elapsed-time column. Failed rows
are recorded with an error message and the run continues.
"""

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict, check_tol, classify
from .energy import energy, uniform
from .errors import InvalidInputError, PredictionMismatchError, QhmError
from .msolver import glued_m_predict, m_constant, sequence_diagnostics
from .spaces import (
    FiniteMetricSpace,
    GlueSpec,
    _all_indices,
    _count,
    _items,
    _open,
    ball_discretization,
    euclidean_cloud,
    glue,
    interval_grid,
    regular_polygon_arc,
    subspace,
    validate_metric,
)
from .tolerances import (
    DEFAULT_TOL,
    EQUAL_GLUE_RTOL,
    GLUE_DIVERGE_PREDICTION_RTOL,
)

GLUE_DIVERGE_C = 1.5
BALL_SHELLS = 5


@dataclass
class ExperimentResult:
    """Ordered result rows plus the metadata needed to reproduce them."""

    name: str
    metadata: dict
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_csv_cell(row.get(col)) for col in self.columns])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with _open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _golden_order(count: int) -> np.ndarray:
    """Permutation of range(count) sorting the indices by frac(i * phi).

    On the golden-angle lattice of `_sphere_lattice` this sorts the points
    by longitude: point i has longitude 2 pi frac(i (2 - phi)), and
    frac(i (2 - phi)) = 1 - frac(i phi) for i > 0. A prefix is therefore a
    longitude wedge, not an evenly spread subset: the first 160 of 640
    points fall in two adjacent 45-degree bins (79 and 80) plus index 0."""
    frac = (np.arange(count) * _GOLDEN) % 1.0
    return np.argsort(frac, kind="stable")


def _check_sizes(sizes) -> list:
    """`sizes` as a list of strictly ascending integers, or
    InvalidInputError."""
    sizes = _items(sizes, "sizes must be a sequence", InvalidInputError)
    if not sizes:
        raise InvalidInputError("no sizes given")
    if not _all_indices(sizes):
        raise InvalidInputError(f"sizes must be integers, got {sizes!r}")
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise InvalidInputError("sizes must be strictly ascending")
    return sizes


def ball_chain(sizes):
    """Nested subspace chain of one master ball discretization with
    BALL_SHELLS (5) shells.

    Fibonacci lattices at different counts are not subsets of each other, so
    refinement is realized per shell: prefixes of a fixed golden-ratio
    ordering of each shell's points (`_golden_order`), nested by
    construction. A size n keeps the origin and round((n - 1) / 5) points
    per shell. Returns (master space, index lists, per-size subspaces).

    The prefixes are not evenly spread: the order sorts each shell by
    longitude, so every element below the largest is the origin and a
    longitude wedge of each shell, and an element depends on the largest
    size requested. The 801-point element has M = 1.8590 from
    `ball_chain([801])` but 1.6362 from `ball_chain([801, 1601])`.

    Sizes must be strictly ascending integers of at least 6, and no two may
    round to the same count per shell (the chain would repeat a subspace);
    anything else raises InvalidInputError.
    """
    sizes = _check_sizes(sizes)
    if sizes[0] < BALL_SHELLS + 1:
        raise InvalidInputError(
            f"size {sizes[0]} is below {BALL_SHELLS + 1}, the origin and one "
            f"point on each of {BALL_SHELLS} shells")
    counts = [round((size - 1) / BALL_SHELLS) for size in sizes]
    for a, b, count, after in zip(sizes, sizes[1:], counts, counts[1:]):
        if count == after:
            raise InvalidInputError(
                f"sizes {a} and {b} give the same subspace: {count} per shell")
    pps = max(4, math.ceil((sizes[-1] - 1) / BALL_SHELLS))
    master = ball_discretization(BALL_SHELLS, pps)
    order = _golden_order(pps)
    chains = []
    for per_shell in counts:
        picked = np.sort(order[:per_shell])
        idx = [0]
        for k in range(BALL_SHELLS):
            base = 1 + k * pps
            idx.extend(int(base + i) for i in picked)
        chains.append(idx)
    return master, chains, [subspace(master, ix) for ix in chains]


def _grid_chain(sizes, ends):
    """Index lists of nested equally spaced grids inside the largest: n
    points span n - ends of its steps (ends = 1 on an interval, 0 round a
    circle). None when a grid's step count does not divide the largest's."""
    steps = max(sizes) - ends
    if any(steps % (n - ends) for n in sizes):
        return None
    return [[k * (steps // (n - ends)) for k in range(n)] for n in sizes]


CONVERGE_COLUMNS = ["k", "n", "status", "m_value", "i_uniform",
                    "resid_flatness", "chain_flatness", "chain_step",
                    "elapsed_s", "error"]


def run_converge(family: str, sizes, seed: int = 0,
                 tol: float = DEFAULT_TOL) -> ExperimentResult:
    """Sweep one space family over strictly ascending sizes, solving the
    constant at each.

    Where the sizes nest (every ball3 chain; interval and circle sizes that
    divide the largest) and every constant is finite, the rows also carry
    the `sequence_diagnostics` of the maximal measures on the largest space:
    `chain_flatness`, the spread of each measure's potential there, and
    `chain_step`, the seminorm of the step from the previous measure
    (blank on the first row). The third column of that table, each
    measure's energy on the largest space, is `m_value` up to rounding.
    `seed` is only recorded in the metadata: every family is
    deterministic. A bad `tol` or `seed` raises InvalidInputError before
    the first row."""
    sizes = _check_sizes(sizes)
    _count(seed, 0, "for the seed", InvalidInputError)
    check_tol(tol)
    result = ExperimentResult(
        name=f"converge-{family}",
        metadata={"experiment": f"converge-{family}", "sizes": sizes,
                  "seed": seed, "tol": tol},
        columns=CONVERGE_COLUMNS)

    if family == "interval":
        spaces = [interval_grid(0.0, 1.0, n) for n in sizes]
        chains = _grid_chain(sizes, 1)
        full = spaces[-1]
    elif family == "circle":
        spaces = [regular_polygon_arc(n) for n in sizes]
        chains = _grid_chain(sizes, 0)
        full = spaces[-1]
    elif family == "ball3":
        full, chains, spaces = ball_chain(sizes)
    else:
        raise InvalidInputError(
            f"unknown family {family!r}; use interval|circle|ball3")

    decisions = []
    for k, space in enumerate(spaces):
        t0 = time.perf_counter()
        row = {"k": k, "n": space.n, "error": None}
        try:
            dec = m_constant(space, tol)
            row["status"] = dec.status
            row["m_value"] = dec.value
            row["resid_flatness"] = dec.diagnostics.get("flatness")
            row["i_uniform"] = energy(space, uniform(space))
            decisions.append(dec)
        except QhmError as exc:
            row["status"] = "failed"
            row["error"] = str(exc)
            decisions.append(None)
        row["elapsed_s"] = time.perf_counter() - t0
        result.rows.append(row)

    if chains is not None and all(d is not None and d.finite for d in decisions):
        diag = sequence_diagnostics(full, chains,
                                    [d.maximal_measure.weights for d in decisions])
        for row, drow in zip(result.rows, diag):
            row["chain_flatness"] = drow.flatness
            row["chain_step"] = drow.seminorm_step
    return result


GLUE_DIVERGE_COLUMNS = ["k", "n", "m_component", "m_glued", "predicted",
                        "rel_err", "verdict", "elapsed_s", "error"]


def run_glue_diverge(sizes, seed: int = 0,
                     tol: float = DEFAULT_TOL) -> ExperimentResult:
    """Glue the nested ball chain to a fixed 2-point block of distance 2 at
    cross-distance 3/2 and compare each solved constant with the closed form
    (2.25 - m)/(2 - m).

    The glued constant climbs with the component constant while every glued
    space stays strictly quasihypermetric. It stays bounded: the chain keeps
    BALL_SHELLS fixed shells and refines only the points on each, so its
    limit is the origin and five spheres, not the ball; the component
    constant tends to about 1.885, not the ball's 2, and the glued constant
    to about 3.2. Raises PredictionMismatchError (after recording all
    rows) if any solved value misses the prediction by more than 1e-6
    relative. `seed` is only recorded in the metadata: the chain is
    deterministic. Bad sizes, a bad `tol` or `seed` raise InvalidInputError
    before the first row.
    """
    sizes = _check_sizes(sizes)
    _count(seed, 0, "for the seed", InvalidInputError)
    check_tol(tol)
    result = ExperimentResult(
        name="glue-diverge",
        metadata={"experiment": "glue-diverge", "sizes": sizes,
                  "seed": seed, "tol": tol, "c": GLUE_DIVERGE_C,
                  "rtol": GLUE_DIVERGE_PREDICTION_RTOL},
        columns=GLUE_DIVERGE_COLUMNS)
    _, _, spaces = ball_chain(sizes)
    block = validate_metric([[0.0, 2.0], [2.0, 0.0]], name="pair(d=2)")
    mismatch = None
    for k, x in enumerate(spaces):
        t0 = time.perf_counter()
        row = {"k": k, "n": x.n, "error": None}
        try:
            m_x = m_constant(x, tol).value
            z = glue(GlueSpec(x, block, GLUE_DIVERGE_C))
            dec = m_constant(z, tol)
            row["verdict"] = dec.diagnostics["verdict"]
            pred = glued_m_predict(m_x, 1.0, GLUE_DIVERGE_C)
            row["m_component"] = m_x
            row["m_glued"] = dec.value
            row["predicted"] = pred.value
            rel = abs(dec.value - pred.value) / abs(pred.value)
            row["rel_err"] = rel
            if rel > GLUE_DIVERGE_PREDICTION_RTOL and mismatch is None:
                mismatch = (k, rel)
        except QhmError as exc:
            row["error"] = str(exc)
        row["elapsed_s"] = time.perf_counter() - t0
        result.rows.append(row)
    if mismatch is not None:
        raise PredictionMismatchError(
            f"row {mismatch[0]}: solved constant misses the closed form by "
            f"{mismatch[1]:.3e} relative (> {GLUE_DIVERGE_PREDICTION_RTOL})")
    return result


EQUAL_GLUE_COLUMNS = ["k", "kind", "n", "verdict", "status", "m_value", "ok",
                      "elapsed_s", "error"]


def _polygon_cloud(n: int) -> FiniteMetricSpace:
    theta = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return euclidean_cloud(pts, name=f"ngon({n})")


def run_equal_glue_demo(n_polygon: int,
                        tol: float = DEFAULT_TOL) -> ExperimentResult:
    """Glue two copies of a regular polygon (chord metric) exactly on the
    equal-constant boundary 2c = m + m.

    The glued space is quasihypermetric but carries degenerate directions
    (NonStrict) with constant value m; every single-point-deleted component
    has a strictly smaller constant, so the corresponding glued subspace
    falls strictly inside the boundary and classifies Strict.
    """
    check_tol(tol)
    n = _count(n_polygon, 3, "polygon vertices", InvalidInputError)
    poly = _polygon_cloud(n)
    poly_dec = m_constant(poly, tol)
    m = poly_dec.value
    result = ExperimentResult(
        name="equal-glue-demo",
        metadata={"experiment": "equal-glue-demo", "n_polygon": n, "tol": tol,
                  "component_m": m, "c": m},
        columns=EQUAL_GLUE_COLUMNS)

    def add_row(kind, run):
        t0 = time.perf_counter()
        row = {"k": len(result.rows), "kind": kind, "error": None}
        try:
            run(row)
        except QhmError as exc:
            row["error"] = str(exc)
            row["ok"] = False
        row["elapsed_s"] = time.perf_counter() - t0
        result.rows.append(row)

    def component_del(i):
        def run(row):
            sub = subspace(poly, [j for j in range(n) if j != i])
            dec = m_constant(sub, tol)
            row.update(n=sub.n, status=dec.status, m_value=dec.value,
                       verdict=dec.diagnostics["verdict"],
                       ok=dec.finite and dec.value < m)
        return run

    def component(row):
        row.update(n=n, status="finite", m_value=m,
                   verdict=poly_dec.diagnostics["verdict"], ok=True)

    def glued_del(i):
        def run(row):
            sub = subspace(poly, [j for j in range(n) if j != i])
            z = glue(GlueSpec(sub, poly, m))
            v = classify(z, tol).verdict
            row.update(n=z.n, verdict=v.value, ok=v is Verdict.STRICT)
        return run

    def glued(row):
        z = glue(GlueSpec(poly, poly, m))
        dec = m_constant(z, tol)
        v = Verdict(dec.diagnostics["verdict"])
        row.update(n=z.n, verdict=v.value, status=dec.status,
                   m_value=dec.value,
                   ok=(v is Verdict.NON_STRICT and dec.finite
                       and abs(dec.value - m) <= EQUAL_GLUE_RTOL * m))

    for i in range(n):
        add_row(f"component-del{i}", component_del(i))
    add_row("component", component)
    for i in range(n):
        add_row(f"glued-del{i}", glued_del(i))
    add_row("glued", glued)
    return result
