"""Command-line front end.

One verb per capability: classify, mconstant, invariant, glue, fixtures,
converge, glue-diverge, equal-glue-demo. Global flags --tol / --seed / --out /
--format apply before the verb, e.g.

    qhm --tol 1e-9 classify --fixture nw-thm2.9
    qhm --out rows.csv converge --family interval --sizes 2,3,5,9

The decision verbs (classify, mconstant, invariant) take their space from one
source, `_space_source`: a SPACE_FILE in the JSON space format (keys
name/labels/matrix) or a --fixture KEY from the catalogue, exactly one. The
experiment verbs list their CSV columns below the options in --help. Exit
codes: 0 success, 1 usage error or a file that cannot be read or written
(such as an --out in a missing directory, reported in one "error:" line), 2
validation error, 3 solver inconsistency.
"""

import dataclasses
import functools
import json
import sys

import click

from . import experiments
from .classify import DEFAULT_TOL, classify as classify_space
from .classify import kernel_flat_values
from .energy import energy, measure, parse_weights, potential
from .errors import QhmError, SolverError, ValidationError
from .fixtures import fixture, fixture_keys
from .msolver import ascent_oracle, invariant_measure, m_constant
from .spaces import (GlueSpec, _open, glue as glue_spaces, load_space,
                     save_space, space_to_json)

# a space file argument: it must exist, and a directory is a usage error
SPACE_PATH = click.Path(exists=True, dir_okay=False)


@click.group()
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
              help="Relative tolerance.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for every randomized step.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (JSON or CSV depending on the verb).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default=None, help="Row format for experiment verbs.")
@click.pass_context
def cli(ctx, tol, seed, out, fmt):
    """Energy-maximization analysis of finite metric spaces."""
    ctx.obj = {"tol": tol, "seed": seed, "out": out, "fmt": fmt}


def _space_source(verb):
    """Give a decision verb its `space`, read from a SPACE_FILE argument or
    taken from the catalogue by --fixture KEY, exactly one of the two."""
    @click.argument("space_file", required=False, type=SPACE_PATH)
    @click.option("--fixture", "fixture_key", default=None,
                  help="Catalogue key instead of a file.")
    @functools.wraps(verb)
    def run(space_file, fixture_key, **kwargs):
        if (space_file is None) == (fixture_key is None):
            raise click.UsageError(
                "give exactly one of SPACE_FILE or --fixture KEY")
        space = (load_space(space_file) if fixture_key is None
                 else fixture(fixture_key).space)
        return verb(space=space, **kwargs)
    return run


def _columns(columns) -> str:
    """An experiment verb's help epilog: its CSV columns on one line."""
    return "\b\ncolumns: " + ",".join(columns)


def _emit_text(ctx, text: str) -> None:
    out = ctx.obj["out"]
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with _open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _emit_json(ctx, obj) -> None:
    _emit_text(ctx, json.dumps(obj, indent=2))


def _measure_dict(mu) -> dict:
    return {"space": mu.space.name, "weights": [float(w) for w in mu.weights]}


@cli.command("classify")
@_space_source
@click.pass_context
def classify_cmd(ctx, space):
    """Three-way negative-type verdict with spectral evidence."""
    cls = classify_space(space, ctx.obj["tol"])
    payload = {
        "verdict": cls.verdict.value,
        "eigenvalues": [float(v) for v in cls.eigenvalues],
        "margin": cls.margin,
        "tol_used": cls.tol_used,
    }
    if cls.witness is not None:
        payload["witness"] = _measure_dict(cls.witness)
    if cls.kernel_basis:
        payload["kernel_basis"] = [_measure_dict(f) for f in cls.kernel_basis]
        flats = kernel_flat_values(space, cls)
        payload["flat_values"] = [
            {"value": f.value, "deviation": f.deviation} for f in flats]
    _emit_json(ctx, payload)


@cli.command("mconstant")
@_space_source
@click.option("--check-measure", "check", default=None, metavar="W1,W2,...",
              help="Inline weights: also report that measure's energy and "
                   "potential spread.")
@click.option("--oracle-iters", type=int, default=None, metavar="N",
              help="Cross-check with the projected-ascent oracle for N "
                   "iterations.")
@click.pass_context
def mconstant_cmd(ctx, space, check, oracle_iters):
    """Decide finiteness of the energy supremum constant and solve it."""
    dec = m_constant(space, ctx.obj["tol"])
    payload = {"status": dec.status, "diagnostics": dec.diagnostics}
    if dec.finite:
        payload["value"] = dec.value
        payload["measure"] = _measure_dict(dec.maximal_measure)
    else:
        payload["reason"] = dec.reason
        payload["witness"] = _measure_dict(dec.witness)
    if check is not None:
        mu = measure(space, parse_weights(check))
        pot = potential(space, mu)
        mean = float(pot.mean())
        payload["check_measure"] = {
            "mass": mu.mass,
            "energy": energy(space, mu),
            "potential_mean": mean,
            "potential_spread": float(pot.max() - pot.min()),
            "flatness_about_mean": float(abs(pot - mean).max()),
        }
    if oracle_iters is not None:
        trace = ascent_oracle(space, iterations=oracle_iters,
                              seed=ctx.obj["seed"])
        payload["oracle"] = {
            "best_value": trace.best_value,
            "status": trace.status,
            "iterations_run": trace.iterations_run,
        }
    _emit_json(ctx, payload)


@cli.command("invariant")
@_space_source
@click.pass_context
def invariant_cmd(ctx, space):
    """Solve for a constant-potential mass-1 measure."""
    solve = invariant_measure(space, ctx.obj["tol"])
    if solve is None:
        _emit_json(ctx, {"found": False})
        return
    _emit_json(ctx, {
        "found": True,
        "value": solve.value,
        "residual": solve.residual,
        "unique": solve.unique,
        "measure": _measure_dict(solve.measure),
    })


@cli.command("glue")
@click.argument("x_file", type=SPACE_PATH)
@click.argument("y_file", type=SPACE_PATH)
@click.argument("c", type=float)
@click.pass_context
def glue_cmd(ctx, x_file, y_file, c):
    """Join two spaces with cross-distance C; emits the glued space JSON."""
    x = load_space(x_file)
    y = load_space(y_file)
    z = glue_spaces(GlueSpec(x, y, c))
    if ctx.obj["out"] is None:
        _emit_text(ctx, space_to_json(z))
    else:  # row by row, with no copy of the whole text
        save_space(z, ctx.obj["out"])


@cli.command("fixtures")
@click.argument("key", required=False)
@click.pass_context
def fixtures_cmd(ctx, key):
    """List catalogue keys, or emit one fixture's space JSON (--out) and
    expected results."""
    if key is None:
        _emit_json(ctx, {"keys": fixture_keys()})
        return
    fx = fixture(key)
    payload = {"key": fx.key, "n": fx.space.n, "name": fx.space.name}
    if fx.expected is not None:
        payload["expected"] = dataclasses.asdict(fx.expected)
    out = ctx.obj["out"]
    if out is not None:
        save_space(fx.space, out)
        payload["written"] = out
    click.echo(json.dumps(payload, indent=2))


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise click.UsageError(f"bad sizes list {text!r}")
    if not sizes:
        raise click.UsageError("empty sizes list")
    return sizes


def _emit_experiment(ctx, result) -> None:
    if ctx.obj["fmt"] == "json":
        payload = {"metadata": result.metadata, "rows": result.rows}
        _emit_json(ctx, payload)
        return
    out = ctx.obj["out"]
    if out is not None:
        result.write_csv(out)
        click.echo(json.dumps({"metadata": result.metadata, "rows_csv": out}))
    else:
        click.echo(result.to_csv_text(), nl=False)


@cli.command("converge", epilog=_columns(experiments.CONVERGE_COLUMNS))
@click.option("--family", required=True,
              type=click.Choice(["interval", "circle", "ball3"]))
@click.option("--sizes", required=True, metavar="N1,N2,...",
              help="Strictly ascending sizes.")
@click.pass_context
def converge_cmd(ctx, family, sizes):
    """Refinement sweep of one family; CSV rows."""
    result = experiments.run_converge(family, _parse_sizes(sizes),
                                      seed=ctx.obj["seed"], tol=ctx.obj["tol"])
    _emit_experiment(ctx, result)


@cli.command("glue-diverge",
             epilog=_columns(experiments.GLUE_DIVERGE_COLUMNS))
@click.option("--sizes", required=True, metavar="N1,N2,...",
              help="Strictly ascending ball-chain sizes.")
@click.pass_context
def glue_diverge_cmd(ctx, sizes):
    """Ball chain glued to a distance-2 pair at c = 3/2; CSV rows."""
    result = experiments.run_glue_diverge(_parse_sizes(sizes),
                                          seed=ctx.obj["seed"],
                                          tol=ctx.obj["tol"])
    _emit_experiment(ctx, result)


@cli.command("equal-glue-demo",
             epilog=_columns(experiments.EQUAL_GLUE_COLUMNS))
@click.option("--n", "n_polygon", required=True, type=int,
              help="Polygon vertex count (>= 3).")
@click.pass_context
def equal_glue_demo_cmd(ctx, n_polygon):
    """Equal-constant boundary gluing of two polygon copies; CSV rows."""
    result = experiments.run_equal_glue_demo(n_polygon, tol=ctx.obj["tol"])
    _emit_experiment(ctx, result)


def main(argv=None) -> int:
    """Run the CLI, mapping exceptions to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return 1
    except click.ClickException as exc:  # covers UsageError
        exc.show(file=sys.stderr)
        return 1
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 2
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        return 3
    except QhmError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:  # an --out file that cannot be written
        click.echo(f"error: {exc}", err=True)
        return 1


def entry() -> None:
    sys.exit(main())
