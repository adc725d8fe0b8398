"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop with one caller: each call starts after the
previous one returns. The constructor makes the inputs (this is the set-up
that ``setup_s`` times); ``run_pass`` runs the workload body once and
returns its wall time, the latency of every decision it made and the answers
to check; ``check`` compares those answers with references, outside the
timed region. A *decision* is one answer the workload produces:

- ``ball-sweep``: one ``m_constant`` call inside the two refinement chains
  (timed by a wrapper on ``qhm.experiments.m_constant``);
- ``small-batch``: building one small space from raw input plus its
  ``m_constant`` call;
- ``oracle``: one ``ascent_oracle`` run;
- ``cli-files``: one deciding CLI process (``classify``, ``mconstant`` on
  each 401-point file, ``invariant``), measured from spawn to exit.

The library is always reached through module attributes (``qhm.m_constant``)
so the tracer's wrappers are seen.
"""

import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qhm

# catalogue entries small-batch draws from, with the parameter ranges used
FIXTURE_KEYS = (["nw-thm2.9", "nw-thm2.9a", "fourpoint-antipodal"]
                + [f"interval-{k}" for k in range(2, 9)]
                + [f"circle-{k}" for k in (2, 4, 6, 8)])


# `qhm` console script, run from the checkout's sources
CLI_ENTRY = "from qhm.cli import entry; entry()"


@dataclass
class PassResult:
    wall_s: float
    decisions: list  # (points, seconds) for every decision of the pass
    answers: object  # what the workload's check() inspects
    extra: dict = field(default_factory=dict)


@contextmanager
def clock_decisions(module, name, sink):
    """Time every call of ``module.name`` into ``sink`` as (points, seconds)."""
    original = getattr(module, name)

    def timed(space, *args, **kwargs):
        t0 = perf_counter()
        try:
            return original(space, *args, **kwargs)
        finally:
            sink.append((space.n, perf_counter() - t0))

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def _attempt(fn):
    """fn(), or the exception it raised (a failed reference is a failure)."""
    try:
        return fn()
    except Exception as exc:
        return exc


def _close(a, b, rel=1e-12, abs_=1e-15):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _cloud(rng, i):
    """Random points in the unit cube; the i-th cloud has 3 + i % 6 points
    in 2 or 3 dimensions, so every size is equally common."""
    return rng.uniform(0.0, 1.0, (3 + i % 6, 2 + (i // 6) % 2))


def _unit_cloud(rng, i):
    """``_cloud`` scaled to diameter 1. A space's constant is at least half
    its diameter, so the boundary cross-distance (m_x + m_y) / 2 of two such
    clouds covers both diameters and the gluing is a metric."""
    pts = _cloud(rng, i)
    diff = pts[:, None, :] - pts[None, :, :]
    return pts / math.sqrt(float((diff * diff).sum(axis=-1).max()))


class BallSweep:
    """Criteria 8-9: the nested unit-ball chain, solved and glued."""

    name = "ball-sweep"

    def __init__(self, seed, smoke, workdir):
        self.seed = seed  # recorded; the chain itself is deterministic
        self.sizes = [51, 101, 201] if smoke else [51, 101, 201, 401, 801]

    def run_pass(self, tracer=None):
        decisions = []
        out = []
        t0 = perf_counter()
        with clock_decisions(sys.modules["qhm.experiments"], "m_constant",
                             decisions):
            for request, run in enumerate(
                    (lambda: qhm.run_converge("ball3", self.sizes,
                                              seed=self.seed),
                     lambda: qhm.run_glue_diverge(self.sizes,
                                                  seed=self.seed))):
                if tracer is not None:
                    tracer.request = request
                try:
                    out.append(run().rows)
                except Exception as exc:  # counted as failed answers
                    out.append(exc)
        return PassResult(perf_counter() - t0, decisions, out)

    def check(self, answers):
        converge, diverge = answers
        rows = len(self.sizes)
        failures = []
        if isinstance(converge, Exception):
            failures += [f"run_converge raised {converge!r}"] * rows
        else:
            values = [r.get("m_value") for r in converge]
            for k, r in enumerate(converge):
                v = values[k]
                bad = (r.get("status") != "finite" or v is None or not v < 2.0
                       or not v >= r.get("i_uniform", math.inf) - 1e-12
                       or (k > 0 and (values[k - 1] is None
                                      or v < values[k - 1])))
                if k == rows - 1 and self.sizes[-1] >= 801:
                    bad = bad or not v > 4.0 / 3.0  # top of the ~800 chain
                if k >= rows - 2:  # flatness nonincreasing at the tail
                    f = [row.get("chain_flatness")
                         for row in converge[k - 1:k + 1]]
                    bad = bad or f[0] is None or f[1] is None or f[1] > f[0]
                if bad:
                    failures.append(f"converge row {k}: {r}")
        if isinstance(diverge, Exception):
            failures += [f"run_glue_diverge raised {diverge!r}"] * rows
        else:
            prev = -math.inf
            for k, r in enumerate(diverge):
                m = r.get("m_component")
                glued = r.get("m_glued")
                if (r.get("error") is not None or r.get("verdict") != "Strict"
                        or m is None or glued is None
                        or not _close(glued, (2.25 - m) / (2.0 - m), rel=1e-6)
                        or not glued > prev):
                    failures.append(f"glue-diverge row {k}: {r}")
                prev = glued if glued is not None else prev
        return 2 * rows, failures


class SmallBatch:
    """A seeded stream of decisions on 3-16 points; per-call overhead."""

    name = "small-batch"

    # one cycle of case kinds; drawing kinds in fixed proportions rather
    # than at random keeps the work of a pass the same for every seed
    CYCLE = ["cloud", "random4", "glue", "cloud", "fixture", "glue-boundary",
             "cloud", "random4", "glue", "fixture", "cloud", "glue-boundary",
             "random4", "glue", "cloud", "fixture", "glue-boundary", "cloud",
             "glue", "fixture"]

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        target = 60 if smoke else 2000
        self.cases = []
        decisions = 0
        while decisions < target:
            i = len(self.cases)
            kind = self.CYCLE[i % len(self.CYCLE)]
            if kind == "cloud":
                case = (kind, _cloud(rng, i))
            elif kind == "random4":
                case = (kind, int(rng.integers(2 ** 31)))
            elif kind == "glue":
                case = (kind, _unit_cloud(rng, i), _unit_cloud(rng, i + 1),
                        float(rng.uniform(0.05, 1.0)))
            elif kind == "glue-boundary":
                case = (kind, _unit_cloud(rng, i), _unit_cloud(rng, i + 1))
            else:
                case = (kind, FIXTURE_KEYS[i % len(FIXTURE_KEYS)])
            self.cases.append(case)
            decisions += 3 if kind.startswith("glue") else 1

    def run_pass(self, tracer=None):
        decisions = []
        answers = []

        def decide(build, *args):
            t0 = perf_counter()
            space = build(*args)
            dec = qhm.m_constant(space)
            decisions.append((space.n, perf_counter() - t0))
            return space, dec

        t_pass = perf_counter()
        for request, case in enumerate(self.cases):
            if tracer is not None:
                tracer.request = request
            kind = case[0]
            try:
                if kind == "cloud":
                    answers.append((kind,) + decide(qhm.euclidean_cloud, case[1]))
                elif kind == "random4":
                    answers.append((kind,) + decide(qhm.random_metric, 4, case[1]))
                elif kind == "fixture":
                    t0 = perf_counter()
                    fx = qhm.fixture(case[1])
                    dec = qhm.m_constant(fx.space)
                    decisions.append((fx.space.n, perf_counter() - t0))
                    answers.append((kind, fx, dec))
                else:
                    x, dx = decide(qhm.euclidean_cloud, case[1])
                    y, dy = decide(qhm.euclidean_cloud, case[2])
                    if kind == "glue":
                        c = max((dx.value + dy.value) / 2.0, 0.5) + case[3]
                    else:
                        c = (dx.value + dy.value) / 2.0
                    z, dz = decide(lambda: qhm.glue(qhm.GlueSpec(x, y, c)))
                    answers.append((kind, (x, dx), (y, dy), c, dz))
            except Exception as exc:  # counted as a failed answer
                answers.append(("error", kind, repr(exc)))
        return PassResult(perf_counter() - t_pass, decisions, answers)

    @staticmethod
    def _cloud_ok(space, dec):
        # euclidean distances have strict negative type
        return (dec.finite and dec.diagnostics["verdict"] == "Strict"
                and dec.value >= qhm.energy(space, qhm.uniform(space)) - 1e-12)

    def check(self, answers):
        failures = []
        attempted = 0
        for ans in answers:
            kind = ans[0]
            attempted += 1
            if kind == "error":
                failures.append(f"{ans[1]} raised {ans[2]}")
            elif kind == "cloud":
                if not self._cloud_ok(ans[1], ans[2]):
                    failures.append(f"cloud {ans[1]}: {ans[2].diagnostics}")
            elif kind == "random4":
                # criterion 6: 4-point metrics are quasihypermetric, M finite
                dec = ans[2]
                if (not dec.finite or dec.diagnostics["verdict"]
                        == "NotQuasihypermetric"):
                    failures.append(f"random4 {ans[1].name}: {dec.status}")
            elif kind == "fixture":
                fx, dec = ans[1], ans[2]
                exp = fx.expected
                ok = (dec.diagnostics["verdict"] == exp.verdict.value
                      and dec.status == exp.m_status
                      and (exp.m_value is None
                           or abs(dec.value - exp.m_value) <= 1e-9)
                      and (exp.reason is None or dec.reason == exp.reason))
                if not ok:
                    failures.append(f"fixture {fx.key}: {dec.status} {dec.value}")
            else:
                (x, dx), (y, dy), c, dz = ans[1:]
                attempted += 2
                for space, dec in ((x, dx), (y, dy)):
                    if not self._cloud_ok(space, dec):
                        failures.append(f"glue component {space}: {dec.status}")
                pred = qhm.glued_m_predict(dx.value, dy.value, c)
                if kind == "glue":
                    ok = (pred.kind == "finite" and dz.finite
                          and _close(dz.value, pred.value, rel=1e-7))
                else:
                    ok = pred.kind == "infinite" and dz.status == "infinite"
                if not ok:
                    failures.append(f"{kind} c={c}: predicted {pred}, got "
                                    f"{dz.status} {dz.value}")
        return attempted, failures


class Oracle:
    """Projected-ascent runs: fixed budgets on nw-thm2.9 (divergent, per
    iteration overhead) and a 201-point ball (matvec bound), and one seeded
    cloud of each size 3..8 that converges early."""

    name = "oracle"

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        _, _, (ball,) = qhm.ball_chain([41 if smoke else 201])
        divergent = qhm.fixture("nw-thm2.9").space
        # (space, iterations, ascent seed, reference constant known finite).
        # Short divergent runs outnumber the rest, so the median and the
        # tail of a pass fall on them; the ball needs about 4000 iterations
        # to come within 1e-4 of its constant.
        self.cases = [(divergent, 500 if smoke else 2_500,
                       int(rng.integers(2 ** 31)), False) for _ in range(12)]
        self.cases += [(ball, 2_000 if smoke else 5_000,
                        int(rng.integers(2 ** 31)), True) for _ in range(4)]
        for i in range(6):  # one cloud of each size 3..8
            self.cases.append((qhm.euclidean_cloud(_cloud(rng, i)), 100_000,
                               int(rng.integers(2 ** 31)), True))
        self._refs = None

    def run_pass(self, tracer=None):
        decisions = []
        traces = []
        iterations = 0
        t_pass = perf_counter()
        for request, (space, budget, seed, _) in enumerate(self.cases):
            if tracer is not None:
                tracer.request = request
            t0 = perf_counter()
            try:
                tr = qhm.ascent_oracle(space, iterations=budget, seed=seed)
            except Exception as exc:  # counted as a failed answer
                tr = exc
            decisions.append((space.n, perf_counter() - t0))
            traces.append(tr)
            if not isinstance(tr, Exception):
                iterations += tr.iterations_run
        wall = perf_counter() - t_pass
        ascent_s = sum(s for _, s in decisions)
        return PassResult(wall, decisions, traces,
                          {"oracle_iters_per_s": iterations / ascent_s})

    def check(self, traces):
        if self._refs is None:
            self._refs = [_attempt(lambda: qhm.m_constant(space).value)
                          if finite else None
                          for space, _, _, finite in self.cases]
        failures = []
        for k, (tr, m) in enumerate(zip(traces, self._refs)):
            error = next((x for x in (tr, m) if isinstance(x, Exception)), None)
            if error is not None:
                failures.append(f"case {k} raised {error!r}")
            elif m is None:  # divergent: best value never decreases
                if tr.status == "converged" or (np.diff(tr.best_values) < 0).any():
                    failures.append(f"nw-thm2.9 trace: {tr.status}")
            elif not m - 1e-4 <= tr.best_value <= m + 1e-9:
                failures.append(f"case {k}: best {tr.best_value} outside "
                                f"[{m} - 1e-4, {m} + 1e-9]")
        return len(traces), failures


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def run_cli(argv, env):
    """One fresh ``qhm`` process; returns (exit code, stderr, seconds)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=150)
    return proc.returncode, proc.stderr.decode(errors="replace"), perf_counter() - t0


class CliFiles:
    """Fresh ``qhm`` processes over JSON space files (the trust boundary)."""

    name = "cli-files"
    STARTS = 2  # cold `qhm fixtures` processes per pass

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        n = 21 if smoke else 401
        self.dir = Path(workdir)
        self.env = cli_env(Path(__file__).resolve().parents[1])
        _, _, (a,) = qhm.ball_chain([n])
        cube = rng.uniform(-1.0, 1.0, (4 * n, 3))
        b = qhm.euclidean_cloud(cube[(cube * cube).sum(axis=1) <= 1.0][:n],
                                name=f"unit-ball-cloud({n})")
        # both spaces lie in the unit ball, whose constant is 2, so 2c > 4
        # puts the gluing strictly inside the finite region
        self.c = 2.0 + float(rng.uniform(0.0, 1.0))
        self.n_a, self.n_b = a.n, b.n
        self.a_path, self.b_path = self.dir / "a.json", self.dir / "b.json"
        qhm.save_space(a, self.a_path)
        qhm.save_space(b, self.b_path)
        self._refs = None

    def _out(self, what):
        return str(self.dir / f"{what}.json")

    def commands(self):
        """(label, argv, points of the decision or None) in pass order."""
        cmds = [(f"fixtures-{i}", ["--out", self._out(f"fixtures-{i}"),
                                   "fixtures"], None)
                for i in range(self.STARTS)]
        cmds += [
            ("classify", ["--out", self._out("classify"), "classify",
                          "--fixture", "nw-thm2.9"], 5),
            ("mconstant-a", ["--out", self._out("mconstant-a"), "mconstant",
                             str(self.a_path)], self.n_a),
            ("mconstant-b", ["--out", self._out("mconstant-b"), "mconstant",
                             str(self.b_path)], self.n_b),
            ("glue", ["--out", self._out("glued"), "glue", str(self.a_path),
                      str(self.b_path), repr(self.c)], None),
            ("invariant", ["--out", self._out("invariant"), "invariant",
                           self._out("glued")], self.n_a + self.n_b),
        ]
        return cmds

    def run_pass(self, tracer=None, in_process=False):
        decisions = []
        codes = {}
        starts = []
        t_pass = perf_counter()
        for request, (label, argv, points) in enumerate(self.commands()):
            if tracer is not None:
                tracer.request = request
            if in_process:
                t0 = perf_counter()
                try:
                    code, err = qhm.cli.main(argv), ""
                except Exception as exc:  # counted as a failed answer
                    code, err = None, repr(exc)
                seconds = perf_counter() - t0
            else:
                code, err, seconds = run_cli(argv, self.env)
            codes[label] = (code, err)
            if label.startswith("fixtures"):
                starts.append(seconds)
            if points is not None:
                decisions.append((points, seconds))
        return PassResult(perf_counter() - t_pass, decisions, codes,
                          {"cli_start_samples": starts})

    def _references(self):
        """The same calls made in-process, once per run (not timed)."""
        if self._refs is None:
            a = qhm.load_space(self.a_path)
            b = qhm.load_space(self.b_path)
            glued = qhm.glue(qhm.GlueSpec(a, b, self.c))
            m_a, m_b = qhm.m_constant(a), qhm.m_constant(b)
            self._refs = {
                "glued_text": qhm.spaces.space_to_json(glued),
                "classify": qhm.classify(qhm.fixture("nw-thm2.9").space),
                "mconstant-a": m_a,
                "mconstant-b": m_b,
                "invariant": qhm.invariant_measure(glued),
                "predicted": qhm.glued_m_predict(m_a.value, m_b.value, self.c),
            }
        return self._refs

    def check(self, codes):
        refs = _attempt(self._references)
        if isinstance(refs, Exception):
            return len(codes), [f"in-process reference raised {refs!r}"
                                ] * len(codes)
        failures = []
        for label, (code, err) in codes.items():
            if code != 0:
                failures.append(f"{label}: exit {code}: {err.strip()[-300:]}")
                continue
            path = self._out("glued" if label == "glue" else label)
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                if label == "glue":
                    ok = text == refs["glued_text"]
                else:
                    ok = self._json_ok(label, json.loads(text), refs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"{label}: unreadable output: {exc!r}")
                continue
            if not ok:
                failures.append(f"{label}: output differs from the in-process call")
        return len(codes), failures

    @staticmethod
    def _json_ok(label, got, refs):
        def same(xs, ys):
            return len(xs) == len(ys) and all(map(_close, xs, ys))

        if label.startswith("fixtures"):
            return got == {"keys": qhm.fixture_keys()}
        if label == "classify":
            ref = refs["classify"]
            return (got["verdict"] == ref.verdict.value
                    and same(got["eigenvalues"], ref.eigenvalues.tolist()))
        if label.startswith("mconstant"):
            ref = refs[label]
            return (got["status"] == ref.status == "finite"
                    and _close(got["value"], ref.value)
                    and same(got["measure"]["weights"],
                             ref.maximal_measure.weights.tolist()))
        ref = refs["invariant"]  # invariant on the glued file
        return (got["found"] and _close(got["value"], ref.value)
                and got["unique"] == ref.unique
                and same(got["measure"]["weights"],
                         ref.measure.weights.tolist())
                and _close(got["value"], refs["predicted"].value, rel=1e-7))


WORKLOADS = {w.name: w for w in (BallSweep, SmallBatch, Oracle, CliFiles)}
