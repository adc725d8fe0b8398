#!/usr/bin/env python3
"""qhm benchmark: one workload, measured for a fixed time, answers checked.

    python3 perfbench/run.py --workload ball-sweep --seed 1 --seconds 27 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``ball-sweep``, ``small-batch``, ``oracle``,
``cli-files``. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with machine metadata, pass counts, tail percentiles and
``failed_ratio`` (failed / attempted). The report is also written to
``perfbench/out/``.

``--trace 0`` measures the end-to-end metrics with tracing off. The workload
body runs in passes until the next pass would end after ``--seconds`` (at
least ``MIN_PASSES``). A pass repeats the same work, the machine is shared,
and interference only adds time, so timings are best-of: ``wall_s`` is the
fastest pass, and every decision is taken at its fastest time over the
passes before the median (``decision_p50_s``), the tail and the largest
inputs' latency are read off them. None of this depends on how many passes
fit. ``setup_s`` is the median of five set-ups (import plus input
generation): this process's own and four fresh child processes. The report
also carries each pass's ascent rate on ``oracle`` and the cold start of
each ``qhm fixtures`` process on ``cli-files``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (median over traced passes), the traced
and untraced pass wall times and their difference, the tracing overhead.
The spans of the last traced pass are written to ``perfbench/out/``.
``cli-files`` runs its CLI calls in-process through ``qhm.cli.main`` in this
mode, so that their layers can be traced.

``--smoke`` shrinks every input and runs a single pass (or pair); the
benchmark's own test uses it.

Load shape: a closed loop with one caller in one process; BLAS threads are
capped at the number of usable cores before numpy is imported.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_CHILDREN = 4

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decisions_per_s": "1/s",
    "decision_p50_s": "s",
    "decision_tail_s": "s",
    "largest_decision_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("per_decision"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ball-sweep", "small-batch", "oracle", "cli-files"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one pass, for the benchmark's test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child process timing set-up
    return p.parse_args(argv)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile). Below 20 samples no such percentile lies
    above the median, so the maximum is reported as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def largest(decisions):
    """Median latency of the decisions on the largest inputs: those with at
    least 99% of the largest point count."""
    top = max(n for n, _ in decisions)
    return statistics.median(s for n, s in decisions if n >= 0.99 * top)


def blas_threads():
    """OpenBLAS's own thread count, when numpy bundles a queryable OpenBLAS."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_metadata(qhm):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "threads_cap": os.environ["OPENBLAS_NUM_THREADS"]},
        "qhm_has_numba": qhm.HAS_NUMBA,
        "git_commit": git_commit(),
    }


def run_setup_children(args):
    """Set-up seconds measured in fresh child processes."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.decode().split()[-1]))
    return samples


class Run:
    """Measurement of one workload in this process."""

    def __init__(self, args, workload):
        self.args = args
        self.wl = workload
        self.attempted = 0
        self.failures = []

    def checked(self, answers):
        attempted, failures = self.wl.check(answers)
        self.attempted += attempted
        self.failures += failures

    def more(self, start, walls, minimum):
        if len(walls) < minimum:
            return True
        if self.args.smoke:
            return False
        return perf_counter() - start + statistics.median(walls) <= self.args.seconds

    def one_pass(self, tracer=None):
        if self.wl.name == "cli-files":
            return self.wl.run_pass(tracer, in_process=self.args.trace == 1)
        return self.wl.run_pass(tracer)

    # -- trace 0 --------------------------------------------------------

    def end_to_end(self):
        passes = []
        start = perf_counter()
        while self.more(start, [p.wall_s for p in passes],
                        1 if self.args.smoke else MIN_PASSES):
            result = self.one_pass()
            self.checked(result.answers)
            result.answers = None  # keep memory flat across passes
            passes.append(result)
        usage = (resource.RUSAGE_CHILDREN if self.wl.name == "cli-files"
                 else resource.RUSAGE_SELF)
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

        # best of the passes: a pass repeats the same work, and interference
        # from other tenants of the machine only ever adds time to it. Each
        # decision is taken at its best time over the passes.
        slots = list(zip(*(p.decisions for p in passes)))
        best = [(calls[0][0], min(s for _, s in calls)) for calls in slots]
        tail_s, tail_pct = tail([s for _, s in best])
        metrics = {
            "wall_s": min(p.wall_s for p in passes),
            "decisions_per_s": max(len(p.decisions) / p.wall_s for p in passes),
            "decision_p50_s": statistics.median(s for _, s in best),
            "decision_tail_s": tail_s,
            "largest_decision_s": largest(best),
            "peak_rss_mb": peak_rss_mb,
        }
        report = {
            "passes": len(passes),
            "pass_wall_s": [p.wall_s for p in passes],
            "decisions_per_pass": len(best),
            "decision_tail_percentile": tail_pct,
        }
        for name in passes[0].extra:  # the workload's own rates and samples
            report[name] = [p.extra[name] for p in passes]
        return metrics, report

    # -- trace 1 --------------------------------------------------------

    def per_layer(self, tracer_mod):
        import_s = 0.0
        if self.wl.name == "cli-files":  # first import in this process
            t0 = perf_counter()
            importlib.import_module("qhm.cli")
            import_s = perf_counter() - t0
        plain, traced, layers = [], [], []
        spans = []
        start = perf_counter()
        while self.more(start, [a + b for a, b in zip(plain, traced)], 1):
            result = self.one_pass()
            plain.append(result.wall_s)
            self.checked(result.answers)
            with tracer_mod.Tracer() as tracer:
                result = self.one_pass(tracer)
            traced.append(result.wall_s)
            self.checked(result.answers)
            layers.append(tracer_mod.layer_metrics(tracer.spans, tracer.counts))
            spans = tracer.spans
        med = statistics.median
        metrics = {name: med(m[name] for m in layers) for name in layers[0]}
        metrics["cli.import_s"] = import_s
        metrics["trace.wall_s"] = med(traced)
        metrics["trace.untraced_wall_s"] = med(plain)
        metrics["trace.overhead_s"] = med(traced) - med(plain)
        span_file = OUT / f"{self.wl.name}-s{self.args.seed}-spans.json"
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": spans}, fh)
        report = {"pairs": len(traced), "spans_file": str(span_file.relative_to(ROOT))}
        return metrics, report


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qhm" / "__init__.py").is_file():
        print(f"error: no qhm sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import qhm
    import workloads
    OUT.mkdir(exist_ok=True)
    wl_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl_dir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, wl_dir)
        setup_s = perf_counter() - t0
        if args.setup_probe:
            print(setup_s)
            return 0

        run = Run(args, workload)
        if args.trace:
            import tracer
            metrics, report = run.per_layer(tracer)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, report = run.end_to_end()
            setup_samples = [setup_s] + run_setup_children(args)
            metrics["setup_s"] = statistics.median(setup_samples)
            report["setup_samples_s"] = setup_samples
            units = END_TO_END
    finally:
        shutil.rmtree(wl_dir, ignore_errors=True)

    failed = len(run.failures)
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "attempted": run.attempted, "failed": failed,
        "failed_ratio": failed / run.attempted,
        "failures": run.failures[:20],
        "machine": machine_metadata(qhm),
    })
    with open(OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
