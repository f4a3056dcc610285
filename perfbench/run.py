"""Benchmark of quiverstokes: end-to-end metrics, or per-module metrics with
--trace 1.

    PYTHONPATH is not needed; the package is imported from ../src.
    python3 perfbench/run.py --workload orbit_a6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

A run sets up several times and reports the median set-up time, then makes
a fixed number of passes over the workload's seeded queries: --seconds
divided by the workload's budget per pass (at least one pass).
Every query's output is checked; a failed check or an exception counts the
query as failed.  The human-readable report goes to stderr and to
perfbench/out/; the last line of stdout is the JSON result.

With --trace 1 untraced and traced passes alternate, and the result holds
the per-layer metrics of tracing.py instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.resources as resources
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 11
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup(build, seed: int):
    """Import the package afresh, load its bundled fixtures and build the
    workload's queries; returns (seconds, package, queries)."""
    t0 = perf_counter()
    for name in [m for m in sys.modules
                 if m == "quiverstokes" or m.startswith("quiverstokes.")]:
        del sys.modules[name]
    qs = importlib.import_module("quiverstokes")
    importlib.import_module("quiverstokes.cli")
    fixtures = resources.files("quiverstokes").joinpath("data")
    for entry in fixtures.iterdir():
        if entry.name.endswith(".json"):
            json.loads(entry.read_text())
    queries = build(qs, random.Random(seed), wl.load_data())
    return perf_counter() - t0, qs, queries


def run_pass(queries, tracer, first_query: int):
    """Run every query once; returns (wall, latencies, failures)."""
    latencies, failures = [], []
    for k, q in enumerate(queries):
        if tracer is not None:
            tracer.query = first_query + k
            tracer.active = True
        t0 = perf_counter()
        try:
            out, error = q.run(), None
        except Exception:  # a crashing query is a failed query
            out, error = None, traceback.format_exc()
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = q.check(out)
            except Exception:  # so is output the check cannot read
                error = traceback.format_exc()
        if error:
            failures.append((q.label, error))
        elif tracer is not None:
            tracer.counts.update(q.counts(out))
        del out  # so that the next query's peak memory does not include it
    gc.collect()
    return sum(latencies), latencies, failures


def measure(queries, count: int, tracer):
    """Run count passes; with a tracer, odd passes are traced and there are
    at least two.  Returns a list of (traced, wall, latencies, failures)."""
    if tracer is not None:
        count = max(count, 2)
    passes = []
    for _ in range(count):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        try:
            wall, lat, fails = run_pass(queries, tracer if traced else None,
                                        len(passes) * len(queries))
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, wall, lat, fails))
    return passes


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond it): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when there are too few
    samples for that percentile to lie above the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND
        return xs[k - 1], 100.0 * k / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


def environment(traced: bool) -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "QUIVERSTOKES_BACKEND": os.environ.get("QUIVERSTOKES_BACKEND"),  # None: unset
    }
    if traced:
        kernels = sys.modules.get("quiverstokes._kernels")
        backend_name = getattr(kernels, "backend_name", None)
        env["kernel_backend"] = backend_name() if backend_name else None
    return env


def run_workload(args) -> int:
    if not (SRC / "quiverstokes" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once, outside the set-up timing)

    build = wl.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUPS):
        seconds, qs, queries = setup(build, args.seed)
        setups.append(seconds)
    if Path(qs.__file__).resolve().parent != (SRC / "quiverstokes").resolve():
        return fail(f"imported quiverstokes from {qs.__file__}, not from {SRC}")
    gc.collect()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    count = max(1, int(args.seconds / wl.PASS_BUDGET_S[args.workload]))
    passes = measure(queries, count, tracer)

    attempted = sum(len(p[2]) for p in passes)
    failures = [f for p in passes for f in p[3]]
    latencies = [x for p in passes if not p[0] for x in p[2]]
    tail_ms, tail_pct, beyond = tail(latencies)
    tail_ms *= 1000
    if tracer is None:
        wall = statistics.median(p[1] for p in passes if not p[0])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "queries_per_s": len(queries) / wall,
            "query_p50_ms": statistics.median(latencies) * 1000,
            "query_tail_ms": tail_ms,
            "ok_ratio": (attempted - len(failures)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        metrics = tracer.metrics([p[1] for p in passes if p[0]],
                                 [p[1] for p in passes if not p[0]])

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(bool(args.trace)),
        "passes": len(passes), "queries_per_pass": len(queries),
        "query_labels": [q.label for q in queries],
        "setup_runs_s": setups,
        "pass_walls_s": [p[1] for p in passes],
        "tail": {"percentile": tail_pct, "samples": len(latencies),
                 "beyond": beyond},
        "attempted": attempted, "failed": len(failures),
        "failures": [{"query": q, "error": e} for q, e in failures[:20]],
        "metrics": metrics,
    }
    if tracer is not None:
        report["absent_spans"] = tracer.missing
        report["spans"] = {"fields": ["id", "parent", "name", "start", "end", "query"],
                           "rows": tracer.spans}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report) + "\n")

    print_report(report, path)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_report(report: dict, path: Path) -> None:
    err = sys.stderr
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}", file=err)
    print(f"env {json.dumps(report['env'])}", file=err)
    print(f"passes {report['passes']} x {report['queries_per_pass']} queries, "
          f"{report['attempted']} attempted, {report['failed']} failed", file=err)
    for f in report["failures"]:
        print(f"  FAILED {f['query']}: {f['error'].strip()}", file=err)
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['value']:16.6f} {m['unit']}", file=err)
    t = report["tail"]
    print(f"query_tail_ms is p{t['percentile']:.1f} of {t['samples']} "
          f"untraced queries, {t['beyond']} beyond it", file=err)
    if report.get("absent_spans"):
        print(f"absent (not wrapped): {', '.join(report['absent_spans'])}", file=err)
    print(f"report: {path}", file=err)


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    rows, ok = [], True
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:16.6f} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
