"""decaycert benchmark: one workload, closed loop, single process.

    python3 bench/run.py --workload grid --seed 0 --seconds 15 --trace 0

Builds the workload's inputs from ``--seed``, sized to take about
``--seconds``, then runs every operation once per pass in a closed loop:
one operation starts when the previous one has ended.  An operation's
time is its best over the passes; input builds, spread over the passes,
give ``setup_s``.  Every outcome is re-checked against the benchmark's
own oracles; an unsound result or a count that does not repeat exits
with code 3 and prints no result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` builds
inputs for half the time, runs the passes untraced and then one more
with the tracer's wrappers patched in, and reports the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` with the metrics
BENCHMARK.json declares; ``failed`` counts operations whose verdict
disagrees with the oracle.  See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUPS = 15  # input builds per run, spread over its passes; setup_s is their median
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
MODULES = ("maps", "homotopy", "triangulation", "dynamics", "mapspec", "maxpreserving",
           "linear", "cli")


class CountMismatch(RuntimeError):
    """A deterministic count differs between two runs of the same operation."""


def load_package() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "decaycert" / "__init__.py").is_file() or not (ROOT / "mapspecs").is_dir():
        raise SystemExit(f"error: no decaycert sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(src))
    dc = SimpleNamespace(root=ROOT)
    for name in MODULES:
        setattr(dc, name, importlib.import_module(f"decaycert.{name}"))
    return dc


def run_ops(dc, jobs, workloads, tracer=None, between=None, gap=1):
    """Run the operations one after the other: per operation (ms, Outcome, counts).

    ``counts`` are the deterministic counts: the solver's evaluations, and
    under the tracer also label lookups and pivots.  ``between`` is called
    untimed before every ``gap``-th operation.
    """
    gc.collect()
    rows = []
    for i, job in enumerate(jobs):
        if between is not None and i % gap == 0:
            between()
        if tracer is not None:
            tracer.op = i
            before = tracer.counters()
        t0 = time.perf_counter()
        raw = workloads.execute(dc, job)
        ms = (time.perf_counter() - t0) * 1e3
        outcome = workloads.check(job, raw)
        counts = (outcome.evals,)
        if tracer is not None:
            tracer.op = -1
            counts = tuple(a - b for a, b in zip(tracer.counters(), before))
            if counts[0] != outcome.evals:
                raise CountMismatch(f"{job.label}: traced {counts[0]} evaluations, the solver "
                                    f"reported {outcome.evals}")
        rows.append((ms, outcome, counts))
    return rows


def check_repeats(dc, jobs, rows, workloads, tracer=None, reference=None) -> None:
    """Counts of an operation must repeat: within a pass, across passes and on a re-run.

    Without a reference pass, the first operation is run once more.
    """
    seen = {}
    for job, (_, _, counts) in zip(jobs, rows):
        if seen.setdefault(job.label, counts) != counts:
            raise CountMismatch(f"{job.label}: counts {counts} differ from {seen[job.label]}")
    if reference is None:
        reference, rows = rows[:1], run_ops(dc, jobs[:1], workloads, tracer)
    for job, (_, _, a), (_, _, b) in zip(jobs, reference, rows):
        if a != b:
            raise CountMismatch(f"{job.label}: counts {b} on a repeat, {a} before")


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def end_to_end(passes, setup_times) -> tuple[dict, list[str]]:
    """End-to-end metrics; each operation's time is its best over the passes."""
    rows = passes[0]
    ms = [min(p[i][0] for p in passes) for i in range(len(rows))]
    tail_ms, pct, n = tail(ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solves_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "solve_ms_p50": (statistics.median(ms), "ms"),
        "solve_ms_tail": (tail_ms, "ms"),
        "evals_per_solve": (sum(row[1].evals for row in rows) / len(rows), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(1 for row in rows if not row[1].agrees) / len(rows), "frac"),
    }
    every = [row[0] for p in passes for row in p]
    notes = [f"solve_ms_tail is p{pct:.1f} of {n} operations ({min(TAIL_BEYOND, n - 1)} "
             f"beyond it); over all {len(every)} timings p50 {statistics.median(every):.4g} ms, "
             f"solves_per_s {len(every) / (sum(every) / 1e3):.4g}"]
    return metrics, notes


def outcome_counts(rows) -> dict:
    counts: dict[str, int] = {}
    for _, outcome, _ in rows:
        counts[outcome.reason] = counts.get(outcome.reason, 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "scale", "boundary",
                                                              "certify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dc = load_package()
    sys.path.insert(0, str(HERE))
    import tracer as tracing  # noqa: E402  (benchmark-local modules)
    import workloads

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    build, unit_seconds, repeats = workloads.WORKLOADS[args.workload]
    units = max(1, round(args.seconds / (1 + args.trace) / (repeats * unit_seconds)))
    setup_times = []

    def timed_build():
        t0 = time.perf_counter()
        jobs = build(dc, args.seed, units, workdir)
        setup_times.append(time.perf_counter() - t0)
        return jobs

    try:
        jobs = timed_build()
        workloads.check(jobs[0], workloads.execute(dc, jobs[0]))  # warm-up
        passes = []
        gap = max(1, len(jobs) * repeats // SETUPS)
        t0 = time.perf_counter()
        for _ in range(repeats):
            # input builds are spread over the run, like the operations' timings
            passes.append(run_ops(dc, jobs, workloads, between=timed_build, gap=gap))
            check_repeats(dc, jobs, passes[-1], workloads, reference=passes[0])
        pass_ms = [sum(row[0] for row in p) for p in passes]
        notes = [f"{units} units: {len(jobs)} operations, {repeats} passes in "
                 f"{time.perf_counter() - t0:.1f} s"]
        if args.trace == 0:
            rows = [row for p in passes for row in p]
            metrics, more = end_to_end(passes, setup_times)
        else:
            setup_tracer = tracing.Tracer()
            setup_tracer.patch(dc)
            try:
                build(dc, args.seed, units, workdir)
            finally:
                setup_tracer.unpatch()
            tr = tracing.Tracer()
            tr.patch(dc)
            try:
                rows = run_ops(dc, jobs, workloads, tr)
                traced_ms = sum(row[0] for row in rows)
                metrics = tr.per_layer(traced_ms / 1e3, outcome_counts(rows),
                                       setup_tracer.total[tracing.RANDOM] * 1e3,
                                       traced_ms / statistics.median(pass_ms))
                check_repeats(dc, jobs, rows, workloads, tracer=tr)
            finally:
                tr.unpatch()
            for job, (_, a, _), (_, b, _) in zip(jobs, passes[0], rows):
                if a.evals != b.evals:
                    raise CountMismatch(f"{job.label}: {b.evals} evaluations traced, "
                                        f"{a.evals} untraced")
            more = [f"traced pass {traced_ms / 1e3:.1f} s; {len(tr.start)} spans"]
            tr.write(HERE / "_out" / f"trace-{args.workload}-seed{args.seed}.npz")
        notes += more
    except (workloads.Unsound, CountMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    failed = sum(1 for _, outcome, _ in rows if not outcome.agrees)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    keep = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": True,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in keep},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
