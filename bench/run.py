"""crosswind benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its
``src/``. Workloads are defined in ``workloads.py`` and the metrics with
their units in ``BENCHMARK.json``. One run, in one process:

1. set-up: every config of the workload is parsed and run for a single
   control step, ``SETUP_REPS`` times (``setup_s`` is the median);
2. an untimed pass runs the first config under ``tracemalloc``
   (``peak_alloc_mb``) and checks its trace;
3. the timed phase runs the plan's executions round-robin for
   ``--seconds`` (at least ``MIN_EXECUTIONS``); ``wall_s`` and
   ``us_per_step`` are medians over executions. Every output is checked
   after its execution, outside the timing.

With ``--trace 1`` every execution of the timed phase runs twice, once
untraced and once with every binding site in ``spans.binding_sites``
wrapped; the per-layer metrics come from the traced executions plus
traced set-up repetitions. The spans are written to
``bench/.out/<workload>/spans.npz``.

The last line of standard output is the JSON result; the lines before it
repeat every metric, ``fallback_frac`` and ``error_rate`` as text.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# The workloads are single-threaded closed loops. BLAS threads only add
# wake-up jitter to the small matrices of these loops, so they are
# switched off before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 25
MIN_EXECUTIONS = 3
DEFAULT_SEED = 0  # the seed bench/refs.npz was written for


def import_library():
    """Import crosswind from this checkout's sources, or exit 1."""
    package = ROOT / "src" / "crosswind"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no crosswind sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import crosswind

    if Path(crosswind.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported crosswind from {crosswind.__file__}, not {package}")


def load_metric_units() -> tuple:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def execute(workload, jobs, steps, out_dir, tally, record=None) -> tuple:
    """Run and time one execution, then check it; returns (wall s, steps, trace bytes)."""
    trace_dir = out_dir if workload.writes_traces else None
    start = time.perf_counter()
    if record is None:
        outcomes = workload.execute(jobs, trace_dir)
    else:
        outcomes = record(workload.execute, jobs, trace_dir)
    wall = time.perf_counter() - start
    n_bytes = sum(os.path.getsize(os.path.join(trace_dir, j.label + ".csv"))
                  for j in jobs) if trace_dir else 0
    tally.check(outcomes)
    return wall, sum(steps[j.label] for j in jobs), n_bytes


def timed_phase(workload, plan, steps, seconds, out_dir, tally) -> list:
    """Run executions round-robin for ``seconds``; returns each one's ``execute`` tuple."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_EXECUTIONS or time.perf_counter() < deadline:
        results.append(execute(workload, plan[len(results) % len(plan)], steps, out_dir, tally))
    return results


def end_to_end(setup_times, peak_bytes, results) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r[0] for r in results),
        "us_per_step": statistics.median(r[0] / r[1] * 1e6 for r in results),
        "peak_alloc_mb": peak_bytes / 2**20,
    }


def traced_run(workload, plan, jobs, steps, seconds, out_dir, tally) -> dict:
    """Per-layer metrics from traced set-up and a paired timed phase.

    Each execution of the plan runs twice in a row, once untraced and once
    traced, in alternating order, so ``trace.overhead_pct`` compares equal
    inputs under the same machine conditions.
    """
    import spans
    import workloads as wl

    tracer = spans.Tracer(spans.binding_sites())
    with tracer:
        for _ in range(SETUP_REPS):
            tracer.record(wl.set_up, jobs)
    n_setup, n_qp = len(tracer.runs), len(tracer.qp)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_EXECUTIONS or time.perf_counter() < deadline:
        k = len(traced)
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                with tracer:
                    traced.append(execute(workload, plan[k % len(plan)], steps, out_dir, tally,
                                          tracer.record))
            else:
                untraced.append(execute(workload, plan[k % len(plan)], steps, out_dir, tally))
    tracer.save(out_dir / "spans.npz")

    loop_runs = tracer.runs[n_setup:]
    metrics = spans.setup_metrics(tracer.names, tracer.runs[:n_setup])
    metrics.update(spans.loop_metrics(tracer.names, loop_runs, sum(r[1] for r in traced)))
    metrics.update(spans.qp_metrics(tracer.qp[n_qp:], len(loop_runs)))
    metrics["harness.trace_bytes"] = statistics.mean(r[2] for r in traced)
    metrics["harness.fallback_frac"] = tally.fallback_frac
    ratios = [t[0] / u[0] for t, u in zip(traced, untraced)]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    e2e_units, layer_units = load_metric_units()
    import_library()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    jobs = [j for execution in plan for j in execution]
    steps = {}
    for j in jobs:
        cfg = j.parse()
        steps[j.label] = round(cfg.duration / cfg.Ts)
    out_dir = BENCH_DIR / ".out" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = wl.Tally(wl.load_refs(BENCH_DIR / "refs.npz"))

    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.set_up(jobs)
        setup_times.append(time.perf_counter() - start)
    outcome, peak_bytes = wl.peak_alloc(jobs[0])
    tally.check([outcome])

    if args.trace:
        values, units = traced_run(workload, plan, jobs, steps, args.seconds, out_dir, tally), layer_units
    else:
        results = timed_phase(workload, plan, steps, args.seconds, out_dir, tally)
        values, units = end_to_end(setup_times, peak_bytes, results), e2e_units
        values["fallback_frac"] = tally.fallback_frac
    values["error_rate"] = tally.failed / tally.attempted
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name, 'ratio')}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
