"""Command-line interface: run, compare, and sweep scenarios.

Scenario arguments are file paths, or names of bundled scenarios when no
such file exists (see ``crosswind run --list``). Exit codes: 0 success,
1 parse/validation failure, 2 runtime divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import PlantDivergenceError, ScenarioError
from .harness import compute_metrics, response_reduction, run_scenario, write_trace
from .scenario import (
    ScenarioConfig,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario_file,
)

DEFAULT_BAND = 0.02  # wingtip meters


def _load(arg: str, overrides: dict | None = None) -> ScenarioConfig:
    if os.path.exists(arg):
        return load_scenario_file(arg, overrides=overrides)
    return load_bundled_scenario(arg, overrides=overrides)


def _print_metrics(name: str, metrics) -> None:
    print(f"scenario: {name}")
    print(f"band_m: {metrics.band}")
    print(f"peak_disp_m: {metrics.peak_disp:.6g}")
    if metrics.settling_time is None:
        print("settling_time_s: not-settled")
    else:
        print(f"settling_time_s: {metrics.settling_time:.6g}")
    print(f"all_events_settled: {metrics.settled}")
    for e in metrics.per_event:
        settle = "not-settled" if e.settling_time is None else f"{e.settling_time:.6g}"
        print(f"event_t={e.event_time:g}s: settling_s={settle} peak_m={e.peak_disp:.6g}")


def _run_and_measure(cfg: ScenarioConfig, band: float):
    trace = run_scenario(cfg)
    metrics = compute_metrics(trace, band=band, events=cfg.event_times())
    return trace, metrics


def cmd_run(args) -> int:
    cfg = _load(args.scenario)
    trace, metrics = _run_and_measure(cfg, args.band)
    if args.out:
        write_trace(trace, args.out)
        print(f"trace written: {args.out} ({len(trace)} rows)")
    if args.metrics or not args.out:
        _print_metrics(args.scenario, metrics)
    return 0


def cmd_compare(args) -> int:
    cfg_a = _load(args.scenario_a)
    cfg_b = _load(args.scenario_b)
    _, metrics_a = _run_and_measure(cfg_a, args.band)
    _, metrics_b = _run_and_measure(cfg_b, args.band)
    _print_metrics(args.scenario_a, metrics_a)
    print()
    _print_metrics(args.scenario_b, metrics_b)
    print()
    reduction = response_reduction(metrics_a, metrics_b)
    print(f"response_reduction_pct: {reduction:.2f}")
    return 0


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ScenarioError("sweep needs at least one value")
    for value in values:
        cfg = _load(args.scenario, overrides={args.param: value})
        _, metrics = _run_and_measure(cfg, args.band)
        settle = ("not-settled" if metrics.settling_time is None
                  else f"{metrics.settling_time:.6g}")
        print(f"{args.param}={value}: settling_time_s={settle} "
              f"peak_disp_m={metrics.peak_disp:.6g}")
    return 0


def cmd_scenarios(args) -> int:
    print("\n".join(bundled_scenario_names()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosswind",
        description="Batch simulation of the crosswind roll-stabilization loop",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help="scenario file or bundled scenario name")
    p_run.add_argument("--out", help="write the trace CSV here")
    p_run.add_argument("--metrics", action="store_true", help="print response metrics")
    p_run.add_argument("--band", type=float, default=DEFAULT_BAND,
                       help="settling band in wingtip meters (default 0.02)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run two scenarios and report the reduction")
    p_cmp.add_argument("scenario_a", help="baseline scenario")
    p_cmp.add_argument("scenario_b", help="candidate scenario")
    p_cmp.add_argument("--band", type=float, default=DEFAULT_BAND)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="re-run a scenario over parameter values")
    p_swp.add_argument("scenario")
    p_swp.add_argument("--param", required=True, help="dotted key, e.g. mpc.control_weight")
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.add_argument("--band", type=float, default=DEFAULT_BAND)
    p_swp.set_defaults(func=cmd_sweep)

    p_ls = sub.add_parser("scenarios", help="list bundled scenarios")
    p_ls.set_defaults(func=cmd_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlantDivergenceError as exc:
        print(f"runtime divergence: {exc} (step {exc.step})", file=sys.stderr)
        return 2
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
