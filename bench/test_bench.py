"""Self-tests of the benchmark: python3 -m pytest -q bench"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [15, 25)
    table = np.array([
        [0, 0, 100, -1],
        [1, 10, 40, 0],
        [2, 15, 25, 1],
        [3, 50, 60, 0],
    ])
    assert spans.self_times(table).tolist() == [60, 20, 10, 10]


def test_layer_self_times_add_up_to_the_root():
    jobs = wl.WORKLOADS["light_loops"].plan(run.DEFAULT_SEED)[0][:2]
    with spans.Tracer(spans.binding_sites()) as tracer:
        tracer.record(wl.run_jobs, jobs)
    table = spans.SpanTable(tracer.names, tracer.runs)
    root = float(table.durations(spans.ROOT).sum())
    layers = sum(table.layer_self(layer) for layer in spans.LAYERS + ("bench",))
    assert layers == pytest.approx(root, rel=1e-12)
    n_steps = sum(round(cfg.duration / cfg.Ts) for cfg in (j.parse() for j in jobs))
    assert table.durations("controllers.pid_step").size == n_steps  # both loops are PID


def _light_outcome():
    job = wl.WORKLOADS["light_loops"].plan(run.DEFAULT_SEED)[0][0]
    (outcome,) = wl.run_jobs([job])
    return outcome


def test_output_check_passes_the_reference_trace():
    refs = wl.load_refs(run.BENCH_DIR / "refs.npz")
    outcome = _light_outcome()
    assert f"{outcome.job.label}:cmd_torque" in refs
    assert wl.check_outcome(outcome, refs) == []


def test_output_check_rejects_one_perturbed_command():
    refs = wl.load_refs(run.BENCH_DIR / "refs.npz")
    outcome = _light_outcome()
    last = outcome.trace[-1]  # never applied within the trace, so only the reference sees it
    outcome.trace[-1] = dataclasses.replace(last, cmd_torque=last.cmd_torque + 1e-6)
    problems = wl.check_outcome(outcome, refs)
    assert len(problems) == 1 and "cmd_torque differs from the reference" in problems[0]


def test_property_check_rejects_a_broken_delay_line():
    outcome = _light_outcome()
    r = outcome.trace[50]
    outcome.trace[50] = dataclasses.replace(r, applied_torque=r.applied_torque + 1.0)
    assert any("check_causality" in p for p in wl.check_outcome(outcome, {}))


def _rng_seeds(plan):
    return [j.rng_seed for execution in plan for j in execution]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_rng_seeds(name):
    plan = wl.WORKLOADS[name].plan
    assert plan(7) == plan(7)
    assert set(_rng_seeds(plan(7))).isdisjoint(_rng_seeds(plan(8)))


def test_traced_run_restores_every_wrapped_function():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.binding_sites()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", "light_loops", "--seconds", "0.1", "--trace", "1"])
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    result = json.loads(out.getvalue().splitlines()[-1])
    _, layer_units = run.load_metric_units()
    assert result["correct"] and set(result["metrics"]) == set(layer_units)


def test_benchmark_json_lists_the_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in wl.WORKLOADS.values()}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "light_loops",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
