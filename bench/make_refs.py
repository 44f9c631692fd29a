"""Write bench/refs.npz: reference outputs for the default seed.

    python3 bench/make_refs.py

The references pin the theta and cmd_torque columns of every trace the
default seed produces on mpc_montecarlo (the first config), fullplant
and light_loops, and each printed mpc_montecarlo sweep line. They were
written from the commit that introduced the benchmark; rewriting them
moves the gate that every later change is checked against, so do it only
for an intended change of behaviour and say so.
"""

from __future__ import annotations

import sys

import numpy as np

import run


def main() -> int:
    run.import_library()
    import workloads as wl

    refs = {}
    for name in ("mpc_montecarlo", "fullplant", "light_loops"):
        workload = wl.WORKLOADS[name]
        plan = workload.plan(run.DEFAULT_SEED)
        jobs = [j for execution in plan for j in execution]
        if name == "mpc_montecarlo":
            for o in wl.run_sweep(jobs):
                refs[f"{o.job.label}:line"] = np.array(o.line)
            jobs = jobs[:1]  # the trace checked in the tracemalloc pass
        for o in wl.run_jobs(jobs):
            if o.error is not None:
                sys.exit(f"error: {o.job.label}: {o.error}")
            cols = wl.trace_columns(o.trace)
            refs[f"{o.job.label}:theta"] = cols["theta"]
            refs[f"{o.job.label}:cmd_torque"] = cols["cmd_torque"]
    np.savez_compressed(run.BENCH_DIR / "refs.npz", **refs)
    print(f"wrote {len(refs)} arrays to {run.BENCH_DIR / 'refs.npz'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
