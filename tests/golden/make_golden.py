"""Write the golden traces: the theta and cmd_torque columns of every
bundled scenario, one CSV per scenario in this directory.

    PYTHONPATH=src python tests/golden/make_golden.py

Run it on the commit whose behaviour the goldens pin, i.e. before a
change that must keep every trace within 1e-9, and commit the CSVs.
``tests/test_golden.py`` compares fresh runs against them.
"""

from pathlib import Path

from crosswind.harness import run_scenario
from crosswind.scenario import bundled_scenario_names, load_bundled_scenario

GOLDEN_DIR = Path(__file__).resolve().parent
COLUMNS = ("theta", "cmd_torque")


def main() -> None:
    for name in bundled_scenario_names():
        trace = run_scenario(load_bundled_scenario(name))
        lines = [",".join(COLUMNS)]
        lines += [",".join(repr(float(getattr(r, c))) for c in COLUMNS) for r in trace]
        (GOLDEN_DIR / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{name}: {len(trace)} rows")


if __name__ == "__main__":
    main()
