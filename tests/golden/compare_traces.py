"""Compare the bundled scenario traces of a git revision with the working tree.

    python tests/golden/compare_traces.py REV

Writes every bundled scenario's full trace CSV (all ten columns, through
``harness.write_trace``) once from a ``git archive`` of REV and once from
the working tree's ``src/``, into a temporary directory. Prints per
scenario whether the two files are byte-identical, or else every column
whose text differs: a numeric column with its largest |difference| and
the number of rows where it differs only in the sign of a zero, and
``qp_status`` with the number of rows that differ. Exits 1 if any
scenario differs or exists on one side only, 0 if all are identical.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Run with PYTHONPATH=<tree>/src: argv[1] is the output directory, argv[2]
# the package directory that must have been imported.
WRITER = """
import sys
from pathlib import Path
import crosswind
from crosswind.harness import run_scenario, write_trace
from crosswind.scenario import bundled_scenario_names, load_bundled_scenario
if Path(crosswind.__file__).resolve().parent != Path(sys.argv[2]).resolve():
    sys.exit(f"imported crosswind from {crosswind.__file__}, not {sys.argv[2]}")
for name in bundled_scenario_names():
    write_trace(run_scenario(load_bundled_scenario(name)), f"{sys.argv[1]}/{name}.csv")
"""


def extract(rev: str, dest: Path) -> None:
    """Unpack the tree of ``rev`` into ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit(f"error: cannot extract revision {rev!r}")


def write_traces(sides: dict) -> None:
    """Write the traces of each (source tree, output dir) pair, in parallel."""
    procs = []
    for tree, out in sides.values():
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", WRITER, str(out), str(tree / "src" / "crosswind")],
            env=env, cwd=out))
    for label, proc in zip(sides, procs):
        if proc.wait() != 0:
            sys.exit(f"error: writing the traces of {label} failed")


def read_columns(path: Path) -> dict:
    """The CSV's columns by header name, each a list of the rows' texts."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return {c: [r[i] for r in rows] for i, c in enumerate(header)}


def max_delta(xs: list, ys: list) -> float:
    """Largest |x - y|; a NaN on one side only counts as infinite."""
    worst = 0.0
    for x, y in zip(xs, ys):
        d = abs(x - y)
        if d != d:
            d = 0.0 if x != x and y != y else math.inf
        worst = max(worst, d)
    return worst


def column_change(column: str, xs: list, ys: list) -> str:
    """How a column whose texts differ changed."""
    if column == "qp_status":
        return f"qp_status in {sum(x != y for x, y in zip(xs, ys))} rows"
    a, b = [float(x) for x in xs], [float(y) for y in ys]
    signed_zeros = sum(x != y and u == v == 0.0 for x, y, u, v in zip(xs, ys, a, b))
    return f"{column} max |delta| {max_delta(a, b):.3e} ({signed_zeros} rows only the sign of 0)"


def compare(name: str, old: Path, new: Path, rev: str) -> bool:
    if not old.exists() or not new.exists():
        print(f"{name}: only in {rev if old.exists() else 'the working tree'}")
        return False
    if old.read_bytes() == new.read_bytes():
        print(f"{name}: byte-identical")
        return True
    a, b = read_columns(old), read_columns(new)
    if a.keys() != b.keys():
        print(f"{name}: the header differs from {rev}")
        return False
    if len(a["t"]) != len(b["t"]):
        print(f"{name}: {len(a['t'])} rows at {rev}, {len(b['t'])} in the working tree")
        return False
    changes = "; ".join(column_change(c, a[c], b[c]) for c in a if a[c] != b[c])
    print(f"{name}: differs: {changes}")
    return False


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tests/golden/compare_traces.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(rev, tmp / "rev")
        sides = {rev: (tmp / "rev", tmp / "old"), "working tree": (ROOT, tmp / "new")}
        write_traces(sides)
        names = sorted({p.stem for side in ("old", "new") for p in (tmp / side).glob("*.csv")})
        same = [compare(n, tmp / "old" / f"{n}.csv", tmp / "new" / f"{n}.csv", rev) for n in names]
    print(f"{sum(same)}/{len(same)} bundled traces byte-identical")
    return 0 if same and all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
