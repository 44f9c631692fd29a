"""Compare the bundled scenario traces of a git revision with the working tree.

    python tests/golden/compare_traces.py REV [--atol ATOL]

Writes every bundled scenario's full trace CSV (all ten columns, through
``harness.write_trace``) once from a ``git archive`` of REV and once from
the working tree's ``src/``, into a temporary directory. Prints per
scenario whether the two files are byte-identical, or else every column
whose text differs: a numeric column with its largest |difference| and
the number of rows where it differs only in the sign of a zero, and
``qp_status`` with the number of rows that differ.

Without ``--atol`` it exits 1 if any scenario differs or exists on one
side only, 0 if all are identical. With ``--atol`` a scenario also
passes when it has the same header and rows, every numeric column is
within ATOL of REV's and ``qp_status`` is identical; the exit status is
0 if every scenario passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
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


def column_change(column: str, xs: list, ys: list) -> tuple:
    """How a column whose texts differ changed, and its largest |difference|.

    The difference of ``qp_status`` is infinite: no tolerance covers it.
    """
    if column == "qp_status":
        return f"qp_status in {sum(x != y for x, y in zip(xs, ys))} rows", math.inf
    a, b = [float(x) for x in xs], [float(y) for y in ys]
    signed_zeros = sum(x != y and u == v == 0.0 for x, y, u, v in zip(xs, ys, a, b))
    delta = max_delta(a, b)
    return f"{column} max |delta| {delta:.3e} ({signed_zeros} rows only the sign of 0)", delta


def compare(name: str, old: Path, new: Path, rev: str, atol: float | None) -> tuple:
    """(byte-identical, within atol) for one scenario's two trace files."""
    if not old.exists() or not new.exists():
        print(f"{name}: only in {rev if old.exists() else 'the working tree'}")
        return False, False
    if old.read_bytes() == new.read_bytes():
        print(f"{name}: byte-identical")
        return True, True
    a, b = read_columns(old), read_columns(new)
    if a.keys() != b.keys():
        print(f"{name}: the header differs from {rev}")
        return False, False
    if len(a["t"]) != len(b["t"]):
        print(f"{name}: {len(a['t'])} rows at {rev}, {len(b['t'])} in the working tree")
        return False, False
    changes = [column_change(c, a[c], b[c]) for c in a if a[c] != b[c]]
    within = atol is not None and all(delta <= atol for _, delta in changes)
    verdict = f" (within atol {atol:g})" if within else ""
    print(f"{name}: differs{verdict}: " + "; ".join(text for text, _ in changes))
    return False, within


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_traces.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--atol", type=float, default=None,
                        help="pass numeric columns within this absolute tolerance")
    args = parser.parse_args(argv)
    if args.atol is not None and not 0 <= args.atol < math.inf:
        parser.error(f"--atol must be finite and >= 0, got {args.atol}")
    rev = args.rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(rev, tmp / "rev")
        sides = {rev: (tmp / "rev", tmp / "old"), "working tree": (ROOT, tmp / "new")}
        write_traces(sides)
        names = sorted({p.stem for side in ("old", "new") for p in (tmp / side).glob("*.csv")})
        results = [compare(n, tmp / "old" / f"{n}.csv", tmp / "new" / f"{n}.csv", rev, args.atol)
                   for n in names]
    print(f"{sum(same for same, _ in results)}/{len(results)} bundled traces byte-identical")
    if args.atol is None:
        return 0 if results and all(same for same, _ in results) else 1
    print(f"{sum(ok for _, ok in results)}/{len(results)} bundled traces within atol {args.atol:g}")
    return 0 if results and all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
