#!/usr/bin/env python3
"""Compare the CSVs of two quick-set output directories.

    python3 scripts/compare_outputs.py OLD_DIR NEW_DIR

For each CSV in either directory it prints the row counts, every change of
a ``tau_star`` or ``status`` cell, the number of differing cells and the
largest |new - old| of each numeric column.  Rows are matched by position,
as the CLI writes them in a fixed order.  When both manifests of a CSV pair
record every point's search ``evaluations`` and ``tau_sum`` (``anneal-time``
runs do), it also prints the totals of each run.  Exits 1 when a CSV is
missing on one side or its header, row count, a ``tau_star`` or a
``status`` differs, 2 when an argument is not a directory, and 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

EXACT = ("tau_star", "status")


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(old: Path, new: Path) -> tuple[list[str], bool, dict[str, float]]:
    """Report lines for one CSV pair, whether it mismatches, and the largest
    |new - old| of each numeric column (inf where a cell is blank on one side
    only; empty when the headers differ)."""
    name = new.name
    header, old_rows = _read(old)
    new_header, new_rows = _read(new)
    if header != new_header:
        return [f"{name}: header {header} -> {new_header}"], True, {}
    lines = [f"{name}: rows {len(old_rows)} / {len(new_rows)}"]
    mismatch = len(old_rows) != len(new_rows)
    differing = 0
    # a column is numeric while every nonblank cell on both sides parses
    max_delta = {col: 0.0 for col in header}
    for r, (a_row, b_row) in enumerate(zip(old_rows, new_rows), start=1):
        for col, a, b in zip(header, a_row, b_row):
            if a != b:
                differing += 1
                if col in EXACT:
                    lines.append(f"  row {r} {col}: {a!r} -> {b!r}")
                    mismatch = True
            if col not in max_delta or (a == "" and b == ""):
                continue
            x, y = _number(a), _number(b)
            if x is None and a or y is None and b:
                del max_delta[col]
            elif x is None or y is None:
                max_delta[col] = math.inf  # blank on one side only
            else:
                max_delta[col] = max(max_delta[col], abs(y - x))
    lines[0] += f", {differing} cells differ"
    if max_delta:
        lines.append("  max |d|: " + ", ".join(f"{c} {d:.3g}" for c, d in max_delta.items()))
    return lines, mismatch, max_delta


def search_totals(manifest: Path) -> tuple[int, float] | None:
    """(evaluations, tau_sum) summed over the points of a run's manifest, or
    None when it is missing or a point does not record them."""
    try:
        points = json.loads(manifest.read_text())["points"]
        return (sum(p["evaluations"] for p in points), sum(p["tau_sum"] for p in points))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, args)
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    mismatch = False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_dir if old.exists() else new_dir}")
            mismatch = True
            continue
        lines, bad, _ = compare_csv(old, new)
        manifest = Path(name).stem + ".manifest.json"
        totals = [search_totals(d / manifest) for d in (old_dir, new_dir)]
        if None not in totals:
            (ev_a, tau_a), (ev_b, tau_b) = totals
            lines.append(f"  search totals: evaluations {ev_a} -> {ev_b}, "
                         f"tau_sum {tau_a:.6g} -> {tau_b:.6g}")
        print("\n".join(lines))
        mismatch |= bad
    print(f"{len(names)} CSVs compared: {'MISMATCH' if mismatch else 'tau_star, status and row counts agree'}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
