"""Compare two `golden_outputs.py --keep` directories, file by file.

Prints one line per file that differs or exists on one side only:

- a `.bin` (raw float64 bytes): how many doubles differ and the largest
  absolute difference;
- a `.csv`: the data rows and the columns that differ, with the largest
  relative difference of each numeric column, followed by one indented
  line per row whose `hits` or `classification` changed;
- a battery `.json`: each model whose verdict changed, then its rows as
  for a `.csv`;
- any other file, or a `.json` that differs elsewhere: that its bytes
  differ.

Identical directories print nothing. Rows are numbered from 1, after the
header.

Usage:
    python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR
"""
import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

WATCHED = ("hits", "classification")


def _ranges(rows: list[int]) -> str:
    """'1-3, 7' for [1, 2, 3, 7]."""
    spans: list[list[int]] = []
    for r in rows:
        if spans and r == spans[-1][1] + 1:
            spans[-1][1] = r
        else:
            spans.append([r, r])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def _rel(a: str, b: str) -> float | None:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def compare_bin(old: bytes, new: bytes) -> str:
    if len(old) != len(new):
        return f"{len(old) // 8} vs {len(new) // 8} doubles"
    a = np.frombuffer(old, dtype=np.float64)
    b = np.frombuffer(new, dtype=np.float64)
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    worst = float(np.max(np.abs(a[differ] - b[differ]), initial=0.0))
    return f"{int(np.sum(differ))} of {len(a)} doubles differ, max |diff| {worst:.3g}"


def compare_csv(old: str, new: str) -> list[str]:
    (head_a, *a), (head_b, *b) = (list(csv.reader(io.StringIO(t))) for t in (old, new))
    return compare_rows(head_a, a, head_b, b)


def compare_json(old: str, new: str) -> list[str]:
    """A battery report: its verdicts, then its rows as `compare_rows` does."""
    a, b = json.loads(old), json.loads(new)
    va, vb = a["verdicts"], b["verdicts"]
    changed = [f"{m} {va.get(m)} -> {vb.get(m)}"
               for m in sorted(va.keys() | vb.keys()) if va.get(m) != vb.get(m)]
    out = [f"verdicts {', '.join(changed)}"] if changed else []
    table_a, table_b = _json_table(a), _json_table(b)
    if table_a != table_b:
        out += compare_rows(*table_a, *table_b)
    return out or ["bytes differ"]


def _json_table(report: dict) -> tuple[list[str], list[list[str]]]:
    """A battery report's rows as text cells, under their keys."""
    rows = report["rows"]
    head = list(rows[0]) if rows else []
    return head, [[str(v) for v in row.values()] for row in rows]


def compare_rows(head_a: list[str], a: list[list[str]],
                 head_b: list[str], b: list[list[str]]) -> list[str]:
    """Report lines for two tables of text cells, each under its header."""
    if head_a != head_b:
        return [f"header {','.join(head_a)} vs {','.join(head_b)}"]
    if len(a) != len(b):
        return [f"{len(a)} vs {len(b)} rows"]
    rows: list[int] = []
    cols: dict[int, float | None] = {}
    watched: list[str] = []
    for i, (ra, rb) in enumerate(zip(a, b), start=1):
        if ra == rb:
            continue
        rows.append(i)
        changed = [c for c, (x, y) in enumerate(zip(ra, rb)) if x != y]
        for c in changed:  # None marks a non-numeric column
            rel = _rel(ra[c], rb[c])
            if rel is None or cols.get(c, 0.0) is None:
                cols[c] = None
            else:
                cols[c] = max(cols.get(c, 0.0), rel)
        if any(head_a[c] in WATCHED for c in changed):
            key = ",".join(ra[:3])
            pairs = " ".join(f"{head_a[c]} {ra[c]} -> {rb[c]}" for c in changed
                             if head_a[c] in WATCHED)
            watched.append(f"  row {i} ({key}): {pairs}")
    columns = ", ".join(
        head_a[c] if cols[c] is None else f"{head_a[c]} (max rel {cols[c]:.2g})"
        for c in sorted(cols))
    return [f"{len(rows)} of {len(a)} rows differ (rows {_ranges(rows)}) "
            f"in {columns}", *watched]


def compare_dirs(parent: Path, change: Path) -> list[str]:
    """The lines to print for two output directories."""
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    out = []
    for name in names:
        a, b = parent / name, change / name
        if not b.exists() or not a.exists():
            out.append(f"{name}: only in {parent if a.exists() else change}")
            continue
        old, new = a.read_bytes(), b.read_bytes()
        if old == new:
            continue
        if name.endswith(".bin"):
            lines = [compare_bin(old, new)]
        elif name.endswith(".csv"):
            lines = compare_csv(old.decode(), new.decode())
        elif name.endswith(".json"):
            lines = compare_json(old.decode(), new.decode())
        else:
            lines = ["bytes differ"]
        out += [line if line.startswith(" ") else f"{name}: {line}"
                for line in lines]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="outputs of the parent commit")
    parser.add_argument("change", type=Path, help="outputs of the change")
    args = parser.parse_args()
    for line in compare_dirs(args.parent, args.change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
