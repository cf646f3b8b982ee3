"""Output checks. Each runs per operation (one battery cell, or one tube
query) on the files a job wrote, never against a golden digest, so it
holds on any seed.
"""
from __future__ import annotations

import csv
import math

from workloads import NOT_FULL, Workload

TUBE_TOLERANCE_SE = 4.0


def read_rows(csv_path: str) -> list[dict[str, str]]:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def replications(rows) -> int:
    """Replications in the report: reps summed over cells (pilot excluded)."""
    cells = {}
    for r in rows:
        cells[(r["model"], r["t_frac"])] = int(r["reps"])
    return sum(cells.values())


def check_tube(rows, expect_p: float) -> tuple[int, list[str]]:
    """One operation: p̂ within TUBE_TOLERANCE_SE binomial standard errors
    of the expected tube probability."""
    if len(rows) != 1:
        return 1, [f"expected one CSV row, got {len(rows)}"]
    row = rows[0]
    reps, p_hat = int(row["reps"]), float(row["p_hat"])
    se = math.sqrt(expect_p * (1.0 - expect_p) / reps)
    if abs(p_hat - expect_p) > TUBE_TOLERANCE_SE * se:
        return 1, [f"p_hat {p_hat} is more than {TUBE_TOLERANCE_SE} SE "
                   f"({se:.3g}) from the expected {expect_p}"]
    return 0, []


def check_battery(w: Workload, rows, verdicts: dict[str, str],
                  captured_cells: list[dict]) -> tuple[int, list[str]]:
    """Per cell: a full-support preset is POSITIVE-ALL with every row
    POSITIVE; a preset without full support is NOT-FULL-SUPPORT and each of
    its ANALYTIC_ZERO rows has the expected reason, recomputed through
    `detect_analytic_zero` in the job. A missing cell fails."""
    cells: dict[tuple[str, float], list[dict[str, str]]] = {}
    for r in rows:
        cells.setdefault((r["model"], float(r["t_frac"])), []).append(r)
    reasons = {(c["model"], c["t_index"]): c for c in captured_cells}
    failed, notes = 0, []
    for model in w.presets:
        own = [r for (m, _), rs in cells.items() if m == model for r in rs]
        has_zero = any(r["classification"] == "ANALYTIC_ZERO" for r in own)
        for frac in w.t_fracs:
            cell = cells.get((model, float(frac)))
            problem = _cell_problem(w, model, frac, cell, verdicts.get(model),
                                    has_zero, reasons)
            if problem:
                failed += 1
                notes.append(f"{model} t={frac}: {problem}")
    return failed, notes


def _cell_problem(w, model, frac, cell, verdict, model_has_zero, reasons):
    if not cell:
        return "cell missing from the CSV"
    expected = "NOT-FULL-SUPPORT" if model in NOT_FULL else "POSITIVE-ALL"
    if verdict != expected:
        return f"verdict {verdict}, expected {expected}"
    if model not in NOT_FULL:
        bad = [r["classification"] for r in cell
               if r["classification"] != "POSITIVE"]
        return f"rows classified {sorted(set(bad))}" if bad else None
    if not model_has_zero:
        return "no ANALYTIC_ZERO row for a preset without full support"
    captured = reasons.get((model, int(round(frac * w.n_steps))))
    if captured is None or len(captured["eps"]) != len(cell):
        return "tube-estimate call for this cell was not captured"
    for r, eps, reason in zip(cell, captured["eps"], captured["reasons"]):
        if float(r["epsilon"]) != eps:
            return "CSV rows and captured queries are out of step"
        if r["classification"] == "ANALYTIC_ZERO" and reason != NOT_FULL[model]:
            return f"ANALYTIC_ZERO row with reason {reason}"
    return None
