"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest -q bench/test_smoke.py

Runs `tube_brownian` at 2000 replications for one second, untraced and
traced, and once more with a deliberately wrong expectation; then one job
of `battery_coarse_all`, whose cells cover every preset's checks.
"""
import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(monkeypatch, **changes):
    """Shrink `tube_brownian` to 2000 replications, plus `changes`."""
    tiny = dataclasses.replace(run.WORKLOADS["tube_brownian"], reps=2000,
                               **changes)
    monkeypatch.setitem(run.WORKLOADS, "tube_brownian", tiny)


def _run(trace: int, workload: str = "tube_brownian"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace)])
    assert rc == 0
    lines = out.getvalue().splitlines()
    printed = {line.split(" = ")[0]: line for line in lines if " = " in line}
    return printed, json.loads(lines[-1])


def _check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_every_metric_is_printed_by_name_and_unit(monkeypatch):
    _tiny(monkeypatch)
    printed, result = _run(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    _check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]].split()[3] == m["unit"]
    _, _, value, unit = printed["fail_ratio"].split()[:4]
    assert float(value) == 0.0 and unit == "ratio"

    printed, result = _run(1)
    assert result["correct"]
    _check_metrics(result, SPEC["per_layer"])
    assert set(printed) >= {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["core.generators_per_rep"]["value"] > 1.9
    assert result["metrics"]["gaussian.trmm_s"]["value"] == 0.0


def test_wrong_expectation_raises_fail_ratio(monkeypatch):
    _tiny(monkeypatch, expect_p=0.9)
    printed, result = _run(0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert float(printed["fail_ratio"].split()[2]) > 0.0


def test_coarse_battery_passes_every_cell_check():
    _, result = _run(0, "battery_coarse_all")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 48
