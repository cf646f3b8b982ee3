"""The byte gate: `scripts/golden_outputs.py` runs and lists every output it
wrote, so that a rename inside the package cannot break it unnoticed, and
`scripts/compare_outputs.py` names what differs between two such runs."""
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "golden_outputs.py"


def test_lists_every_output_sorted(tmp_path):
    out = tmp_path / "golden" / "outputs"  # --keep creates it, parents too
    run = subprocess.run([sys.executable, str(SCRIPT), "--keep", str(out)],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    listed = [line.split("  ")[1] for line in lines]
    written = sorted(p.name for p in out.iterdir())
    assert written and listed == written
    for line in lines:
        digest, name = line.split("  ")
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def _compare(parent: Path, change: Path) -> list[str]:
    run = subprocess.run([sys.executable, str(SCRIPTS / "compare_outputs.py"),
                          str(parent), str(change)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_compare_names_each_difference(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "a_raw.bin").write_bytes(np.arange(6.0).tobytes())
    (parent / "a_battery.csv").write_text(
        "model,t_frac,style,amplitude,hits,classification\n"
        "a,0,flat,0.5,10,POSITIVE\n"
        "a,0,ramp_up,0.5,0,ZERO_HITS\n", encoding="utf-8")
    (parent / "a_validate.txt").write_text("PASS\n", encoding="utf-8")
    report = {"seed": 1, "verdicts": {"a": "INCONCLUSIVE", "b": "POSITIVE-ALL"},
              "rows": [{"model": "a", "t_frac": 0.0, "style": "flat",
                        "amplitude": 0.5, "hits": 10,
                        "classification": "POSITIVE"},
                       {"model": "a", "t_frac": 0.0, "style": "ramp_up",
                        "amplitude": 0.5, "hits": 0,
                        "classification": "ZERO_CONSISTENT"}]}
    (parent / "a_battery.json").write_text(json.dumps(report), encoding="utf-8")
    shutil.copytree(parent, change)
    assert _compare(parent, change) == []

    values = np.arange(6.0)
    values[3] += 1e-15
    (change / "a_raw.bin").write_bytes(values.tobytes())
    csv = (parent / "a_battery.csv").read_text(encoding="utf-8")
    (change / "a_battery.csv").write_text(
        csv.replace("ramp_up,0.5,0,", "ramp_up,0.5,1,"), encoding="utf-8")
    report["verdicts"]["a"] = "POSITIVE-ALL"
    report["rows"][0]["amplitude"] = 0.5000000000000001
    report["rows"][1].update(hits=1, classification="POSITIVE")
    (change / "a_battery.json").write_text(json.dumps(report), encoding="utf-8")
    assert _compare(parent, change) == [
        "a_battery.csv: 1 of 2 rows differ (rows 2) in hits (max rel 1)",
        "  row 2 (a,0,ramp_up): hits 0 -> 1",
        "a_battery.json: verdicts a INCONCLUSIVE -> POSITIVE-ALL",
        "a_battery.json: 2 of 2 rows differ (rows 1-2) in amplitude "
        "(max rel 2.2e-16), hits (max rel 1), classification",
        "  row 2 (a,0.0,ramp_up): hits 0 -> 1 classification "
        "ZERO_CONSISTENT -> POSITIVE",
        "a_raw.bin: 1 of 6 doubles differ, max |diff| 8.88e-16",
    ]
