"""The byte gate: `scripts/golden_outputs.py` runs and lists every output it
wrote, so that a rename inside the package cannot break it unnoticed."""
import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"


def test_lists_every_output_sorted(tmp_path):
    run = subprocess.run([sys.executable, str(SCRIPT), "--keep", str(tmp_path)],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    listed = [line.split("  ")[1] for line in lines]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written and listed == written
    for line in lines:
        digest, name = line.split("  ")
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
