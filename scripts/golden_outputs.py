"""Golden outputs: the SHA-256 of every output of a fixed set of runs.

With BLAS pinned to one thread, runs at fixed seeds:

- one coarse battery per preset (every preset, restarts 0, 1/4, 1/2 and
  3/4 on 2^8 steps, 1000 replications), writing CSV, JSON and PLOTDATA;
- the default seven-model battery at 1000 replications on 2^11 steps;
- a few smallball queries at `--workers 2`, so that comparing listings
  also checks the threaded counts against a parent's bytes;
- raw continuation bytes of the presets whose REDRAW branch no preset
  selects (`bns`, `comte_renault`, `regime`), and of the presets whose
  FIXED branch no preset selects (`heston`, `mixed_fbm_h075`), at restarts
  0 and 128 of 256 steps;
- raw history and continuation bytes of every preset at restarts 0 and
  128 of 256 steps;
- raw REDRAW continuations of `bns` and `regime` at 2100 replications
  (three blocks of 1024), so rows cross block boundaries;
- `repr` of a `timechanged_smallball` estimate at 3000 replications;
- the stdout of `cfslab models`;
- `repr(validate_spec(spec))` for every preset;

into a temporary directory, and prints one `<sha256>  <file>` line per
output, sorted by file name. A refactor that must keep its bytes runs this
on the parent commit and on the change, on the same host, and compares the
two listings; every line that differs names the output that changed.

The script imports `cfslab` from the `src/` next to it, so a checkout of
any commit can run its own copy.

Usage:
    python scripts/golden_outputs.py [--keep DIR]

`--keep DIR` writes the outputs to DIR (which must exist) instead of a
temporary directory, so that changed files can be compared row by row.
"""
import os

# Pinned before numpy is imported: the fBm continuation's dense triangular
# multiply rounds differently with more than one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cfslab import catalog, core  # noqa: E402
from cfslab.cli import main as cli_main  # noqa: E402
from cfslab.core import RngStream, make_grid, tail_grid  # noqa: E402
from cfslab.models import (  # noqa: E402
    HkMode,
    iter_continuations,
    simulate,
    validate_spec,
)
from cfslab.smallball import timechanged_smallball  # noqa: E402

SEED = 11
COARSE = "t_fracs = 0.0,0.25,0.5,0.75\nn_steps = 256\n"
# (model, epsilon, t_frac, extra config lines)
SMALLBALL = (
    ("brownian", 1.0, 0.0, "n_steps = 512\n"),
    ("wiener_affine", 0.5, 0.5, "n_steps = 512\nstyle = ramp_up\namplitude = 0.3\n"),
    ("exp_drift", 0.2, 0.0, "n_steps = 512\n"),
    ("heston", 0.1, 0.5, "n_steps = 512\nstyle = zigzag\namplitude = 0.05\n"),
    ("bridge", 0.5, 0.5, "n_steps = 512\n"),
)


def _run(argv: list[str], out: Path, config: str) -> None:
    cfg = out / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main([argv[0], "--config", str(cfg), "--seed", str(SEED),
                       "--out", str(out), *argv[1:]])
    cfg.unlink()
    if rc != 0:
        raise SystemExit(f"cfslab {' '.join(argv)} exited with {rc}")


def write_outputs(out: Path) -> None:
    for name in catalog.preset_names():
        _run(["battery", "--reps", "1000", "--format", "plotdata"], out,
             f"models = {name}\n{COARSE}")
    _run(["battery", "--reps", "1000", "--workers", "2"], out,
         f"models = {','.join(catalog.DEFAULT_BATTERY)}\n")
    for model, eps, t_frac, extra in SMALLBALL:
        _run(["smallball", "--reps", "5000", "--workers", "2",
              "--model", model, "--epsilon", str(eps), "--t-frac", str(t_frac)],
             out, extra)
    for name in ("bns", "comte_renault", "regime"):
        spec = dataclasses.replace(catalog.get_preset(name),
                                   hk_mode=HkMode.REDRAW)
        _write_raw(out / f"{name}_redraw.bin", spec, (128,), history=False)
        _write_raw(out / f"{name}_redraw_0.bin", spec, (0,), history=False)
        if name != "comte_renault":
            _write_raw(out / f"{name}_redraw_2100.bin", spec, (128,),
                       history=False, reps=2100)
    for name in ("heston", "mixed_fbm_h075"):
        spec = dataclasses.replace(catalog.get_preset(name),
                                   hk_mode=HkMode.FIXED)
        _write_raw(out / f"{name}_fixed.bin", spec, (0, 128), history=False)
    for name in catalog.preset_names():
        spec = catalog.get_preset(name)
        _write_raw(out / f"{name}_raw.bin", spec, (0, 128), history=True)
        (out / f"{name}_validate.txt").write_text(
            repr(validate_spec(spec)) + "\n", encoding="utf-8")
    grid = make_grid(0.0, 1.0, 512)
    k = core.Path(grid, 1.0 + 0.5 * np.sin(3.0 * np.asarray(grid.nodes)))
    f = core.Path(grid, 0.3 * np.asarray(grid.nodes))
    est = timechanged_smallball(k, f, 1.2, 3000, RngStream(SEED, 3))
    (out / "timechanged.txt").write_text(repr(est) + "\n", encoding="utf-8")
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        rc = cli_main(["models"])
    if rc != 0:
        raise SystemExit(f"cfslab models exited with {rc}")
    (out / "models.txt").write_text(listing.getvalue(), encoding="utf-8")


def _write_raw(path: Path, spec, t_indices, history: bool,
               reps: int = 64) -> None:
    """Raw bytes of `reps` continuations (and, with `history`, the simulated
    path and its frozen history) from each restart node of a 2^8-step grid."""
    grid = make_grid(0.0, 1.0, 256)
    with open(path, "wb") as fh:
        for t_index in t_indices:
            rng = RngStream(SEED, 0)
            z, ctx = simulate(spec, grid, rng.child(0), t_index)
            if history:
                fh.write(z.values.tobytes())
                fh.write(ctx.z_values.tobytes())
            for _, block in iter_continuations(
                    spec, ctx, tail_grid(grid, t_index), rng.child(1), reps):
                fh.write(block.tobytes())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="write the outputs to this directory")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        out = Path(args.keep if args.keep is not None
                   else stack.enter_context(tempfile.TemporaryDirectory()))
        write_outputs(out)
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
