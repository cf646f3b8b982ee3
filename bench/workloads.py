"""The benchmark's workloads: one CLI invocation each, plus what a correct
output must satisfy.

Every workload runs `cfslab.cli.main` with the argv built here. The seed is
the only input that varies between runs; replication counts are fixed so
that every run does the same amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_PRESETS = (
    "mixed_fbm_h025", "mixed_fbm_h075", "heston", "bns",
    "comte_renault", "regime", "sde",
)
ALL_PRESETS = (
    "brownian", "mixed_fbm_h025", "mixed_fbm_h075", "wiener_affine",
    "heston", "bns", "comte_renault", "regime", "sde", "exp_drift",
    "doleans", "bridge",
)

# Presets without full support, with the analytic-zero reason every one of
# their ANALYTIC_ZERO rows must carry; their verdict is NOT-FULL-SUPPORT.
# Every other preset must come out POSITIVE-ALL with every row POSITIVE.
NOT_FULL = {"doleans": "POSITIVITY", "bridge": "ENDPOINT_PIN"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "battery" or "smallball"
    reps: int
    why: str
    # battery shape, written to a `--config` file so that the workload does
    # not follow changes to the CLI's defaults
    presets: tuple[str, ...] = DEFAULT_PRESETS
    t_fracs: tuple[float, ...] = (0.0, 0.5)
    n_steps: int = 2048
    # smallball flags
    flags: tuple[str, ...] = ()
    # smallball expectation for p̂ (None: the reflection-series value for
    # the CLI's default horizon 1 and the workload's radius 1)
    expect_p: float | None = None

    @property
    def is_battery(self) -> bool:
        return self.command == "battery"

    @property
    def n_cells(self) -> int:
        return len(self.presets) * len(self.t_fracs) if self.is_battery else 1

    def config_text(self) -> str:
        return (f"models = {','.join(self.presets)}\n"
                f"t_fracs = {','.join(str(f) for f in self.t_fracs)}\n"
                f"n_steps = {self.n_steps}\n")

    def argv(self, seed: int, workers: int, out: str,
             config_path: str | None) -> list[str]:
        argv = [self.command]
        if config_path is not None:
            argv += ["--config", config_path]
        argv += ["--seed", str(seed), "--reps", str(self.reps),
                 "--workers", str(workers), "--out", out]
        return argv + list(self.flags)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="battery_default",
            command="battery",
            reps=1000,
            why="the release battery (7 presets x t in {0, 1/2}, 2^11 steps) "
                "scaled down; model continuations and fBm dtrmm dominate",
        ),
        Workload(
            name="tube_brownian",
            command="smallball",
            reps=20000,
            why="one debiased Brownian tube query; per-replication stream "
                "construction and excursion thinning dominate",
            flags=("--model", "brownian", "--epsilon", "1", "--t-frac", "0"),
        ),
        # Not listed in BENCHMARK.json: on a shared 2-vCPU host its run
        # medians spread too widely to serve as a gate (see README.md). It
        # still runs with the same command, and it is the only workload
        # that exercises every preset and the analytic-zero checks.
        Workload(
            name="battery_coarse_all",
            command="battery",
            reps=1000,
            why="all 12 presets x 4 restarts on 2^8 steps; 48 short cells "
                "where per-replication overhead, the pilot and per-cell costs "
                "rule",
            presets=ALL_PRESETS,
            t_fracs=(0.0, 0.25, 0.5, 0.75),
            n_steps=256,
        ),
    )
}
