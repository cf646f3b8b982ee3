"""cfslab: Monte Carlo probes of conditional path support.

Simulate a model on a grid, freeze its history at a restart node, and
estimate the conditional probability that the continuation stays in a
sup-norm tube around a chosen target — with analytic detection of tubes
the model provably cannot enter.
"""
from .core import (
    Classification,
    Estimate,
    Path,
    RngStream,
    TimeGrid,
    make_grid,
    tail_grid,
)
from .models import FAMILIES, HkMode, ModelSpec, simulate, validate_spec
from .smallball import (
    SmallBallQuery,
    brownian_smallball_series,
    estimate_smallball,
    timechanged_smallball,
)
from .suite import BatteryTemplate, TargetStyle, build_targets, run_battery

__version__ = "0.1.0"

__all__ = [
    "BatteryTemplate",
    "Classification",
    "Estimate",
    "FAMILIES",
    "HkMode",
    "ModelSpec",
    "Path",
    "RngStream",
    "SmallBallQuery",
    "TargetStyle",
    "TimeGrid",
    "brownian_smallball_series",
    "build_targets",
    "estimate_smallball",
    "make_grid",
    "run_battery",
    "simulate",
    "tail_grid",
    "timechanged_smallball",
    "validate_spec",
    "__version__",
]
