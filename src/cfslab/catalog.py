"""Named model presets for the CLI and the default battery.

Coefficient functions are module-level so specs stay picklable and every
preset is reproducible from its name alone.
"""
from __future__ import annotations

import numpy as np

from .core import BadParams
from .gaussian import FouSpec
from .jumps import BnsSpec, CtmcSpec, SubordinatorSpec
from . import models
from .models import CirSpec, HkMode, ModelSpec


def unit_drift(s: np.ndarray) -> np.ndarray:
    return np.asarray(s, dtype=float)


def affine_integrand(s: np.ndarray) -> np.ndarray:
    return 1.0 + np.asarray(s, dtype=float)


def bounded_mu(t: float, x: np.ndarray) -> np.ndarray:
    """Mean-reverting drift with |mu| <= 0.5 * x for x > 0."""
    return 0.5 * x * np.tanh(1.0 - np.log(np.maximum(x, 1e-300)))


def bounded_sigma(t: float, x: np.ndarray) -> np.ndarray:
    """Level- and time-dependent diffusion within [x/2, 2x]."""
    return x * (1.0 + 0.4 * np.sin(2.0 * np.pi * t))


def log_drift(s: np.ndarray) -> np.ndarray:
    return 0.05 * np.asarray(s, dtype=float)


def flat_integrand(s: np.ndarray) -> np.ndarray:
    return np.full(np.shape(s), 0.2)


_PRESETS: dict[str, ModelSpec] = {
    "brownian": models.MixedFbm(name="brownian", hurst=0.5, fbm_weight=0.0),
    "mixed_fbm_h025": models.MixedFbm(name="mixed_fbm_h025", hurst=0.25,
                                      fbm_weight=0.4, hk_mode=HkMode.REDRAW),
    "mixed_fbm_h075": models.MixedFbm(name="mixed_fbm_h075", hurst=0.75,
                                      fbm_weight=0.4, hk_mode=HkMode.REDRAW),
    "wiener_affine": models.WienerIntegral(
        name="wiener_affine", h_fn=unit_drift, k_fn=affine_integrand),
    "heston": models.Heston(name="heston", mu=0.02, rho=-0.3,
                            cir=CirSpec(kappa=3.0, theta=0.04, xi=0.2, v0=0.04),
                            hk_mode=HkMode.REDRAW),
    "bns": models.Bns(name="bns", mu=0.02,
                      bns=BnsSpec(
                          subordinator=SubordinatorSpec(
                              jump_rate=10.0, jump_mean=0.008),
                          decay=2.0)),
    "comte_renault": models.ComteRenault(
        name="comte_renault", mu=0.02,
        fou=FouSpec(hurst=0.7, alpha=1.0, sigma=0.5, v0=np.log(0.2))),
    "regime": models.Regime(name="regime", mu=0.02,
                            ctmc=CtmcSpec(
                                generator=((-1.0, 1.0), (2.0, -2.0)),
                                vol_levels=(0.15, 0.35), initial_state=0)),
    "sde": models.SdePrice(name="sde", mu_fn=bounded_mu, sigma_fn=bounded_sigma,
                           mu_bar=0.5, sigma_bar=2.0),
    # log price 0.05 t + 0.2 W_t: a deterministic integrand, so a Wiener integral
    "exp_drift": models.WienerIntegral(
        name="exp_drift", h_fn=log_drift, k_fn=flat_integrand),
    "doleans": models.Doleans(name="doleans"),
    "bridge": models.Bridge(name="bridge"),
}

DEFAULT_BATTERY = (
    "mixed_fbm_h025", "mixed_fbm_h075", "heston", "bns",
    "comte_renault", "regime", "sde",
)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> ModelSpec:
    try:
        return _PRESETS[name]
    except KeyError:
        raise BadParams(
            f"unknown model {name!r}; known: {', '.join(preset_names())}"
        ) from None
