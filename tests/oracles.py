"""Dense reference formulas that tests compare the library against."""
import numpy as np


def fbm_covariance(hurst: float, times: np.ndarray) -> np.ndarray:
    """R(s, t) = (s^2h + t^2h - |t - s|^2h) / 2 on the given times."""
    t = np.asarray(times, dtype=float)
    h2 = 2.0 * hurst
    p = t ** h2
    return 0.5 * (p[:, None] + p[None, :] - np.abs(t[:, None] - t[None, :]) ** h2)
