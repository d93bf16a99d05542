"""Worst-case convergence bound for equally-weighted FedAvg with one local epoch.

The bound on the gap between expected training loss at round t and the
minimum loss is

    (8L/mu) / (t - 1 + 8L/mu) * (16 G^2 / mu + 4 L * dist)

where dist is the expected distance between the initial parameters and the
optimum. The distance enters unsquared by default; ``squared_distance``
switches to the squared variant used by some analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the bound: curvature bracket, gradient bound, init distance."""

    mu: float
    L: float
    G: float
    init_distance: float
    squared_distance: bool = False

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be > 0")
        if self.L < self.mu:
            raise ValueError("L must be >= mu")
        if self.G < 0.0:
            raise ValueError("G must be >= 0")
        if not (np.isfinite(self.init_distance) and self.init_distance >= 0.0):
            raise ValueError("init_distance must be finite and >= 0")


def convergence_bound(t: int, p: BoundParams) -> float:
    """Bound on the expected-training-loss gap at iteration t (t >= 1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    ratio = 8.0 * p.L / p.mu
    dist = _square(p.init_distance) if p.squared_distance else p.init_distance
    return ratio / (t - 1 + ratio) * (16.0 * _square(p.G) / p.mu + 4.0 * p.L * dist)


def _square(x: float) -> float:
    """``x ** 2``, or inf where the float power overflows: Python raises
    OverflowError there, while a product that overflows gives inf."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def estimate_initial_distance(w1: np.ndarray, wstar_proxy: np.ndarray) -> float:
    """Euclidean distance between the initial parameters and an optimum proxy."""
    w1 = np.asarray(w1, dtype=np.float64)
    proxy = np.asarray(wstar_proxy, dtype=np.float64)
    if w1.shape != proxy.shape:
        raise ValueError(f"shape mismatch: {w1.shape} vs {proxy.shape}")
    return float(np.linalg.norm(w1 - proxy))
