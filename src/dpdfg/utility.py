"""Utility-loss metrics (APE/MAPE/SMAPE) and the error-target calibration
epsilon = sensitivity/alpha * ln(1/beta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dfg import ordered_sum


@dataclass(frozen=True)
class UtilityParams:
    """mape_target: tolerated absolute percentage error per edge (> 0).
    beta: probability that the injected noise exceeds the tolerance alpha.
    """

    mape_target: float
    beta: float = 0.05

    def __post_init__(self) -> None:
        if self.mape_target <= 0.0:
            raise ValueError(f"mape_target must be positive, got {self.mape_target}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")


def ape(actual: float, noisy: float) -> float:
    """Absolute percentage error |actual - noisy| / |actual|."""
    if actual == 0.0:
        raise ValueError("APE undefined for actual value 0")
    return abs(actual - noisy) / abs(actual)


def mape(actuals: Sequence[float], noisies: Sequence[float]) -> float:
    """Mean APE across edges, summed left to right (``ordered_sum``)."""
    if len(actuals) != len(noisies):
        raise ValueError("length mismatch")
    if not actuals:
        raise ValueError("empty input")
    return ordered_sum(ape(a, f) for a, f in zip(actuals, noisies)) / len(actuals)


def smape(actuals: Sequence[float], noisies: Sequence[float]) -> float:
    """Symmetric mean absolute percentage error; bounded by 1 for positive
    values, hence robust to outliers.
    """
    if len(actuals) != len(noisies):
        raise ValueError("length mismatch")
    if not actuals:
        raise ValueError("empty input")
    total = 0.0
    for a, f in zip(actuals, noisies):
        if a + f == 0.0:
            raise ValueError("SMAPE undefined when actual + noisy is 0")
        total += abs(a - f) / abs(a + f)
    return total / len(actuals)


def alpha_per_edge(actual_weight: float, mape_target: float) -> float:
    """Noise bound for one edge: its true weight times the error target."""
    if actual_weight <= 0.0:
        raise ValueError(f"edge weight must be positive, got {actual_weight}")
    return actual_weight * mape_target


def epsilon_from_alpha(sensitivity: float, alpha: float, beta: float) -> float:
    """Epsilon such that Laplace(sensitivity/epsilon) noise exceeds alpha in
    magnitude with probability exactly beta.
    """
    if sensitivity <= 0.0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    return (sensitivity / alpha) * math.log(1.0 / beta)
