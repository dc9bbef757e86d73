"""Utility-loss metrics (APE/MAPE/SMAPE) and the error-target calibration
epsilon = sensitivity/alpha * ln(1/beta). ``ape`` and ``sape`` are the
reference definitions; ``ape_row`` and ``sape_row`` give the same bits for
one run's edges at a time.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .dfg import ordered_sum
from .eventlog import _NUMBER, _Checked

DEFAULT_BETA = 0.05


class _UtilityParams(NamedTuple):
    mape_target: float
    beta: float = DEFAULT_BETA


class UtilityParams(_Checked, _UtilityParams):
    """mape_target: tolerated absolute percentage error per edge (finite, > 0).
    beta: probability that the injected noise exceeds the tolerance alpha.
    """

    __slots__ = ()
    _kinds = {"mape_target": _NUMBER, "beta": _NUMBER}

    def _checked(self) -> UtilityParams:
        if not 0.0 < self.mape_target < math.inf:
            raise ValueError(f"mape_target must be positive and finite, got {self.mape_target}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        return self


def ape(actual: float, noisy: float) -> float:
    """Absolute percentage error |actual - noisy| / |actual|."""
    if actual == 0.0:
        raise ValueError("APE undefined for actual value 0")
    return abs(actual - noisy) / abs(actual)


def ape_row(actuals: Sequence[float], values: Sequence[float]) -> list[float]:
    """``ape(a, v)`` for each pair. A float division raises
    ``ZeroDivisionError`` exactly when its divisor is 0, which here is
    ``ape``'s own error case, so the row needs no zero check of its own."""
    try:
        return [abs(a - v) / abs(a) for a, v in zip(actuals, values)]
    except ZeroDivisionError:
        raise ValueError("APE undefined for actual value 0") from None


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
    return ordered_sum(sape(a, f) for a, f in zip(actuals, noisies)) / len(actuals)


def sape(actual: float, noisy: float) -> float:
    """One value's term of :func:`smape`: |actual - noisy| / |actual + noisy|."""
    if actual + noisy == 0.0:
        raise ValueError("SMAPE undefined when actual + noisy is 0")
    return abs(actual - noisy) / abs(actual + noisy)


def sape_row(actuals: Sequence[float], values: Sequence[float]) -> list[float]:
    """``sape(a, v)`` for each pair. A float division raises
    ``ZeroDivisionError`` exactly when its divisor is 0, which here is
    ``sape``'s own error case."""
    try:
        return [abs(a - v) / abs(a + v) for a, v in zip(actuals, values)]
    except ZeroDivisionError:
        raise ValueError("SMAPE undefined when actual + noisy is 0") from None


def alpha_per_edge(actual_weight: float, mape_target: float) -> float:
    """Noise bound for one edge: its true weight times the error target,
    which must be finite."""
    if actual_weight <= 0.0:
        raise ValueError(f"edge weight must be positive, got {actual_weight}")
    alpha = actual_weight * mape_target
    if not math.isfinite(alpha):
        raise ValueError(f"edge weight {actual_weight!r} times error target {mape_target!r} is not finite")
    return alpha


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
