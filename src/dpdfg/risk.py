"""Guessing-advantage risk model.

Calibrates the differential-privacy parameter epsilon from a tolerated
guessing advantage delta (and back), for time-annotated edges with
empirically estimated priors and for frequency-annotated edges with the
worst-case prior. ``math.inf`` represents an unbounded epsilon: the
advantage bound is vacuous and the value may be released without noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dfg import AggregationKind, DfgEdge, edge_range

UNBOUNDED = math.inf
DEFAULT_PRECISION = 0.5


@dataclass(frozen=True)
class RiskParams:
    """delta: maximum tolerated guessing advantage, in (0,1).
    precision: half-width of a successful guess as a fraction of the edge's
    duration range, in [0,1].
    """

    delta: float
    precision: float = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision must be in [0,1], got {self.precision}")


@dataclass(frozen=True)
class EdgeEpsilon:
    """``r`` is the edge's range (``edge_range``) as computed, 0 included;
    degenerate edges are calibrated with range 1 where it is not positive.
    """

    epsilon: float
    per_occurrence: tuple[float, ...]
    priors: tuple[float, ...]
    r: float
    degenerate: bool = False


def worst_case_prior(delta: float) -> float:
    """The prior that maximizes the noise needed for advantage delta: (1-delta)/2."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return (1.0 - delta) / 2.0


def empirical_prior(durations: Iterable[float], t: float, precision: float, r: float) -> float:
    """Fraction of occurrences within the closed window t +- precision*r.

    This is the empirical-CDF estimate of the probability that a guess at
    precision p lands on the true value t.
    """
    values = list(durations)
    if r <= 0.0:
        raise ValueError("degenerate edge: duration range is zero")
    window = precision * r
    hits = sum(1 for v in values if abs(v - t) <= window)
    return hits / len(values)


def epsilon_from_delta(prior: float, delta: float, r: float) -> float:
    """Largest epsilon keeping the guessing advantage at or below delta.

    Returns UNBOUNDED when delta + prior >= 1 (the bound holds with no noise).
    """
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must be in (0,1), got {prior}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if r <= 0.0:
        raise ValueError(f"range must be positive, got {r}")
    if delta + prior >= 1.0:
        return UNBOUNDED
    return -math.log((prior / (1.0 - prior)) * (1.0 / (delta + prior) - 1.0)) / r


def edge_priors(durations: Sequence[float], precision: float, r: float) -> tuple[float, ...]:
    """The empirical prior of every occurrence of an edge with range r, in
    occurrence order: ``empirical_prior(durations, t, precision, r)`` for
    each t, computed in O(n log n).

    The durations are sorted once and two pointers sweep the window of each
    distinct value t; both only move forward as t grows. For v below t the
    pointer test ``t - v > window`` is ``empirical_prior``'s
    ``abs(v - t) > window`` bit for bit (float subtraction is symmetric in
    sign), and likewise ``v - t <= window`` above t. Each is monotone in v,
    so the hits form one run [lo, hi) of the sorted list and the counts are
    exact, ties on the window boundary included. With precision in [0,1]
    the window is non-negative, so neither test stops at the other side
    of t.
    """
    if r <= 0.0:
        raise ValueError("degenerate edge: duration range is zero")
    window = precision * r
    ordered = sorted(durations)
    n = len(ordered)
    prior_of: dict[float, float] = {}
    lo = hi = 0
    previous = None
    for t in ordered:
        if t == previous:
            continue
        previous = t
        while t - ordered[lo] > window:
            lo += 1
        while hi < n and ordered[hi] - t <= window:
            hi += 1
        prior_of[t] = (hi - lo) / n
    return tuple(map(prior_of.__getitem__, durations))


def edge_epsilon_time(edge: DfgEdge, params: RiskParams, kind: AggregationKind = AggregationKind.MAX) -> EdgeEpsilon:
    """Per-occurrence epsilons for a time-annotated edge; the edge epsilon is
    their minimum (maximum noise protects every occurrence).

    Single-occurrence and zero-range edges cannot support an empirical CDF;
    they fall back to the worst-case prior and are flagged degenerate.
    """
    durations = edge.durations
    if not durations:
        raise ValueError("edge has no occurrences")
    r = edge_range(edge, kind)
    if len(durations) == 1 or r <= 0.0:
        prior = worst_case_prior(params.delta)
        eps = epsilon_from_delta(prior, params.delta, r if r > 0.0 else 1.0)
        n = len(durations)
        return EdgeEpsilon(eps, (eps,) * n, (prior,) * n, r, degenerate=True)

    priors = edge_priors(durations, params.precision, r)
    eps_of = {
        prior: UNBOUNDED if params.delta + prior >= 1.0 else epsilon_from_delta(prior, params.delta, r)
        for prior in set(priors)
    }
    per = tuple(map(eps_of.__getitem__, priors))
    return EdgeEpsilon(min(eps_of.values()), per, priors, r)


def epsilon_freq(delta: float) -> float:
    """Epsilon for frequency-annotated edges: worst-case prior, range 1.

    The result is the same for every edge of the graph.
    """
    return epsilon_from_delta(worst_case_prior(delta), delta, 1.0)


def delta_from_epsilon_time(prior: float, epsilon: float, r: float) -> float:
    """Guessing advantage of one occurrence after an epsilon-DP release."""
    if not 0.0 < prior <= 1.0:
        raise ValueError(f"prior must be in (0,1], got {prior}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if r <= 0.0:
        raise ValueError(f"range must be positive, got {r}")
    return prior / ((1.0 - prior) * math.exp(-epsilon * r) + prior) - prior


def delta_from_epsilon_freq(epsilon: float) -> float:
    """Guessing advantage of a frequency-annotated edge released with
    epsilon: the worst case over all priors at range 1, as in
    :func:`epsilon_freq`.
    """
    return worst_case_delta_time(epsilon, 1.0)


def worst_case_delta_time(epsilon: float, r: float) -> float:
    """Advantage maximized over all priors for a release over range r; used
    where the prior cannot be estimated: frequencies (r = 1) and degenerate
    time edges.

    The maximizing prior is sqrt(x)/(1+sqrt(x)) with x = exp(-epsilon*r),
    giving (1-sqrt(x))/(1+sqrt(x)).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if r <= 0.0:
        raise ValueError(f"range must be positive, got {r}")
    root = math.sqrt(math.exp(-epsilon * r))
    return (1.0 - root) / (1.0 + root)


def posterior_bound(prior: float, epsilon: float, r: float) -> float:
    """Upper bound on the posterior guessing probability after disclosure."""
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must be in (0,1), got {prior}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if r <= 0.0:
        raise ValueError(f"range must be positive, got {r}")
    return 1.0 / (1.0 + math.exp(-epsilon * r) * (1.0 - prior) / prior)


def dfg_delta(edge_deltas: Mapping[tuple[str, str], float]) -> float:
    """Advantage of disclosing the whole graph: the maximum over its edges."""
    if not edge_deltas:
        raise ValueError("no edge deltas")
    return max(edge_deltas.values())
