"""Guessing-advantage risk model.

Calibrates the differential-privacy parameter epsilon from a tolerated
guessing advantage delta (and back), for time-annotated edges with
empirically estimated priors and for frequency-annotated edges with the
worst-case prior. ``math.inf`` represents an unbounded epsilon: the
advantage bound is vacuous and the value may be released without noise.
"""
from __future__ import annotations

import math
import struct
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dfg import AggregationKind, DfgEdge, edge_range
from .eventlog import _NUMBER, _Checked

UNBOUNDED = math.inf
DEFAULT_PRECISION = 0.5


class _RiskParams(NamedTuple):
    delta: float
    precision: float = DEFAULT_PRECISION


class RiskParams(_Checked, _RiskParams):
    """delta: maximum tolerated guessing advantage, in (0,1).
    precision: half-width of a successful guess as a fraction of the edge's
    duration range, in [0,1].
    """

    __slots__ = ()
    _kinds = {"delta": _NUMBER, "precision": _NUMBER}

    def _checked(self) -> RiskParams:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision must be in [0,1], got {self.precision}")
        return self


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
    if not r > 0.0:
        raise ValueError("degenerate edge: duration range is zero")
    window = precision * r
    hits = sum(1 for v in values if abs(v - t) <= window)
    return hits / len(values)


def epsilon_from_delta(prior: float, delta: float, r: float) -> float:
    """Largest epsilon keeping the guessing advantage at or below delta.

    Returns UNBOUNDED when delta + prior >= 1 (the bound holds with no noise).
    A delta whose epsilon computes to zero or less (about 1e-17 and below)
    raises ``ValueError``; the least positive float would make the noise infinite.
    """
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must be in (0,1), got {prior}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if not r > 0.0:
        raise ValueError(f"range must be positive, got {r}")
    if delta + prior >= 1.0:
        return UNBOUNDED
    epsilon = _loss(prior, delta) / r
    if epsilon <= 0.0:
        raise ValueError(f"delta {delta} is too small: its epsilon computes to {epsilon}, not a positive number")
    return epsilon


def _loss(prior: float, delta: float) -> float:
    """The privacy loss epsilon·r that keeps the advantage at a prior at
    delta: :func:`epsilon_from_delta` is this over r, in one rounding."""
    return -math.log((prior / (1.0 - prior)) * (1.0 / (delta + prior) - 1.0))


def edge_priors(durations: Sequence[float], precision: float, r: float) -> tuple[float, ...]:
    """The distinct empirical priors of an edge with range r, ascending: the
    set of ``empirical_prior(durations, t, precision, r)`` over its
    occurrences t, in O(n log n). Epsilon and advantage depend on an
    occurrence only through its prior, so calibration needs no more.

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
    if not r > 0.0:
        raise ValueError("degenerate edge: duration range is zero")
    window = precision * r
    ordered = sorted(durations)
    n = len(ordered)
    priors: set[float] = set()
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
        priors.add((hi - lo) / n)
    return tuple(sorted(priors))


def time_priors(edge: DfgEdge, kind: AggregationKind, precision: float) -> tuple[float, tuple[float, ...] | None]:
    """The range a time edge is calibrated over and its :func:`edge_priors`.

    Single-occurrence and zero-range edges cannot support an empirical CDF:
    they are degenerate, get no priors (``None``), and are calibrated over
    range 1 where their range is not positive.
    """
    r = edge_range(edge, kind)
    if len(edge.durations) == 1 or r <= 0.0:
        return (r if r > 0.0 else 1.0), None
    return r, edge_priors(edge.durations, precision, r)


# Most advantage evaluations in epsilon_time: 1 at the inverse, 63
# galloping, 62 bisecting, and 1 at the epsilon that the last fitting loss
# gives.
CERTIFY_EVALUATIONS = 127
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")


def epsilon_time(delta: float, r: float, priors: tuple[float, ...] | None) -> tuple[float, tuple[float, ...]]:
    """Epsilon of an edge whose :func:`time_priors` are ``r`` and ``priors``
    (a frequency edge is range 1 with no priors), and the priors it is
    inverted at: the edge's, or the worst-case prior alone. The priors do
    not depend on delta, so they can be computed once for many deltas.

    The epsilon is the smallest that any prior allows (maximum noise
    protects every occurrence), certified: the largest float epsilon at or
    below that float inverse whose :func:`edge_delta` is at most delta.
    """
    return certified_epsilon(delta, r, priors)[:2]


def certified_epsilon(
    delta: float, r: float, priors: tuple[float, ...] | None
) -> tuple[float, tuple[float, ...], float]:
    """:func:`epsilon_time`'s epsilon and priors, and the edge's advantage
    there (its :func:`edge_delta`): the :func:`certified_epsilons` of one edge.
    """
    return certified_epsilons(delta, [(r, priors)])[0]


def certified_epsilons(
    delta: float, edges: Iterable[tuple[float, tuple[float, ...] | None]]
) -> list[tuple[float, tuple[float, ...], float]]:
    """:func:`certified_epsilon` of each ``(r, priors)`` edge, in order, as
    one column; it raises the error of the first edge that fails.

    One kernel for every edge. Its advantage reads epsilon and r only
    through the float loss epsilon·r and grows with it. The epsilon is C/r,
    C the least loss the priors (or the worst-case prior alone) invert to,
    where its advantage is at most delta; else :func:`_last_fitting` finds
    L*, the last float loss that fits, and the epsilon is the largest whose
    loss is at most L*, with L*'s advantage where that loss is L*. C and L*
    depend on delta and the priors only: each priors tuple (None is one)
    takes them once, and a later edge fits where fl(C/r·r) is at most L*. An
    edge whose C/r is not a positive float is inverted on its own. Each
    distinct edge is certified once. :func:`_searched_epsilon`, the same
    search in epsilon space, gives the same bits and errors.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    column, found, shared = [], {}, {}
    for edge in edges:
        if (certified := found.get(edge)) is None:
            r, priors = edge
            if priors not in shared:
                bound = (worst_case_prior(delta),) if priors is None else priors
                try:
                    loss = min(UNBOUNDED if delta + p >= 1.0 else epsilon_from_delta(p, delta, 1.0) for p in bound)
                except ValueError:  # each edge's _inverted raises its error
                    loss = math.nan
                shared[priors] = [loss, bound, None, None]
            loss, bound, most, fits = group = shared[priors]
            if 0.0 < r and (epsilon := loss / r) > 0.0:
                advantage = edge_delta(epsilon, r, priors) if most is None else None
            else:
                epsilon, bound, advantage = _inverted(delta, r, priors)
            if advantage is None or advantage > delta:
                if most is None:
                    most, fits = group[2:] = _last_fitting(epsilon * r, lambda at: edge_delta(at, 1.0, priors), delta)
                if epsilon * r > most and not (epsilon := _largest_epsilon_within(most, r)) > 0.0:
                    raise ValueError(f"no epsilon keeps the advantage at or below delta {delta}")
                advantage = fits if epsilon * r == most else edge_delta(epsilon, r, priors)
            certified = found[edge] = epsilon, bound, advantage
        column.append(certified)
    return column


def _inverted(
    delta: float, r: float, priors: tuple[float, ...] | None
) -> tuple[float, tuple[float, ...], float]:
    """The float inverse of an edge: the least epsilon its priors (or the
    worst-case prior alone) invert to, those priors, and the advantage there."""
    bound = (worst_case_prior(delta),) if priors is None else priors
    if not bound:
        raise ValueError(f"an edge's priors must not be empty, got {priors!r}")
    epsilon = min(UNBOUNDED if delta + prior >= 1.0 else epsilon_from_delta(prior, delta, r) for prior in bound)
    return epsilon, bound, edge_delta(epsilon, r, priors)


def _searched_epsilon(
    delta: float, r: float, priors: tuple[float, ...] | None
) -> tuple[float, tuple[float, ...], float]:
    """:func:`certified_epsilon` by a search in epsilon space, down from
    the float inverse: the oracle of its kernel."""
    epsilon, bound, advantage = _inverted(delta, r, priors)
    if advantage > delta:
        epsilon, advantage = _last_fitting(epsilon, lambda e: edge_delta(e, r, priors), delta)
    return epsilon, bound, advantage


def _last_fitting(start: float, advantage_at, delta: float) -> tuple[float, float]:
    """The last float below ``start``, whose ``advantage_at`` exceeds
    delta, where it is at most delta, and that advantage. Down from
    ``start``'s bit pattern it steps 1, 2, 4, ... patterns, to pattern 1
    (the least positive float) at most, until one fits, then bisects the
    last step to a float that fits where the next float up does not."""
    above, step = _BITS.unpack(_FLOAT.pack(start))[0], 1
    while (advantage := advantage_at(_float(below := max(above - step, 1)))) > delta:
        if below == 1:
            raise ValueError(f"no epsilon keeps the advantage at or below delta {delta}")
        above, step = below, 2 * step
    while above - below > 1:
        middle = (above + below) // 2
        if (fits := advantage_at(_float(middle))) <= delta:
            below, advantage = middle, fits
        else:
            above = middle
    return _float(below), advantage


def _largest_epsilon_within(loss: float, r: float) -> float:
    """The largest float epsilon whose float product with r is at most
    ``loss``, or 0.0 where no positive one is. The product is monotone in
    epsilon, and loss/r is a step or two from the answer (the quotient and
    the product round once each)."""
    epsilon = loss / r
    while epsilon * r > loss:
        epsilon = math.nextafter(epsilon, 0.0)
    while (up := math.nextafter(epsilon, UNBOUNDED)) * r <= loss:
        epsilon = up
    return epsilon


def _float(bits: int) -> float:
    return _FLOAT.unpack(_BITS.pack(bits))[0]


def epsilon_freq(delta: float) -> float:
    """Epsilon for frequency-annotated edges, the same for every edge."""
    return epsilon_time(delta, 1.0, None)[0]


def delta_from_epsilon_time(prior: float, epsilon: float, r: float) -> float:
    """Guessing advantage of one occurrence after an epsilon-DP release."""
    if not 0.0 < prior <= 1.0:
        raise ValueError(f"prior must be in (0,1], got {prior}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not r > 0.0:
        raise ValueError(f"range must be positive, got {r}")
    return prior / ((1.0 - prior) * math.exp(-epsilon * r) + prior) - prior


def delta_from_epsilon_freq(epsilon: float) -> float:
    """Guessing advantage of a frequency-annotated edge released with epsilon."""
    return worst_case_delta_time(epsilon, 1.0)


def worst_case_delta_time(epsilon: float, r: float) -> float:
    """Advantage maximized over all priors for a release over range r. The
    maximizing prior is sqrt(x)/(1+sqrt(x)) with x = exp(-epsilon*r),
    giving (1-sqrt(x))/(1+sqrt(x)).
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not r > 0.0:
        raise ValueError(f"range must be positive, got {r}")
    root = math.sqrt(math.exp(-epsilon * r))
    return (1.0 - root) / (1.0 + root)


def edge_delta(epsilon: float, r: float, priors: tuple[float, ...] | None) -> float:
    """Guessing advantage of an edge released with epsilon over range r:
    the maximum over its priors, or over all priors where it has none (a
    frequency or a degenerate time edge). Occurrences every guess hits
    (prior 1) carry no advantage.
    """
    if priors is None:
        return worst_case_delta_time(epsilon, r)
    return max([0.0, *(delta_from_epsilon_time(p, epsilon, r) for p in priors if p < 1.0)])


def dfg_delta(edge_deltas: Mapping[tuple[str, str], float]) -> float:
    """Advantage of disclosing the whole graph: the maximum over its edges."""
    if not edge_deltas:
        raise ValueError("no edge deltas")
    return max(edge_deltas.values())
