"""An empirical audit of the mechanism: a lower bound on the privacy loss
between two neighbouring inputs, from sampled releases, against the ε the
report claims (Ding et al., CCS 2018; Jagielski et al., NeurIPS 2020).

Each neighbour's releases are drawn as a release draws them, through
``unit_laplace_column`` and ``post_process_column``, under its own seed.
An event ``released >= k`` or ``released < k`` is chosen on the first
half of each sample and bounded on the second, with one-sided
Clopper–Pearson bounds, so the choice cannot bias the bound. N and the
confidence level were fixed before any bound was looked at.
"""
import math
from bisect import bisect_left

import pytest

from dpdfg import AggregationKind, DisclosureRequest, EventLog, Mode, RiskParams, build_dfg, disclose
from dpdfg.noise import post_process_column, unit_laplace_column

F = AggregationKind.FREQUENCY
N = 200_000  # draws a side: the first half chooses the event, the second bounds it
ALPHA = 1e-6  # one-sided error of each Clopper–Pearson bound
Z = 4.753  # the standard normal's 1 - ALPHA quantile, for choosing the event


def _upper_tail(successes: int, trials: int, p: float) -> float:
    """P(X >= successes) for X ~ Binomial(trials, p), with successes >= trials·p,
    so the terms summed from ``successes`` upward only shrink."""
    log_term = (math.lgamma(trials + 1) - math.lgamma(successes + 1) - math.lgamma(trials - successes + 1)
                + successes * math.log(p) + (trials - successes) * math.log1p(-p))
    term, total, odds = math.exp(log_term), 0.0, p / (1.0 - p)
    for k in range(successes, trials + 1):
        total += term
        term *= (trials - k) / (k + 1) * odds
        if term <= total * 1e-17:
            break
    return total


def _bisect(tail_at, lo: float, hi: float) -> float:
    """The p in [lo, hi] where the increasing ``tail_at(p)`` reaches ALPHA."""
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tail_at(mid) < ALPHA else (lo, mid)
    return lo


def clopper_pearson_lower(successes: int, trials: int) -> float:
    """The one-sided 1 - ALPHA lower bound of a binomial proportion."""
    if successes == 0:
        return 0.0
    return _bisect(lambda p: _upper_tail(successes, trials, p), 0.0, successes / trials)


def clopper_pearson_upper(successes: int, trials: int) -> float:
    """The one-sided 1 - ALPHA upper bound of a binomial proportion: by
    symmetry, one minus the lower bound of the failures."""
    return 1.0 - clopper_pearson_lower(trials - successes, trials)


def _at_least(released: list[float], thresholds) -> dict[float, int]:
    """For each threshold k, how many released values are at least k."""
    ordered = sorted(released)
    return {k: len(ordered) - bisect_left(ordered, k) for k in thresholds}


def _choose_event(low: list[float], high: list[float]) -> tuple[float, bool]:
    """The event that shows the largest loss, less Z standard errors,
    between the two samples: ``(k, True)`` for ``released >= k`` with the
    high sample on top, ``(k, False)`` for ``released < k`` with the low
    sample on top. A count of 0 below stands at its Clopper–Pearson upper
    bound, so an event that one sample never hits is scored too: that is
    where noise of one sign shows."""
    n = len(low)
    thresholds = sorted(set(low) | set(high))
    low_at, high_at = _at_least(low, thresholds), _at_least(high, thresholds)
    zero = clopper_pearson_upper(0, n)

    def score(event):
        k, upper = event
        above, below = (high_at[k], low_at[k]) if upper else (n - low_at[k], n - high_at[k])
        p1, p0 = above / n, below / n
        if not 0 < p1 < 1 or p0 == 1:
            return -math.inf
        if p0 == 0:
            return math.log(p1 / zero) - Z * math.sqrt((1 - p1) / (n * p1))
        return math.log(p1 / p0) - Z * math.sqrt((1 - p1) / (n * p1) + (1 - p0) / (n * p0))

    return max(((k, upper) for k in thresholds for upper in (True, False)), key=score)


def epsilon_lower_bound(low: list[float], high: list[float]) -> float:
    """A 1 - 2·ALPHA lower bound on the log ratio of the two samples'
    probabilities of the event chosen on the first half of each, from the
    second."""
    half = len(low) // 2
    k, upper = _choose_event(low[:half], high[:half])
    trials = len(low) - half
    hits_low, hits_high = sum(v >= k for v in low[half:]), sum(v >= k for v in high[half:])
    above, below = (hits_high, hits_low) if upper else (trials - hits_low, trials - hits_high)
    return math.log(clopper_pearson_lower(above, trials) / clopper_pearson_upper(below, trials))


def test_clopper_pearson_bounds_match_their_tails():
    # The lower bound puts ALPHA of the binomial above the count, the upper
    # bound ALPHA below it; both enclose the observed proportion.
    lower, upper = clopper_pearson_lower(300, 1000), clopper_pearson_upper(300, 1000)
    assert lower < 0.3 < upper
    assert _upper_tail(300, 1000, lower) == pytest.approx(ALPHA, rel=1e-6)
    assert _upper_tail(700, 1000, 1 - upper) == pytest.approx(ALPHA, rel=1e-6)
    assert clopper_pearson_lower(0, 10) == 0.0 and clopper_pearson_upper(10, 10) == 1.0
    # Exact at a count of n: P(X >= n) = p**n.
    assert clopper_pearson_lower(10, 10) == pytest.approx(ALPHA ** 0.1, rel=1e-9)


@pytest.fixture(scope="module")
def p1_frequency_pair():
    """Two edges of one log, counted 10 and 11 times, released under P1
    at δ 0.2: a frequency's calibration reads no data, so both carry the
    same ε and noise scale, and each edge is the other's neighbour."""
    log = EventLog({f"c{i}": (("A", 0), ("B" if i < 10 else "C", 1)) for i in range(21)})
    _, report = disclose(build_dfg(log), DisclosureRequest(Mode.P1, F, RiskParams(0.2)))
    edges = {(e.source, e.target): e for e in report.edges}
    low, high = edges[("A", "B")], edges[("A", "C")]
    assert (low.true_value, high.true_value) == (10.0, 11.0)
    assert low.epsilon == high.epsilon and low.noise_scale == high.noise_scale
    units = unit_laplace_column(1, "A", "B", N), unit_laplace_column(2, "A", "C", N)
    return low.epsilon, low.noise_scale, units


def _released(weight: float, scale: float, units: list[float]) -> list[float]:
    return post_process_column([weight + scale * u for u in units], F)


def test_p1_frequency_loss_stays_within_the_claimed_epsilon(p1_frequency_pair):
    epsilon, scale, (low_units, high_units) = p1_frequency_pair
    assert epsilon == pytest.approx(0.8109, abs=1e-4)
    bound = epsilon_lower_bound(_released(10.0, scale, low_units), _released(11.0, scale, high_units))
    assert 0.7 < bound <= epsilon


def test_the_audit_flags_a_release_at_half_the_noise_scale(p1_frequency_pair):
    # Half the scale is twice the loss: the same samples must show more
    # than the claimed ε, or the audit above proves nothing.
    epsilon, scale, (low_units, high_units) = p1_frequency_pair
    bound = epsilon_lower_bound(_released(10.0, scale / 2, low_units), _released(11.0, scale / 2, high_units))
    assert bound > epsilon


def test_the_audit_flags_noise_of_one_sign(p1_frequency_pair):
    # A uniform whose sign bit sticks at 0 gives noise that only adds: the
    # low weight's release falls below the high weight's least value a
    # third of the time, and the high weight's never does.
    epsilon, scale, (low_units, high_units) = p1_frequency_pair
    low, high = ([abs(u) for u in units] for units in (low_units, high_units))
    bound = epsilon_lower_bound(_released(10.0, scale, low), _released(11.0, scale, high))
    assert bound > epsilon
