import math
import random
import re
import struct

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpdfg import AggregationKind, DfgEdge, DisclosureRequest, Mode, RiskParams, UtilityParams
from dpdfg import risk
from dpdfg.risk import (
    CERTIFY_EVALUATIONS,
    UNBOUNDED,
    certified_epsilon,
    delta_from_epsilon_freq,
    delta_from_epsilon_time,
    dfg_delta,
    edge_delta,
    edge_priors,
    empirical_prior,
    epsilon_freq,
    epsilon_from_delta,
    epsilon_time,
    time_priors,
    worst_case_delta_time,
    worst_case_prior,
)

# Closed forms evaluated independently at 30-digit precision (mpmath), frozen:
EPS_FREQ_04 = 1.69459572077440722  # -ln((0.3/0.7)*(1/0.7-1))
EPS_FREQ_01 = 0.40134139092430232  # -ln((0.45/0.55)*(1/0.55-1))
EPS_TIME_AC = 0.11364987281589501  # -ln(0.5*(1/(0.4+1/3)-1))/15
EPS_DEGEN_AD = 0.24208510296777246  # -ln((0.3/0.7)*(1/0.7-1))/7

AC = DfgEdge("A", "C", (1.0, 6.0, 15.0))
MAX = AggregationKind.MAX


def test_worst_case_prior_examples():
    assert worst_case_prior(0.4) == pytest.approx(0.3)
    assert worst_case_prior(0.2) == pytest.approx(0.4)
    assert worst_case_prior(0.999999) == pytest.approx(0.0, abs=1e-6)


def test_worst_case_prior_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            worst_case_prior(bad)


def test_empirical_prior_window_counts():
    assert empirical_prior([1, 6, 15], 6, 0.1, 15) == pytest.approx(1 / 3)
    assert empirical_prior([1, 6, 15], 1, 0.1, 15) == pytest.approx(1 / 3)
    assert empirical_prior([1, 6, 15], 15, 0.1, 15) == pytest.approx(1 / 3)
    # window +-7.5 around 6 covers everything but 15 is 9 away
    assert empirical_prior([1, 6, 15], 6, 0.5, 15) == pytest.approx(2 / 3)


def test_empirical_prior_full_precision_covers_all():
    for t in (1.0, 6.0, 15.0):
        assert empirical_prior([1, 6, 15], t, 1.0, 15) == 1.0


def test_edge_priors_hand_counted():
    cd = (0.2, 0.25, 0.4, 1.5, 2.6, 3.65, 4.7, 6.0)
    # window +-0.6: the three short durations see each other, the rest only
    # themselves; the edge's priors are the distinct ones, ascending
    assert edge_priors(cd, 0.1, 6.0) == (1 / 8, 3 / 8)
    assert edge_priors(cd, 0.1, 6.0) == tuple(sorted({empirical_prior(cd, t, 0.1, 6.0) for t in cd}))
    assert epsilon_time(0.4, *time_priors(DfgEdge("C", "D", cd), MAX, 0.1))[1] == edge_priors(cd, 0.1, 6.0)


def test_empirical_prior_degenerate_range():
    with pytest.raises(ValueError, match="degenerate"):
        empirical_prior([0.0, 0.0], 0.0, 0.1, 0.0)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="degenerate"):
            edge_priors([0.0, 0.0], 0.1, r)


# Durations that tie, and that land on window boundaries once rounded: one
# edge draws from a 0.1 grid, or from the multiples of one of 0.1/0.3/0.7
# (k*0.3 is rarely the decimal it looks like), or from arbitrary floats.
# The grids hold a few dozen values, so repeats are common.
TIED_DURATIONS = st.one_of(
    st.lists(st.integers(0, 40).map(lambda k: k / 10), min_size=1, max_size=40),
    st.sampled_from([0.1, 0.3, 0.7]).flatmap(
        lambda step: st.lists(st.integers(0, 30).map(lambda k: k * step), min_size=1, max_size=40)
    ),
    st.lists(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
)
PRECISION = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(durations=TIED_DURATIONS, precision=PRECISION)
@settings(max_examples=500)
def test_edge_priors_equal_the_oracle(durations, precision):
    r = max(durations)
    assume(r > 0.0)
    expected = tuple(sorted({empirical_prior(durations, t, precision, r) for t in durations}))
    assert edge_priors(durations, precision, r) == expected


def test_edge_priors_at_ten_thousand_occurrences():
    rng = random.Random(20200510)
    # Skewed durations on a 0.1 h grid, capped at r = 100 so the window is
    # 10: 659 distinct values, 485 pairs of them 10 apart, where abs(v - t)
    # rounds to 10 or above it. Bisecting on t +- 10 miscounts 1,525 of the
    # 10,000 occurrences.
    durations = tuple(round(min(rng.lognormvariate(2.0, 1.0), 100.0), 1) for _ in range(10_000))
    r = max(durations)
    priors = edge_priors(durations, 0.1, r)
    distinct = set(durations)
    assert (len(distinct), len(priors)) == (659, 561)
    assert priors == tuple(sorted({empirical_prior(durations, t, 0.1, r) for t in distinct}))
    edge_r, edge_p = time_priors(DfgEdge("A", "B", durations), MAX, 0.1)
    epsilon, bound = epsilon_time(0.4, edge_r, edge_p)
    assert bound == priors
    assert epsilon == min(epsilon_from_delta(p, 0.4, r) for p in priors)
    assert edge_r == r


def test_epsilon_from_delta_paper_values():
    assert epsilon_from_delta(1 / 3, 0.4, 15) == pytest.approx(0.114, abs=1e-3)
    assert epsilon_from_delta(1 / 3, 0.4, 15) == pytest.approx(EPS_TIME_AC, rel=1e-12)
    assert epsilon_from_delta(0.3, 0.4, 1) == pytest.approx(1.695, abs=1e-3)
    assert epsilon_from_delta(0.3, 0.4, 1) == pytest.approx(EPS_FREQ_04, rel=1e-12)


def test_epsilon_from_delta_unbounded_branch():
    assert epsilon_from_delta(0.5, 0.5, 1) == UNBOUNDED
    assert epsilon_from_delta(0.7, 0.4, 2) == UNBOUNDED


def test_epsilon_from_delta_domain():
    with pytest.raises(ValueError):
        epsilon_from_delta(0.0, 0.4, 1)
    with pytest.raises(ValueError):
        epsilon_from_delta(1.0, 0.4, 1)
    with pytest.raises(ValueError):
        epsilon_from_delta(0.3, 0.4, 0.0)
    # Below about 1e-17 the inversion rounds to an epsilon that is not positive.
    for prior, delta, r, epsilon in ((0.5, 1e-17, 1.0, "-0.0"), (0.3, 1e-17, 2.0, "-1.1102230246251564e-16"),
                                     (0.5, 1e-300, 1.0, "-0.0")):
        with pytest.raises(ValueError, match=f"^delta {delta} is too small: its epsilon computes to {epsilon}, "):
            epsilon_from_delta(prior, delta, r)
    assert epsilon_from_delta(0.5, 1e-16, 1.0) == 4.440892098500627e-16


def test_edge_epsilon_time_clinic_ac():
    r, priors = time_priors(AC, MAX, 0.1)
    epsilon, bound = epsilon_time(0.4, r, priors)
    assert bound == (1 / 3,)
    assert [epsilon_from_delta(p, 0.4, r) for p in bound] == pytest.approx([EPS_TIME_AC])
    assert epsilon == pytest.approx(0.114, abs=1e-3)
    assert priors is not None


def test_edge_epsilon_time_is_min_over_occurrences():
    edge = DfgEdge("C", "D", (0.2, 0.25, 0.4, 1.5, 2.6, 3.65, 4.7, 6.0))
    r, priors = time_priors(edge, MAX, 0.1)
    epsilon, bound = epsilon_time(0.4, r, priors)
    assert epsilon == min(epsilon_from_delta(p, 0.4, r) for p in bound)


def test_edge_epsilon_time_single_occurrence_falls_back():
    r, priors = time_priors(DfgEdge("A", "D", (7.0,)), MAX, 0.1)
    epsilon, bound = epsilon_time(0.4, r, priors)
    assert priors is None
    assert bound == (0.3,)
    assert epsilon == pytest.approx(EPS_DEGEN_AD, rel=1e-12)


def test_edge_epsilon_time_zero_range_falls_back():
    r, priors = time_priors(DfgEdge("X", "Y", (0.0, 0.0)), MAX, 0.1)
    epsilon, _ = epsilon_time(0.4, r, priors)
    assert priors is None
    # range treated as one time unit
    assert epsilon == pytest.approx(EPS_FREQ_04, rel=1e-12)


def test_edge_epsilon_time_vacuous_delta_unbounded():
    r, priors = time_priors(AC, MAX, 0.1)
    epsilon, bound = epsilon_time(0.99, r, priors)
    assert all(epsilon_from_delta(p, 0.99, r) == UNBOUNDED for p in bound)
    assert epsilon == UNBOUNDED
    # A delta of 1 or more is out of range, not vacuous.
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="delta must be in"):
            epsilon_time(bad, r, priors)


def test_edge_delta_is_the_worst_case_without_priors_and_the_prior_maximum_with_them():
    assert edge_delta(0.8, 5.0, None) == worst_case_delta_time(0.8, 5.0)
    priors = (0.2, 1 / 3, 1.0)
    assert edge_delta(0.8, 5.0, priors) == max(delta_from_epsilon_time(p, 0.8, 5.0) for p in priors[:2])
    # Occurrences every guess hits carry no advantage.
    assert edge_delta(0.8, 5.0, (1.0,)) == 0.0


@pytest.mark.parametrize("gap", [1e-8, 1e-6])
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e3])
def test_certified_epsilon_of_a_near_vacuous_prior_takes_a_bounded_search(monkeypatch, gap, r):
    # A prior just below 1 - delta: inverting the advantage there overshoots
    # by up to millions of ulps, which stepping down one ulp at a time would
    # evaluate one by one.
    calls = []
    forward = risk.edge_delta
    monkeypatch.setattr(risk, "edge_delta", lambda *args: calls.append(args) or forward(*args))
    prior = 0.7 - gap
    epsilon, _ = epsilon_time(0.3, r, (prior, 1.0))
    inverted = epsilon_from_delta(prior, 0.3, r)
    assert len(calls) <= CERTIFY_EVALUATIONS
    assert forward(epsilon, r, (prior,)) <= 0.3
    assert epsilon == inverted or forward(math.nextafter(epsilon, math.inf), r, (prior,)) > 0.3
    assert inverted * (1 - 1e-9) <= epsilon <= inverted


def test_certified_epsilon_of_an_unbounded_inversion_is_finite_where_one_minus_the_prior_exceeds_delta(monkeypatch):
    calls = []
    forward = risk.edge_delta
    monkeypatch.setattr(risk, "edge_delta", lambda *args: calls.append(args) or forward(*args))
    assert epsilon_from_delta(0.99, 0.01, 10.0) == UNBOUNDED
    epsilon, _ = epsilon_time(0.01, 10.0, (0.99, 1.0))
    assert 0.0 < epsilon < UNBOUNDED and len(calls) <= CERTIFY_EVALUATIONS
    assert forward(epsilon, 10.0, (0.99,)) <= 0.01 < forward(math.nextafter(epsilon, math.inf), 10.0, (0.99,))
    # Where 1 - p is within delta, no noise is needed.
    assert epsilon_time(0.02, 10.0, (0.99, 1.0))[0] == UNBOUNDED


@pytest.mark.parametrize("delta", [0.05, 0.99])
def test_certified_search_ends_where_no_epsilon_fits(monkeypatch, delta):
    calls = []
    monkeypatch.setattr(risk, "edge_delta", lambda *args: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match="no epsilon keeps the advantage at or below delta"):
        epsilon_time(delta, 2.0, (0.5,))
    assert 60 < len(calls) <= CERTIFY_EVALUATIONS
    assert min(args[0] for args in calls) == 5e-324


def test_epsilon_time_is_certified_against_edge_delta(monkeypatch):
    # The search's advantage is edge_delta at its epsilon, bit for bit,
    # whichever of its evaluations found that epsilon: the first check, the
    # galloping step down that first fits, or a bisection step; and
    # certified_epsilon gives the search's bits.
    calls = []
    forward = risk.edge_delta
    monkeypatch.setattr(risk, "edge_delta", lambda *args: calls.append((args[0], value := forward(*args))) or value)

    def found_by(delta, epsilon):
        """The phase of the search whose evaluation returned ``epsilon``."""
        found = max(i for i, (at, _) in enumerate(calls) if _bits(at) == _bits(epsilon))
        if found == 0:
            return "unbounded" if epsilon == UNBOUNDED else "first"
        galloping_exit = next(i for i, (_, value) in enumerate(calls) if value <= delta)
        return "galloping" if found == galloping_exit else "bisection"

    rng = random.Random(5)
    cases = [
        (rng.uniform(0.001, 0.999), math.exp(rng.uniform(-7.0, 7.0)),
         rng.choice([None, tuple(sorted({rng.randrange(1, 200) / 200 for _ in range(rng.randint(1, 5))}))]))
        for _ in range(2000)
    ]
    # A prior just below 1 - delta overshoots by millions of ulps; all
    # priors at or above 1 - delta leave epsilon unbounded.
    cases += [(0.3, r, (0.7 - 1e-9, 1.0)) for r in (1e-3, 1.0, 1e3)] + [(0.02, 10.0, (0.99, 1.0))]
    phases = dict.fromkeys(("first", "galloping", "bisection", "unbounded"), 0)
    for delta, r, priors in cases:
        calls.clear()
        epsilon, bound, advantage = risk._searched_epsilon(delta, r, priors)
        assert _bits(advantage) == _bits(forward(epsilon, r, priors)), (delta, r, priors)
        assert advantage <= delta, (delta, r, priors)
        phases[found_by(delta, epsilon)] += 1
        assert _certified(certified_epsilon, delta, r, priors) == _certified(lambda *_: (epsilon, bound, advantage))
        assert epsilon_time(delta, r, priors) == (epsilon, bound)
    assert all(phases.values()), phases


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# Advantage targets across the open interval, and ranges across most of the
# floats: at delta 1e-16 and r 1e300 the epsilon C/r is subnormal.
DELTAS = st.floats(1e-16, 1 - 1e-9)
RANGES = st.floats(1e-300, 1e300)
# No priors (the worst-case prior alone), or a few priors, 1 among them
# (no advantage), and "vacuous", 1 - delta (an unbounded inverse), "near",
# the float below it, and "below", 1e-9 under it (millions of ulps over).
PRIORS = st.one_of(
    st.none(),
    st.lists(st.one_of(st.sampled_from(["vacuous", "near", "below"]), st.floats(1e-300, 1.0)), min_size=1, max_size=4),
)


def _edge_priors(delta, picks):
    """``picks`` of :data:`PRIORS` at ``delta`` as an edge's priors."""
    if picks is None:
        return None
    vacuous = 1.0 - delta
    named = {"vacuous": vacuous, "near": math.nextafter(vacuous, 0.0), "below": vacuous - 1e-9}
    return tuple(sorted(p for p in {named.get(p, p) for p in picks} if p > 0.0))


def _certified(search, delta=None, r=None, priors=None):
    """``search(delta, r, priors)`` with its floats as bits, or its error."""
    try:
        epsilon, bound, advantage = search(delta, r, priors)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return _bits(epsilon), tuple(map(_bits, bound)), _bits(advantage)


@given(delta=DELTAS, r=RANGES, picks=PRIORS)
@settings(max_examples=1200)
@example(delta=1e-16, r=1e300, picks=None)  # a subnormal epsilon
@example(delta=1e-16, r=1e300, picks=[0.5])
@example(delta=1e-16, r=1.0, picks=None)  # C is far below L*
@example(delta=0.2, r=1.0, picks=None)  # a frequency edge: C is one float above L*
@example(delta=1 - 1e-9, r=1e-300, picks=None)  # C is far above L*
@example(delta=0.5, r=5e-300, picks=None)
@example(delta=1e-16, r=1e308, picks=[0.5, 1.0])  # no positive epsilon has a loss within L*
@example(delta=0.3, r=2.0, picks=[1.0])  # no advantage at any epsilon
@example(delta=0.3, r=2.0, picks=["vacuous", 1.0])  # the inverse is unbounded and does not fit
@example(delta=0.3, r=1e3, picks=["near", 0.2])
@example(delta=0.3, r=1e-3, picks=["below", 1.0])
def test_the_kernel_is_the_search_for_every_edge(delta, r, picks):
    priors = _edge_priors(delta, picks)
    assume(priors != ())
    assert _certified(certified_epsilon, delta, r, priors) == _certified(risk._searched_epsilon, delta, r, priors)


def test_the_kernel_raises_the_searchs_error_where_no_positive_epsilon_fits():
    # L* is about 4e-16, and the least positive epsilon's loss over r 1e308
    # is 4.9e-16: no float epsilon has a loss within L*.
    with pytest.raises(ValueError, match="^no epsilon keeps the advantage at or below delta 1e-16$"):
        certified_epsilon(1e-16, 1e308, (0.5,))
    assert risk._largest_epsilon_within(risk._last_fitting(math.inf, lambda at: edge_delta(at, 1.0, (0.5,)), 1e-16)[0],
                                        1e308) == 0.0


def test_the_kernels_advantage_is_edge_delta_at_its_epsilon():
    # Past the inverse, the kernel reports L*'s advantage where epsilon·r is
    # L* and evaluates edge_delta at epsilon elsewhere: both are edge_delta
    # at epsilon, bit for bit.
    rng = random.Random(23)
    sides = {"inverse": 0, "L*": 0, "below L*": 0}
    for _ in range(1500):
        delta = rng.choice([rng.uniform(0.001, 0.999), 10 ** rng.uniform(-16, -1)])
        r = rng.choice([1.0, 10 ** rng.uniform(-300, 300), float(rng.randrange(1, 100))])
        priors = _edge_priors(delta, rng.choice([None, [rng.random() for _ in range(3)], ["near", 0.5], ["below"]]))
        try:
            epsilon, bound, advantage = certified_epsilon(delta, r, priors)
        except ValueError:
            continue
        assert _bits(advantage) == _bits(edge_delta(epsilon, r, priors)), (delta, r, priors)
        assert advantage <= delta
        inverse = risk._inverted(delta, r, priors)
        if inverse[2] <= delta:
            assert (epsilon, bound, advantage) == inverse
            sides["inverse"] += 1
            continue
        most, fits = risk._last_fitting(math.inf, lambda at: edge_delta(at, 1.0, priors), delta)
        assert epsilon * r <= most < math.nextafter(epsilon, math.inf) * r
        sides["L*" if epsilon * r == most else "below L*"] += 1
    assert all(sides.values()), sides


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_the_kernel_takes_at_most_certify_evaluations(monkeypatch, r):
    # An unbounded inverse that does not fit, then L* at bit pattern 4: from
    # the infinite loss the gallop takes 63 steps and the bisection 62, and
    # at r 3 the epsilon's loss is below L*, which takes one evaluation more.
    calls = []
    most = struct.unpack("<d", struct.pack("<q", 4))[0]
    monkeypatch.setattr(risk, "edge_delta", lambda e, r, _: calls.append(e) or (0.0 if e * r <= most else 1.0))
    epsilon, _, advantage = certified_epsilon(0.99, r, (0.5,))
    assert (epsilon * r <= most, advantage) == (True, 0.0)
    assert len(calls) == (126 if r == 1.0 else CERTIFY_EVALUATIONS)


@given(epsilon=st.floats(5e-324, 1e300), r=RANGES)
@settings(max_examples=1000)
@example(epsilon=5e-324, r=1e300)
@example(epsilon=1e300, r=1e300)  # the loss is inf
def test_the_worst_case_advantage_reads_epsilon_and_range_only_through_their_product(epsilon, r):
    assume(epsilon * r > 0.0)
    assert _bits(worst_case_delta_time(epsilon, r)) == _bits(worst_case_delta_time(epsilon * r, 1.0))
    assert _bits(edge_delta(epsilon, r, None)) == _bits(worst_case_delta_time(epsilon * r, 1.0))


@given(delta=DELTAS, r=RANGES, picks=PRIORS)
@settings(max_examples=600)
def test_the_worst_case_inversion_is_its_loss_over_the_range(delta, r, picks):
    prior = worst_case_prior(delta)
    assert _bits(epsilon_from_delta(prior, delta, r)) == _bits(risk._loss(prior, delta) / r)
    # L* is the last float loss that fits, the same from any loss that does not.
    priors = _edge_priors(delta, picks)
    assume(priors != () and edge_delta(math.inf, 1.0, priors) > delta)
    fits = lambda loss: edge_delta(loss, 1.0, priors)
    try:
        most, advantage = risk._last_fitting(math.inf, fits, delta)
    except ValueError:
        assert fits(5e-324) > delta
        return
    assert _bits(advantage) == _bits(fits(most))
    assert fits(most) <= delta < fits(math.nextafter(most, math.inf))
    assert risk._last_fitting(math.nextafter(most, math.inf), fits, delta) == (most, advantage)


# Ranges whose C/r is not a positive float (not finite and positive, or a
# delta whose C is not positive): the kernel gives the search's errors and
# values.
@pytest.mark.parametrize("delta, r, error", [
    (1e-17, 1.0, "delta 1e-17 is too small: its epsilon computes to -0.0, not a positive number"),
    (0.3, 0.0, "range must be positive, got 0.0"),
    (0.3, -0.0, "range must be positive, got -0.0"),
    (0.3, -1.0, "range must be positive, got -1.0"),
    (0.3, math.inf, "delta 0.3 is too small: its epsilon computes to 0.0, not a positive number"),
    (0.3, math.nan, None),
])
def test_an_edge_without_priors_outside_the_closed_form_is_searched(delta, r, error):
    if error is not None:
        assert _certified(certified_epsilon, delta, r, None) == f"ValueError: {error}"
    assert _certified(certified_epsilon, delta, r, None) == _certified(risk._searched_epsilon, delta, r, None)


# A NaN range or epsilon fails every check, as a non-positive one does.
@pytest.mark.parametrize("call, error", [
    (lambda: certified_epsilon(0.3, math.nan, None), "range must be positive, got nan"),
    (lambda: certified_epsilon(0.3, math.nan, (0.5,)), "range must be positive, got nan"),
    (lambda: epsilon_from_delta(0.35, 0.3, math.nan), "range must be positive, got nan"),
    (lambda: edge_priors((1.0, 2.0), 0.5, math.nan), "degenerate edge: duration range is zero"),
    (lambda: empirical_prior((1.0, 2.0), 1.0, 0.5, math.nan), "degenerate edge: duration range is zero"),
    (lambda: worst_case_delta_time(math.nan, 1.0), "epsilon must be positive, got nan"),
    (lambda: worst_case_delta_time(1.0, math.nan), "range must be positive, got nan"),
    (lambda: delta_from_epsilon_time(0.5, math.nan, 1.0), "epsilon must be positive, got nan"),
    (lambda: delta_from_epsilon_time(0.5, 1.0, math.nan), "range must be positive, got nan"),
])
def test_a_nan_range_or_epsilon_is_rejected(call, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call()


# Columns of edges as a release holds them, their ranges and priors tuples
# repeated, and ranges no release holds (not finite and positive).
COLUMN_EDGES = st.tuples(
    st.lists(
        st.one_of(RANGES, st.sampled_from([1.0, 1e300, 1e308, 5e-324, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])),
        min_size=1, max_size=5,
    ),
    st.lists(PRIORS, min_size=1, max_size=3),
).flatmap(lambda pools: st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=15))


@given(delta=DELTAS, edges=COLUMN_EDGES)
@settings(max_examples=500)
@example(delta=1e-16, edges=[(1e300, None), (1.0, None), (1e300, None)])  # a subnormal epsilon, repeated
@example(delta=1e-16, edges=[(1.0, None), (3.0, None), (1e308, None)])  # no positive epsilon fits over 1e308
@example(delta=0.05, edges=[(r, None) for r in (2.0, 3.0, 2.0, 5e-324, 0.0, -0.0, -1.0, math.inf, math.nan)])
@example(delta=1e-17, edges=[(1.0, None), (7.0, None)])  # C is not positive: the first edge raises
@example(delta=1 - 2**-53, edges=[(1.0, None), (7.0, None)])  # C is unbounded
# 2.41... does not fit and finds L*; over 23.68... C/r's loss is L*, and
# so is the next float epsilon up's: C/r fits and is the answer.
@example(delta=0.57122621036536, edges=[(2.4188812596613234, None), (23.682300447931325, None)])
# One priors tuple near 1 - delta: every range misses its inverse by
# millions of ulps and takes L*, found once.
@example(delta=0.2, edges=[(r, ["below", 1.0]) for r in (1e-3, 1.0, 7.0, 1e-3)] + [(2.0, None)])
# Vacuous priors: an unbounded epsilon over any range, even one not finite.
@example(delta=0.3, edges=[(2.0, [1.0]), (math.inf, [1.0]), (math.nan, [1.0]), (2.0, ["vacuous"])])
@example(delta=0.3, edges=[(2.0, [0.5]), (3.0, [])])  # empty priors after a good edge
def test_the_column_is_the_search_per_edge(delta, edges):
    # Each edge gets the search's bits, or the column raises the search's
    # error of the first edge whose search raises.
    edges = [(r, _edge_priors(delta, picks)) for r, picks in edges]
    searched = []
    for r, priors in edges:
        searched.append(_certified(risk._searched_epsilon, delta, r, priors))
        if isinstance(searched[-1], str):
            break
    try:
        column = [_certified(lambda *_: certified) for certified in risk.certified_epsilons(delta, edges)]
    except ValueError as exc:
        column = [*searched[:-1], f"ValueError: {exc}"]
    assert column == searched


def test_a_column_searches_once_per_priors_tuple_and_certifies_each_edge_once(monkeypatch):
    searches, evaluations = [], []
    forward_search, forward_delta = risk._last_fitting, risk.edge_delta
    monkeypatch.setattr(risk, "_last_fitting", lambda *args: searches.append(args) or forward_search(*args))
    monkeypatch.setattr(risk, "edge_delta", lambda *args: evaluations.append(args) or forward_delta(*args))

    def counted(call):
        """``call()``, and the L* searches and advantage evaluations it ran."""
        searches.clear()
        evaluations.clear()
        return call(), len(searches), len(evaluations)

    # Every edge of one priors tuple misses its inverse. The column finds L*
    # once, and a later distinct edge evaluates the advantage only where
    # its loss is below L*.
    priors = (0.8 - 1e-9, 1.0)
    edges = [(r, priors) for r in (1e-3, 0.5, 1.0, 7.0, 1e3, 1.0)]
    assert all(risk._inverted(0.2, r, priors)[2] > 0.2 for r, _ in edges)
    column, column_searches, column_evaluations = counted(lambda: risk.certified_epsilons(0.2, edges))
    first_evaluations = counted(lambda: certified_epsilon(0.2, *edges[0]))[2]
    most = forward_search(math.inf, lambda at: forward_delta(at, 1.0, priors), 0.2)[0]
    later = list(dict(zip(edges, column)).items())[1:]
    assert column_searches == 1
    assert column_evaluations == first_evaluations + sum(epsilon * r < most for (r, _), (epsilon, _, _) in later)
    # Certified one by one, each edge searches for L* itself.
    assert [counted(lambda: certified_epsilon(0.2, r, priors))[:2] for r, _ in edges] == [(c, 1) for c in column]
    # A repeated edge that fits at its inverse is evaluated there once.
    assert counted(lambda: risk.certified_epsilons(0.4, [(2.0, (0.5,))] * 3))[2] == 1


# Empty priors name themselves wherever an edge is certified.
@pytest.mark.parametrize("call", [
    lambda: certified_epsilon(0.3, 2.0, ()),
    lambda: epsilon_time(0.3, 2.0, ()),
    lambda: risk._searched_epsilon(0.3, 2.0, ()),
    lambda: risk.certified_epsilons(0.3, [(2.0, (0.5,)), (3.0, ())]),
])
def test_empty_priors_are_rejected_by_name(call):
    with pytest.raises(ValueError, match=r"^an edge's priors must not be empty, got \(\)$"):
        call()


def test_epsilon_freq_examples():
    assert epsilon_freq(0.4) == pytest.approx(1.695, abs=1e-3)
    assert epsilon_freq(0.1) == pytest.approx(EPS_FREQ_01, rel=1e-12)


def test_delta_from_epsilon_time_examples():
    # P2 worked example: epsilon = ln(20)/4.5 at alpha = 4.5, beta = 0.05.
    assert delta_from_epsilon_time(1 / 3, math.log(20) / 4.5, 15) == pytest.approx(0.666, abs=1e-3)
    assert delta_from_epsilon_time(1.0, 3.0, 5.0) == 0.0
    assert delta_from_epsilon_time(0.4, 1e-12, 5.0) == pytest.approx(0.0, abs=1e-9)


def test_delta_from_epsilon_time_handles_unbounded():
    prior = 0.75
    assert delta_from_epsilon_time(prior, UNBOUNDED, 3.0) == pytest.approx(1 - prior)


def test_delta_from_epsilon_freq_examples():
    assert delta_from_epsilon_freq(3.329) == pytest.approx(0.682, abs=1e-3)
    assert delta_from_epsilon_freq(9.986) == pytest.approx(0.986, abs=1e-3)
    assert delta_from_epsilon_freq(1e-12) == pytest.approx(0.0, abs=1e-9)


def test_dfg_delta_is_max():
    # per-edge maxima of the published occurrence risks at a 0.3 error target
    per_edge = {
        ("--", "A"): 0.909,
        ("A", "B"): 0.799,
        ("A", "C"): 0.667,
        ("A", "D"): 0.342,
        ("B", "C"): 0.799,
        ("C", "D"): 0.875,
        ("D", "--"): 0.889,
        ("A", "--"): 0.499,
    }
    assert dfg_delta(per_edge) == pytest.approx(0.909)
    assert round(dfg_delta(per_edge), 1) == 0.9
    assert dfg_delta({"x": 0.25, "y": 0.25}) == 0.25
    with pytest.raises(ValueError):
        dfg_delta({})


def test_dfg_delta_frequency_table():
    frequencies = {"a": 11, "b": 5, "c": 3, "d": 1, "e": 5, "f": 8, "g": 9, "h": 2}
    deltas = {
        k: delta_from_epsilon_freq(math.log(20.0) / (0.3 * n)) for k, n in frequencies.items()
    }
    assert dfg_delta(deltas) == pytest.approx(0.986, abs=1e-3)


@given(
    prior=st.floats(0.01, 0.99),
    epsilon=st.floats(1e-3, 20.0),
    r=st.floats(1e-2, 100.0),
)
def test_posterior_minus_prior_is_advantage(prior, epsilon, r):
    posterior = 1.0 / (1.0 + math.exp(-epsilon * r) * (1.0 - prior) / prior)
    lhs = posterior - prior
    rhs = delta_from_epsilon_time(prior, epsilon, r)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@given(
    prior=st.floats(0.001, 0.999),
    frac=st.floats(0.001, 0.999),
    r=st.floats(1e-3, 1e3),
)
@settings(max_examples=300)
def test_round_trip_time_path(prior, frac, r):
    delta = frac * (1.0 - prior)
    eps = epsilon_from_delta(prior, delta, r)
    assert eps > 0
    assert delta_from_epsilon_time(prior, eps, r) == pytest.approx(delta, rel=1e-9)


@given(delta=st.floats(0.001, 0.999))
@settings(max_examples=300)
def test_round_trip_frequency_path(delta):
    assert delta_from_epsilon_freq(epsilon_freq(delta)) == pytest.approx(delta, rel=1e-9)


@given(prior=st.floats(0.05, 0.9), r=st.floats(0.1, 50.0))
def test_epsilon_strictly_increasing_in_delta(prior, r):
    deltas = [d for d in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8) if d + prior < 1.0]
    eps = [epsilon_from_delta(prior, d, r) for d in deltas]
    assert all(a < b for a, b in zip(eps, eps[1:]))


# epsilon*r is kept below ~25 in the strictness/range properties: beyond
# that exp(-eps*r) drops under one ulp of the denominator and the advantage
# saturates at exactly 1-prior in float arithmetic.
@given(prior=st.floats(0.05, 0.95), r=st.floats(0.1, 4.0))
def test_delta_strictly_increasing_in_epsilon_and_range(prior, r):
    eps_grid = (0.01, 0.1, 1.0, 5.0)
    deltas = [delta_from_epsilon_time(prior, e, r) for e in eps_grid]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    by_range = [delta_from_epsilon_time(prior, 0.5, rr) for rr in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(by_range, by_range[1:]))
    freq = [delta_from_epsilon_freq(e) for e in eps_grid]
    assert all(a < b for a, b in zip(freq, freq[1:]))


@given(
    prior=st.floats(0.001, 0.999),
    frac=st.floats(0.001, 0.999),
    r=st.floats(1e-2, 3.0),
    epsilon=st.floats(1e-3, 8.0),
)
def test_delta_ranges(prior, frac, r, epsilon):
    time_delta = delta_from_epsilon_time(prior, epsilon, r)
    assert 0.0 < time_delta < 1.0 - prior
    assert 0.0 < delta_from_epsilon_freq(epsilon) < 1.0


def test_worst_case_prior_minimizes_epsilon_fine_grid():
    for delta in (0.1, 0.4, 0.7):
        best = epsilon_from_delta(worst_case_prior(delta), delta, 1.0)
        grid = [k * 1e-3 for k in range(1, int((1.0 - delta) * 1000))]
        assert all(best <= epsilon_from_delta(p, delta, 1.0) + 1e-12 for p in grid)


def test_worst_case_delta_time_maximizes_over_priors():
    eps, r = 0.8, 5.0
    peak = worst_case_delta_time(eps, r)
    grid = [k * 1e-3 for k in range(1, 1000)]
    assert all(delta_from_epsilon_time(p, eps, r) <= peak + 1e-12 for p in grid)


def test_risk_params_validation():
    with pytest.raises(ValueError):
        RiskParams(0.0)
    with pytest.raises(ValueError):
        RiskParams(1.0)
    with pytest.raises(ValueError):
        RiskParams(0.4, precision=1.5)
    # A bool is no number, though True == 1.0 passes the range checks.
    for args, name in (((True,), "delta"), ((0.4, True), "precision"), ((0.4, False), "precision")):
        with pytest.raises(TypeError, match=f"^{name} must be a number, got {args[-1]!r}$"):
            RiskParams(*args)
    for mode, risk in ((Mode.P1, RiskParams(0.4, 1.0)), (Mode.P2, None)):
        utility = UtilityParams(0.3) if risk is None else None
        with pytest.raises(TypeError, match="^precision must be a number, got True$"):
            DisclosureRequest(mode, AggregationKind.MAX, risk=risk, utility=utility, precision=True)


def test_edge_epsilon_time_kind_range():
    eps_max, _ = epsilon_time(0.4, *time_priors(AC, AggregationKind.MAX, 0.1))
    eps_sum, _ = epsilon_time(0.4, *time_priors(AC, AggregationKind.SUM, 0.1))
    assert eps_max == eps_sum  # range is the max duration either way


def test_time_priors_range_and_degenerate_fallback():
    assert time_priors(AC, AggregationKind.SUM, 0.1) == (15.0, edge_priors(AC.durations, 0.1, 15.0))
    # Degenerate edges get no priors; a zero range is calibrated as range 1.
    assert time_priors(DfgEdge("A", "D", (7.0,)), AggregationKind.MAX, 0.1) == (7.0, None)
    assert time_priors(DfgEdge("X", "Y", (0.0, 0.0)), AggregationKind.MIN, 0.1) == (1.0, None)
    assert time_priors(DfgEdge("X", "Y", (0.0, 0.0)), MAX, 0.1)[0] == 1.0
