import hashlib
import math
import statistics
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpdfg import AggregationKind, NoiseStream, sample_laplace, sensitivity
from dpdfg import noise as noise_module
from dpdfg.noise import TIME_FLOOR, post_process, post_process_column, uniform_from_digest, unit_laplace_column
from dpdfg.pipeline import _unit_draws
from dpdfg.utility import ape, ape_row, sape, sape_row

F = AggregationKind.FREQUENCY


class FixedStream:
    def __init__(self, u: float):
        self.u = u

    def next_uniform(self) -> float:
        return self.u


def test_sensitivity_per_aggregation():
    assert sensitivity(AggregationKind.MAX, 3) == 1.0
    assert sensitivity(AggregationKind.MIN, 5) == 1.0
    assert sensitivity(AggregationKind.SUM, 9) == 1.0
    assert sensitivity(F, 1) == 1.0
    assert sensitivity(AggregationKind.AVG, 8) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        sensitivity(F, 0)


def test_sample_laplace_zero_scale():
    stream = NoiseStream(1, "a", "b", 0)
    assert all(sample_laplace(0.0, stream) == 0.0 for _ in range(10))


def test_sample_laplace_fixed_uniform():
    assert sample_laplace(1.0, FixedStream(0.25)) == pytest.approx(-math.log(0.5))
    assert sample_laplace(1.0, FixedStream(-0.25)) == pytest.approx(math.log(0.5))
    assert sample_laplace(2.0, FixedStream(0.25)) == pytest.approx(-2.0 * math.log(0.5))


def test_sample_laplace_rejects_negative_scale():
    with pytest.raises(ValueError):
        sample_laplace(-1.0, FixedStream(0.2))


def test_sample_laplace_empirical_mean():
    stream = NoiseStream(99, "mean", "check", 0)
    n = 100_000
    mean = sum(sample_laplace(2.0, stream) for _ in range(n)) / n
    assert abs(mean) < 0.05


def test_sample_laplace_median_absolute_noise():
    scale = 2.0
    stream = NoiseStream(7, "median", "check", 0)
    samples = [abs(sample_laplace(scale, stream)) for _ in range(100_000)]
    med = statistics.median(samples)
    assert med == pytest.approx(scale * math.log(2.0), rel=0.02)


def test_release_rounds_frequencies():
    assert post_process(3.41, F) == 3.0
    assert post_process(3.5, F) == 4.0
    assert post_process(-7.2, F) == 1.0


def test_release_clamps_time_weights():
    assert post_process(15.0 - 20.0, AggregationKind.MAX) == TIME_FLOOR
    assert post_process(0.25, AggregationKind.AVG) == 0.25


def test_streams_are_deterministic_and_independent_of_order():
    def draw(source, target, run):
        return sample_laplace(1.0, NoiseStream(42, source, target, run))

    first = [draw("A", "B", 0), draw("B", "C", 0), draw("A", "B", 1)]
    second = [draw("A", "B", 0), draw("B", "C", 0), draw("A", "B", 1)]
    assert first == second
    # evaluation order does not matter
    reordered = [draw("A", "B", 1), draw("A", "B", 0), draw("B", "C", 0)]
    assert reordered == [first[2], first[0], first[1]]


def test_streams_differ_across_edges_runs_and_seeds():
    values = {
        sample_laplace(1.0, NoiseStream(seed, s, t, run))
        for seed in (1, 2)
        for s, t in (("A", "B"), ("B", "A"))
        for run in (0, 1)
    }
    assert len(values) == 8


def test_stream_key_is_not_ambiguous():
    # ("AB","C") and ("A","BC") must not collide
    a = sample_laplace(1.0, NoiseStream(7, "AB", "C", 0))
    b = sample_laplace(1.0, NoiseStream(7, "A", "BC", 0))
    assert a != b


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


# A noise key (seed, source, target); the memo keeps one list of unit draws
# per key, indexed by run.
KEYS = st.tuples(st.integers(-(2**70), 2**70), st.text(max_size=6), st.text(max_size=6))
SCALES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, sys.float_info.max]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


def reference_bits(scale: float, key: tuple, runs: int) -> list[bytes]:
    return [bits(sample_laplace(scale, NoiseStream(*key, run))) for run in range(runs)]


def noise(scale: float, key: tuple, runs: int, draws: dict) -> list[float]:
    """Runs 0 .. runs-1 of the noise a release gives the edge ``key`` at
    ``scale``: run i's is ``scale * units[i]``, as in its rows."""
    units = _unit_draws(scale, key, runs, draws)
    return [scale * units[run] for run in range(runs)]


@given(key=KEYS, scale=SCALES, runs=st.integers(1, 4))
def test_scaled_unit_draw_is_bitwise_the_reference_draw(key, scale, runs):
    # A sweep draws each stream's unit-scale Laplace value once and scales
    # it per cell; every run of the column must have the bits sample_laplace
    # gives at that scale, sign of zero included.
    reference = reference_bits(scale, key, runs)
    if scale > 0.0:
        assert [bits(scale * sample_laplace(1.0, NoiseStream(*key, run))) for run in range(runs)] == reference
    draws = {}
    assert list(map(bits, noise(scale, key, runs, draws))) == reference
    # Scale 0 draws nothing; any other scale stores the key's unit draws.
    assert list(draws) == ([key] if scale > 0.0 else [])
    assert all(len(units) == runs for units in draws.values())
    # A second scale reads the stored draws and still matches its reference;
    # a longer column is drawn anew, and a shorter one reads its prefix.
    assert list(map(bits, noise(scale / 3, key, runs, draws))) == reference_bits(scale / 3, key, runs)
    assert list(map(bits, noise(scale / 3, key, runs + 2, draws))) == reference_bits(scale / 3, key, runs + 2)
    assert list(map(bits, noise(scale, key, 1, draws))) == reference[:1]


# List kernels against their scalar oracles. An outcome is the bits of
# every value, or the type and text of the first error.
def outcome(compute) -> tuple:
    try:
        return ("ok", list(map(bits, compute())))
    except Exception as exc:
        return (type(exc), str(exc))


TIME_FLOOR_NEIGHBOURS = [math.nextafter(TIME_FLOOR, -math.inf), TIME_FLOOR, math.nextafter(TIME_FLOOR, math.inf)]
EDGE_VALUES = [
    0.5, -0.5, 1.5, 2.5, -1.5, -2.5, 0.49999999999999994, 0.0, -0.0, -7.2, 3.41,
    5e-324, 1e300, -1e300, sys.float_info.max, -sys.float_info.max, 2.0**53 + 1.0,
    math.nan, math.inf, -math.inf, *TIME_FLOOR_NEIGHBOURS,
]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


@given(values=st.lists(VALUES, max_size=8), kind=st.sampled_from(list(AggregationKind)))
@example(values=[math.nan, -0.0, -7.2, *TIME_FLOOR_NEIGHBOURS, 2.5, math.inf], kind=AggregationKind.MAX)
@example(values=[0.5, -0.5, 1.5, 2.5, 0.49999999999999994, -0.0, 1e300], kind=F)
@example(values=[1.0, math.nan], kind=F)
@example(values=[math.inf], kind=F)
@example(values=[2.0**52 - 0.5, 2.0**52 + 0.5, 2.0**52 + 1.0, 2.0**53], kind=F)
@example(values=[math.nextafter(-0.5, -math.inf), 0.5 - 2.0**-54, -0.5, 0.5], kind=F)
@example(values=[3.0, math.nan, 2.0, math.inf], kind=F)
@example(values=[3.0, -math.inf, math.nan], kind=F)
def test_post_process_column_is_bitwise_post_process(values, kind):
    # Rounding ties, signed zeros, TIME_FLOOR itself, and NaN/inf (which the
    # frequency branch rejects with the oracle's error) included.
    assert outcome(lambda: post_process_column(values, kind)) == outcome(
        lambda: [post_process(v, kind) for v in values]
    )


ACTUALS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0, 3.5, 5e-324, 1e300, math.nan, math.inf]), st.floats())


@given(actual=ACTUALS, data=st.data())
def test_error_rows_are_bitwise_ape_and_sape(actual, data):
    # -actual makes actual + v exactly 0, SMAPE's error case. Each value's
    # actual is ``actual`` or another.
    values = data.draw(st.lists(st.one_of(VALUES, st.just(-actual)), min_size=1, max_size=8))
    actuals = data.draw(st.lists(st.one_of(st.just(actual), ACTUALS), min_size=len(values), max_size=len(values)))
    pairs = list(zip(actuals, values))
    assert outcome(lambda: ape_row(actuals, values)) == outcome(lambda: [ape(a, v) for a, v in pairs])
    assert outcome(lambda: sape_row(actuals, values)) == outcome(lambda: [sape(a, v) for a, v in pairs])


def test_error_rows_raise_the_oracle_errors():
    with pytest.raises(ValueError, match="^APE undefined for actual value 0$"):
        ape_row([-0.0, -0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^APE undefined for actual value 0$"):
        ape_row([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^SMAPE undefined when actual \\+ noisy is 0$"):
        sape_row([2.0, 2.0], [1.0, -2.0])
    assert list(map(bits, sape_row([2.0, 2.0], [1.0, 3.0]))) == [bits(sape(2.0, 1.0)), bits(sape(2.0, 3.0))]


@given(key=KEYS, runs=st.integers(0, 10))
@example(key=(-1, "Ä", "→ end"), runs=3)
@example(key=(2**64 + 5, "", "日本"), runs=6)
def test_unit_laplace_column_is_bitwise_the_reference_draw(key, runs):
    def column_is_the_reference(length):
        return list(map(bits, unit_laplace_column(*key, length))) == [
            bits(sample_laplace(1.0, NoiseStream(*key, run))) for run in range(length)
        ]

    assert column_is_the_reference(runs)
    # Each run's key suffix is built once per process and cached for every
    # edge; built again after the cache is emptied, it gives the same bits.
    noise_module._run_suffix.cache_clear()
    for length in (runs + 3, runs):
        assert column_is_the_reference(length), length


# The draw rule, exactly: the first 52 bits of a draw's digest are k, and
# the uniform is (2k+1)*2**-53 - 1/2.
K_MAX = 2**52 - 1
LAPLACE_END = 52 * math.log(2.0)


def digest_of(k: int) -> bytes:
    """A digest whose first 52 bits are ``k``; its other bits are ones."""
    return ((k << 204) | (2**204 - 1)).to_bytes(32, "big")


def test_uniform_ends_are_2_to_the_minus_53_inside_one_half():
    assert uniform_from_digest(bytes(32)) == -0.5 + 2.0**-53
    assert uniform_from_digest(b"\xff" * 32) == 0.5 - 2.0**-53
    assert uniform_from_digest(digest_of(0)) == -0.5 + 2.0**-53
    assert uniform_from_digest(digest_of(K_MAX)) == 0.5 - 2.0**-53


@given(k=st.integers(0, K_MAX))
@example(k=0)
@example(k=2**51 - 1)
@example(k=2**51)
@example(k=K_MAX)
def test_uniform_is_symmetric_and_never_zero(k):
    u = uniform_from_digest(digest_of(k))
    assert bits(uniform_from_digest(digest_of(K_MAX - k))) == bits(-u)
    assert u != 0.0 and -0.5 < u < 0.5
    # Exact: the float is the rational (2k+1)/2**53 - 1/2 itself.
    assert Fraction(u) == Fraction(2 * k + 1, 2**53) - Fraction(1, 2)


def test_unit_laplace_at_both_ends_is_finite_with_magnitude_52_ln_2():
    low, high = (sample_laplace(1.0, FixedStream(uniform_from_digest(digest_of(k)))) for k in (0, K_MAX))
    assert math.isfinite(low) and math.isfinite(high)
    assert low == -LAPLACE_END and high == LAPLACE_END


@given(key=KEYS, run=st.integers(0, 5), count=st.integers(1, 5))
@example(key=(-1, "Ä", "→ end"), run=0, count=3)
def test_noise_stream_draw_i_is_the_digest_rule_at_counter_i(key, run, count):
    stream_key = b"".join(
        len(raw).to_bytes(4, "big") + raw
        for raw in (part.encode("utf-8") for part in (str(key[0]), key[1], key[2], str(run)))
    )
    stream = NoiseStream(*key, run)
    for i in range(count):
        k = int.from_bytes(hashlib.sha256(stream_key + i.to_bytes(8, "big")).digest()[:7], "big") >> 4
        assert bits(stream.next_uniform()) == bits((2 * k + 1) * 2.0**-53 - 0.5)
