import math
import statistics

import pytest

from dpdfg import AggregationKind, NoiseStream, sample_laplace, sensitivity
from dpdfg.noise import TIME_FLOOR, post_process

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
