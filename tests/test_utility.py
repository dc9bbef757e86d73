import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdfg import NoiseStream, sample_laplace
from dpdfg.utility import UtilityParams, alpha_per_edge, ape, epsilon_from_alpha, mape, smape

# ln(20)/4.5 and ln(20)/0.9 at 30-digit precision, frozen:
EPS_ALPHA_45 = 0.66571828301199800
EPS_ALPHA_09 = 3.32859141505999000


def test_ape_examples():
    assert ape(10.0, 5.0) == pytest.approx(0.5)
    assert ape(42.0, 42.0) == 0.0
    # max weight 15 plus sampled noise 11.156
    assert ape(15.0, 15.0 + 11.156) == pytest.approx(0.743, abs=1e-3)


def test_ape_zero_actual_rejected():
    with pytest.raises(ValueError):
        ape(0.0, 1.0)


def test_mape_and_smape_basics():
    assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert smape([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mape([10.0, 10.0], [5.0, 15.0]) == pytest.approx(0.5)
    assert smape([10.0], [5.0]) == pytest.approx(5.0 / 15.0)


def test_mape_sums_left_to_right():
    # APEs 1, 1e16, 1: left to right the two 1s are lost to rounding; a
    # compensated sum (sum() since Python 3.12, math.fsum) keeps them.
    actuals, noisies = [1.0, 1.0, 1.0], [2.0, 1e16, 2.0]
    apes = [ape(a, f) for a, f in zip(actuals, noisies)]
    assert math.fsum(apes) / 3 != (apes[0] + apes[1] + apes[2]) / 3
    assert mape(actuals, noisies) == (apes[0] + apes[1] + apes[2]) / 3


def test_mape_length_mismatch():
    with pytest.raises(ValueError):
        mape([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        smape([1.0, 2.0], [2.0])


def test_alpha_per_edge_examples():
    assert alpha_per_edge(15.0, 0.3) == pytest.approx(4.5)
    assert alpha_per_edge(3.0, 0.3) == pytest.approx(0.9)
    assert alpha_per_edge(7.25, 1.0) == pytest.approx(7.25)
    with pytest.raises(ValueError):
        alpha_per_edge(0.0, 0.3)


def test_epsilon_from_alpha_closed_form():
    assert epsilon_from_alpha(1.0, 4.5, 0.05) == pytest.approx(EPS_ALPHA_45, rel=1e-12)
    assert epsilon_from_alpha(1.0, 0.9, 0.05) == pytest.approx(EPS_ALPHA_09, rel=1e-12)
    assert epsilon_from_alpha(1.0, 0.9, 0.05) == pytest.approx(3.329, abs=1e-3)
    assert epsilon_from_alpha(1.0, 1.0, 1 / math.e) == pytest.approx(1.0, rel=1e-12)


def test_epsilon_from_alpha_domain():
    for args in ((0.0, 1.0, 0.05), (1.0, 0.0, 0.05), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            epsilon_from_alpha(*args)


@given(
    sens=st.floats(1e-3, 10.0),
    alpha=st.floats(1e-3, 100.0),
    beta=st.floats(0.001, 0.999),
    k=st.floats(1e-2, 1e2),
)
def test_epsilon_from_alpha_homogeneous(sens, alpha, beta, k):
    assert epsilon_from_alpha(k * sens, k * alpha, beta) == pytest.approx(
        epsilon_from_alpha(sens, alpha, beta), rel=1e-12
    )


@given(
    actual=st.floats(1e-3, 1e6),
    noisy=st.floats(1e-3, 1e6),
)
def test_smape_bounded_for_positive_values(actual, noisy):
    assert 0.0 <= smape([actual], [noisy]) <= 1.0


def test_tail_guarantee_closed_form():
    # P(|Laplace(scale)| > alpha) = exp(-alpha/scale); calibration makes it beta
    for sens, alpha, beta in ((1.0, 4.5, 0.05), (0.125, 0.3, 0.1), (2.0, 7.0, 0.01)):
        eps = epsilon_from_alpha(sens, alpha, beta)
        scale = sens / eps
        assert math.exp(-alpha / scale) == pytest.approx(beta, rel=1e-12)


def test_tail_guarantee_empirical():
    sens, alpha, beta = 1.0, 4.5, 0.05
    eps = epsilon_from_alpha(sens, alpha, beta)
    scale = sens / eps
    stream = NoiseStream(1234, "tail", "check", 0)
    n = 100_000
    exceed = sum(1 for _ in range(n) if abs(sample_laplace(scale, stream)) > alpha)
    bound = 3.0 * math.sqrt(beta * (1.0 - beta) / n)
    assert abs(exceed / n - beta) < bound


def test_utility_params_validation():
    with pytest.raises(ValueError):
        UtilityParams(0.0)
    with pytest.raises(ValueError):
        UtilityParams(0.3, beta=0.0)
    with pytest.raises(ValueError):
        UtilityParams(0.3, beta=1.0)
