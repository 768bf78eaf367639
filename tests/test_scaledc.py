import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tridtn.scaledc import Scaled, collapse

from reference import scaled_sum

moderate = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@given(a=moderate, b=moderate)
@example(a=1j, b=5e-324 + 1j)  # a - b is subnormal
def test_arithmetic_matches_complex(a, b):
    sa, sb = Scaled.of(a), Scaled.of(b)
    assert abs(complex((sa * sb).to_complex()) - a * b) <= 1e-9 * abs(a * b)
    assert abs(complex((sa + sb).to_complex()) - (a + b)) <= 1e-9 * max(abs(a + b), 1e-12)
    assert abs(complex((sa - sb).to_complex()) - (a - b)) <= 1e-9 * max(abs(a - b), 1e-12)
    assert abs(complex((sa / sb).to_complex()) - a / b) <= 1e-9 * abs(a / b)


@given(w=st.complex_numbers(max_magnitude=200.0, allow_nan=False, allow_infinity=False))
def test_from_exp_consistency(w):
    got = Scaled.from_exp(w)
    assert abs(got.abs_log() - w.real) < 1e-9 * max(1.0, abs(w.real))


def test_huge_exponent_ratios():
    # exp(1000) / exp(999) = e, far beyond double range for the factors
    big = Scaled.from_exp(1000.0 + 0.3j)
    slightly_smaller = Scaled.from_exp(999.0 + 0.3j)
    assert abs(complex((big / slightly_smaller).to_complex()) - np.e) < 1e-12
    for collapsing in (big.to_complex, lambda: collapse(big.log())):
        with pytest.raises(OverflowError):
            collapsing()
    # the log collapses once 999 is taken off, and underflows quietly to 0
    assert abs(collapse(big.log() - 999.0) - np.e * np.exp(0.3j)) < 1e-12
    with np.errstate(under="raise"):
        assert collapse(big.log() - 2000.0) == 0.0


def test_cancellation_in_sums():
    a = Scaled.from_exp(500.0)
    b = -Scaled.from_exp(500.0)
    assert abs((a + b).abs_log()) == np.inf  # exact zero -> log|0| = -inf


def test_negation():
    x = Scaled.from_exp(3.0 + 1.0j)
    assert abs(complex((-x).to_complex()) + complex(x.to_complex())) < 1e-12


def test_array_broadcasting():
    w = np.array([1.0 + 0.5j, -2.0, 0.0 + 1j])
    x = Scaled.from_exp(w)
    y = x * Scaled.of(2.0)
    vals = np.asarray(y.to_complex())
    assert np.max(np.abs(vals - 2.0 * np.exp(w))) < 1e-12


def test_sum_reduces_the_last_axis():
    w = np.array([[800.0 + 0.1j, 799.0, 1.0], [-3.0, 2.0j, 0.5]])
    got = scaled_sum(Scaled.from_exp(w))
    assert got.m.shape == (2,)
    # exp(800) overflows; the exponent carries it
    want = 800.0 + np.log(abs(np.exp(0.1j) + np.exp(-1.0)))
    assert abs(got.abs_log()[0] - want) < 1e-12 * want
    assert abs(Scaled(got.m[1], got.sigma[1]).to_complex() - np.sum(np.exp(w[1]))) < 1e-12
