import math

import mpmath
import numpy as np
import pytest
from scipy import special

from tridtn.bessel import bessel_k0, bessel_k1
from tridtn.errors import DomainError

from conftest import fresh_python


def _mp_k(nu, x):
    return float(mpmath.besselk(nu, mpmath.mpf(x)))


@pytest.mark.parametrize("nu,fn", [(0, bessel_k0), (1, bessel_k1)])
def test_against_mpmath(nu, fn):
    xs = np.concatenate(
        [
            np.geomspace(1e-6, 0.5, 40),
            np.linspace(0.5, 20.0, 120),
            np.geomspace(20.0, 600.0, 40),
            [8.4965],
        ]
    )
    for x in xs:
        want = _mp_k(nu, x)
        got = fn(float(x))
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-300), x


def test_against_scipy_vectorised():
    xs = np.linspace(0.05, 40.0, 500)
    assert np.max(np.abs(bessel_k0(xs) - special.k0(xs)) / special.k0(xs)) < 1e-8
    assert np.max(np.abs(bessel_k1(xs) - special.k1(xs)) / special.k1(xs)) < 1e-8


def test_known_values():
    # classical reference values
    assert abs(bessel_k0(1.0) - 0.42102443824070834) < 1e-10
    assert abs(bessel_k1(1.0) - 0.6019072301972346) < 1e-10
    # small-x leading behavior K0 ~ -ln(x/2) - gamma
    x = 1e-6
    assert abs(bessel_k0(x) - (-math.log(x / 2.0) - 0.5772156649015329)) < 1e-4


def _second_derivative(fn, x, h):
    # twice-Richardson-extrapolated central stencils (leading error h^6)
    def d1(step):
        return (fn(x + step) - fn(x - step)) / (2.0 * step)

    def d2(step):
        return (fn(x + step) - 2.0 * fn(x) + fn(x - step)) / step**2

    def rich(d):
        r1a = (4.0 * d(h / 2.0) - d(h)) / 3.0
        r1b = (4.0 * d(h / 4.0) - d(h / 2.0)) / 3.0
        return (16.0 * r1b - r1a) / 15.0

    return rich(d1), rich(d2)


@pytest.mark.parametrize("nu,fn", [(0, bessel_k0), (1, bessel_k1)])
def test_modified_bessel_ode(nu, fn):
    """x^2 K'' + x K' - (x^2 + nu^2) K = 0 on both branch domains.

    The band around the series/asymptotic switch is excluded: there the
    intrinsic cancellation floor of double precision (eps * e^{2x} against
    the e^{-2x} value) exceeds the 1e-8 target for any implementation.
    """
    xs = np.concatenate([np.linspace(0.3, 3.5, 25), np.linspace(13.0, 30.0, 25)])
    for x in xs:
        h = 0.05 * min(x, 1.0) if x < 5.0 else 0.1
        kp, kpp = _second_derivative(fn, x, h)
        resid = x * x * kpp + x * kp - (x * x + nu * nu) * fn(x)
        scale = max(x * x * abs(fn(x)), 1e-300)
        assert abs(resid) / scale < 1e-8, x


def test_wronskian():
    # I0(x) K1(x) + I1(x) K0(x) = 1/x, exact for the true functions
    xs = np.linspace(0.1, 40.0, 200)
    w = special.i0(xs) * bessel_k1(xs) + special.i1(xs) * bessel_k0(xs)
    assert np.max(np.abs(w - 1.0 / xs) * xs) < 5e-9


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_k0(0.0)
    with pytest.raises(DomainError):
        bessel_k1(-1.0)
    with pytest.raises(DomainError):
        bessel_k0(np.array([1.0, -2.0]))


def test_array_shape_roundtrip():
    xs = np.array([[0.5, 1.0], [2.0, 3.0]])
    out = bessel_k0(xs)
    assert out.shape == xs.shape
    assert isinstance(bessel_k0(1.0), float)


def test_first_call_in_fresh_interpreter_matches_scipy_bitwise():
    # bessel imports scipy.special on its first call; the values are
    # scipy's own, scalars as floats and arrays element for element
    xs = [1e-6, 0.25, 1.0, 8.4965, 40.0, 600.0]
    code = (
        "import numpy as np; from tridtn.bessel import bessel_k0, bessel_k1; "
        f"xs = {xs!r}; "
        "print(' '.join(float(v).hex() for f in (bessel_k0, bessel_k1) "
        "for v in [*map(f, xs), *f(np.array(xs))]))"
    )
    want = [float(v).hex() for f in (special.k0, special.k1) for v in [*f(xs), *f(xs)]]
    assert fresh_python(code).split() == want
