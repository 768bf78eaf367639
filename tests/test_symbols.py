import math

import mpmath
import numpy as np
import pytest

from tridtn.symbols import SideSymbol


def _mp_derivative(f, k):
    """Central difference of ``f`` (which takes mpmath numbers) at k, in
    40-digit arithmetic: the step 1e-12 |k| leaves about 1e-24 relative."""
    with mpmath.workdps(40):
        z, step = mpmath.mpc(k), mpmath.mpf(1e-12) * abs(k)
        return complex((f(z + step) - f(z - step)) / (2 * step))


@pytest.mark.parametrize(
    "lam, beta, gamma",
    [(1.0, math.pi / 2.0, math.sqrt(3.0)), (1e-3, 1.0, 0.2), (30.0, 2.5, -1.0)],
    ids=["robin", "oblique-small-lambda", "oblique-large-lambda"],
)
def test_derivatives_match_central_differences_on_arrays(lam, beta, gamma):
    # k on arrays: near |k| = sqrt(lambda), where H' passes through zero at
    # k e^{+-i beta} = +-sqrt(lambda), and up to |k| = 1e4
    sym = SideSymbol(lam, beta, gamma)
    rl = math.sqrt(lam)
    angles = np.exp(1j * np.linspace(0.1, 2.0 * np.pi, 7))
    radii = np.array([0.97, 1.0, 1.03, 3.0, 1e2, 1e4])
    k = np.multiply.outer(radii * rl, angles)
    k = np.concatenate([k.ravel(), [rl * np.exp(-1j * beta), rl * np.exp(1j * beta), 1e4 + 0j]])
    for value, derivative in ((sym.h, sym.dh), (sym.hbar, sym.dhbar), (sym.p, sym.dp)):
        got = derivative(k)
        assert got.shape == k.shape
        want = np.array([_mp_derivative(value, z) for z in k])
        # relative to |f'| + |f|/|k|, as f' passes through zero
        scale = np.abs(want) + np.abs(value(k)) / np.abs(k)
        assert np.max(np.abs(got - want) / scale) <= 1e-13
        # the array call equals the scalar one at each point, to rounding
        scalar = np.array([derivative(complex(z)) for z in k])
        assert np.max(np.abs(scalar - got) / scale) <= 1e-14


def test_dh_vanishes_where_h_is_stationary():
    # H'(k) = e^{i beta} (1 - lambda/(k e^{i beta})^2) is 0 at k e^{i beta} = sqrt(lambda)
    lam, beta = 2.0, 0.7
    sym = SideSymbol(lam, beta, 0.5)
    k = math.sqrt(lam) * np.exp(np.array([-1j, 1j]) * beta)
    assert abs(sym.dh(k[0])) <= 1e-15
    assert abs(sym.dhbar(k[1])) <= 1e-15
