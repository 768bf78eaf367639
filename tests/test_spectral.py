import cmath
import math

import mpmath
import numpy as np
import pytest

from tridtn.errors import DomainError
from tridtn.geometry import mu
from tridtn.spectral import Kind, SideSampler
from tridtn.traces import BoundaryTrace, FourierSeriesTrace


def exp_trace(c, side=1):
    return BoundaryTrace(
        side=side,
        value=lambda s: np.exp(c * np.asarray(s)),
        derivative=lambda s: c * np.exp(c * np.asarray(s)),
    )


def closed_psi(k, lam, c, half=0.5):
    rate = mu(k, lam) + c
    return (np.exp(rate * half) - np.exp(-rate * half)) / rate


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_psi_matches_closed_form(lam, rng):
    c = 0.7
    sampler = SideSampler(exp_trace(c), Kind.PSI, lam, 1.0)
    for _ in range(20):
        k = rng.uniform(0.2, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        want = closed_psi(k, lam, c)
        got = sampler.eval(k)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_phi_matches_closed_form(rng):
    c, lam = 0.4, 1.3
    sampler = SideSampler(exp_trace(c), Kind.PHI, lam, 1.0)
    for _ in range(20):
        k = rng.uniform(0.2, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        want = (0.5 * c + lam / k) * closed_psi(k, lam, c)
        assert abs(sampler.eval(k) - want) < 1e-12 * max(1.0, abs(want))


def test_mu_inversion_invariance(rng):
    lam = 1.7
    trace = exp_trace(0.5)
    sampler = SideSampler(trace, Kind.PSI, lam, 1.0)
    for _ in range(10):
        k = rng.uniform(0.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a, b = sampler.eval(k), sampler.eval(lam / k)
        assert abs(a - b) < 1e-11 * max(1.0, abs(a))


def test_eval_scaled_consistency(rng):
    sampler = SideSampler(exp_trace(0.2), Kind.PSI, 1.0, 1.0)
    for _ in range(10):
        k = rng.uniform(0.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        plain = sampler.eval(k)
        scaled = complex(np.ravel(np.asarray(sampler.eval_scaled(k).to_complex()))[0])
        assert abs(plain - scaled) < 1e-12 * max(1.0, abs(plain))


def test_large_mu_layer_path():
    # the boundary-layer windows must agree with an explicit high-order rule
    c, lam = 0.3, 1.0
    sampler = SideSampler(exp_trace(c), Kind.PSI, lam, 1.0)
    k = 400.0 + 3.0j
    got = sampler.eval_scaled(k)
    rate = mu(k, lam) + c
    # exact: e^{rate/2}/rate to exponential accuracy; compare in log space
    want_log = (rate * 0.5).real - math.log(abs(rate))
    got_log = got.abs_log()
    assert abs(got_log - want_log) < 1e-10 * max(1.0, abs(want_log))


def test_k_zero_rejected():
    sampler = SideSampler(exp_trace(0.1), Kind.PSI, 1.0, 1.0)
    with pytest.raises(DomainError):
        sampler.eval(0.0)


def _atom_transform(atoms, kind, k, lam, half):
    """Closed-form transform of sum_j a_j e^{r_j s} over [-half, half], in mpmath."""
    k = mpmath.mpc(k)
    m = k + lam / k
    total = 0
    for a, r in atoms:
        a, r = mpmath.mpc(a), mpmath.mpc(r)
        w = m + r
        moment = 2 * mpmath.sinh(w * half) / w if w != 0 else 2 * mpmath.mpf(half)
        factor = r / 2 + lam / k if kind is Kind.PHI else 1
        total += a * factor * moment
    return total


def _reference_traces():
    c = 0.7
    yield exp_trace(c), [(1, c)]
    # the modes +-m make whole periods on the side, which integrate to zero
    # at mu = 0 for g and g' alike; the mean (m = 0) and the odd m = 1 term
    # keep the transforms away from zero there, so relative errors exist
    for m in (90, 192):
        modes = np.array([m, 1, 0, -m])
        coeffs = np.array([0.5, 0.3j, 0.3, 0.5])
        trace = FourierSeriesTrace(side=1, side_length=1.0, modes=modes, coeffs=coeffs)
        rates = -2j * math.pi * modes / 3.0
        # Re(c e^{rs}) = (c e^{rs} + conj(c) e^{conj(r) s}) / 2
        yield trace, [(a / 2, r) for a, r in zip(coeffs, rates)] + [
            (a.conjugate() / 2, r.conjugate()) for a, r in zip(coeffs, rates)
        ]


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_transform_reference(lam):
    # every kind against mpmath closed forms, |k| from 1e-3 to 1e4, on an
    # exp atom and on Fourier traces of 30 and 64 oscillations per side
    half = 0.5
    radii = [1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4]
    ks = np.array([r * cmath.exp(2j * math.pi * j / 8) for r in radii for j in range(8)])
    bound = 1e-12 * np.maximum(1.0, np.abs(mu(ks, lam)) * 2 * half / 100.0)
    in_range = np.abs(mu(ks, lam).real) * half < 700.0
    with mpmath.workdps(30):
        for trace, atoms in _reference_traces():
            for kind in Kind:
                sampler = SideSampler(trace, kind, lam, 2 * half)
                plain = np.full(ks.shape, np.nan, dtype=complex)
                plain[in_range] = sampler.eval(ks[in_range])
                scaled = sampler.eval_scaled(ks)
                log_mod, phase = scaled.abs_log(), np.angle(scaled.m)
                for i, k in enumerate(ks):
                    want = _atom_transform(atoms, kind, complex(k), lam, half)
                    d_log = abs(log_mod[i] - float(mpmath.log(abs(want))))
                    turn = phase[i] - float(mpmath.arg(want))
                    d_phase = abs(cmath.phase(cmath.exp(1j * turn)))
                    assert max(d_log, d_phase) <= bound[i], (kind, k, d_log, d_phase)
                    if in_range[i]:
                        err = abs(mpmath.mpc(plain[i]) - want) / abs(want)
                        assert err <= bound[i], (kind, k, float(err))

