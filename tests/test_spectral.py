import cmath
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import tridtn.relations as relations
import tridtn.spectral as spectral
from tridtn.errors import DomainError, NonFiniteError, ParameterError
from tridtn.geometry import TriangleGeometry, mu
from tridtn.oracle import all_traces, poincare_trace, symmetric_corner_compatible
from tridtn.interior import TraceSet, fokas_eval, symmetric_interior
from tridtn.poincare import ScaledElimination, mixed_nr_trace, symmetric_dirichlet_integral
from tridtn.problems import mixed_nr_problem
from tridtn.quadrature import QuadratureRule, _leggauss
from tridtn.relations import GlobalRelation
from tridtn.scaledc import Scaled
from tridtn.series import _finalize, general_dirichlet_dtn, neumann_to_dirichlet, symmetric_dirichlet_dtn
from tridtn.spectral import Kind, SideSampler, transforms
from tridtn.traces import BoundaryTrace, ExponentialSumTrace

from conftest import manufactured_families, spectral_points
from reference import rayleigh_columns


def exp_trace(c, side=1, amplitude=1.0):
    return BoundaryTrace(
        side=side,
        value=lambda s: amplitude * np.exp(c * np.asarray(s)),
        derivative=lambda s: amplitude * c * np.exp(c * np.asarray(s)),
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
        trace = _finalize(1, 1.0, modes, coeffs)
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




def test_i0_i1_against_mpmath():
    # e^{-|Re z|} i_0 and i_1 in all four quadrants, the band |Re z| < 1
    # out to |Im z| = 1e4, both axes, z = 0 and |Re z| up to 700; i_1 is
    # bounded only where |z| >= 1, as below that it cancels
    quadrants = [
        complex(sx * x, sy * y)
        for x, y in [(0.3, 0.5), (3.0, 5.0), (30.0, 50.0), (300.0, 500.0), (3.0, 500.0)]
        for sx in (1, -1)
        for sy in (1, -1)
    ]
    band = [
        complex(sx * x, sy * y)
        for x in (1e-8, 1e-3, 0.5, 0.99)
        for y in (1e2, 1e3, 1e4)
        for sx in (1, -1)
        for sy in (1, -1)
    ]
    axes = [s * r * u for r in (1e-8, 0.1, 1.0, 10.0, 700.0) for s in (1, -1) for u in (1, 1j)]
    far = [complex(s * 700.0, y) for s in (1, -1) for y in (3.0, -1e3)]
    z = np.array(quadrants + band + axes + far + [1e4j, 0.0], dtype=complex)
    i0, i1 = spectral._i0_i1(z)
    assert i0[-1] == 1.0 and i1[-1] == 0.0
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for zj, got0, got1 in zip(z[:-1], i0, i1):
            w = mpmath.mpc(zj)
            scale = mpmath.exp(-abs(w.real))
            want0 = mpmath.sinh(w) / w * scale
            want1 = (mpmath.cosh(w) - mpmath.sinh(w) / w) / w * scale
            assert abs(mpmath.mpc(got0) - want0) <= 4 * eps * abs(want0), zj
            if abs(zj) >= 1.0:
                assert abs(mpmath.mpc(got1) - want1) <= 8 * eps * abs(want1), zj


def _reference_bessel_sums(coeffs, z):
    """``spectral._bessel_sums`` one column at a time, each step of each
    recurrence a fresh expression and each column's terms stopping at its
    last nonzero coefficient: the same operations in the same order."""
    n_deg = len(coeffs)
    az = np.abs(z)
    forward = (az > n_deg) & (n_deg**2 * np.abs(z.real) <= 8.0 * az**2)
    zf, zm = z[forward], z[~forward]
    top = spectral._top_degree(zm, n_deg) if zm.size else 0
    out = np.empty((coeffs.shape[1], z.size), dtype=complex)
    for col, c in enumerate(coeffs.T):
        length = n_deg - np.argmax(c[::-1] != 0.0)
        inv = 1.0 / zf
        f_prev, f = spectral._i0_i1(zf)
        acc = c[0] * f_prev + c[1] * f
        for n in range(1, n_deg - 1):
            f_prev, f = f, f_prev - ((2 * n + 1) * inv) * f
            if length > n + 1:
                acc = acc + c[n + 1] * f
        out[col, forward] = acc
        ratio = np.zeros(zm.shape, dtype=complex)
        acc = np.zeros(zm.shape, dtype=complex) + (c[top] if top < n_deg else 0.0)
        for n in range(top, 0, -1):
            ratio = zm / ((2 * n + 1) + zm * ratio)
            if length > n - 1:
                acc = acc * ratio + c[n - 1]
        i0, i1 = spectral._i0_i1(zm)
        by_i1 = (np.abs(i1) > np.abs(i0)) & (np.abs(zm) > 1.0)
        out[col, ~forward] = np.where(by_i1, i1 / np.where(by_i1, ratio, 1.0), i0) * acc
    return out


def _bessel_case(name):
    """(coeffs, z, which recurrences serve z) of one input kind."""
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((40, 6))
    for col, length in enumerate([40, 25, 3, 40, 12, 0]):
        coeffs[length:, col] = 0.0  # columns of unequal length and one all-zero
    far = rng.uniform(-2.0, 2.0, 30) + 1j * rng.choice([-1, 1], 30) * rng.uniform(60.0, 200.0, 30)
    near = 30.0 * np.sqrt(rng.uniform(0, 1, 30)) * np.exp(2j * np.pi * rng.uniform(0, 1, 30))
    near = np.concatenate([near, [0.0, 1j * np.pi, -3j * np.pi, 0.5]])
    z, which = {
        "forward": (far, {True}),
        "miller": (near, {False}),
        "mixed": (np.concatenate([near[:17], far, near[17:]]), {True, False}),
        "all-zero": (np.concatenate([far, near]), {True, False}),
        "single-column": (np.concatenate([far, near]), {True, False}),
    }[name]
    if name == "all-zero":
        coeffs = np.zeros((8, 3))
    if name == "single-column":
        coeffs = coeffs[:, 1:2]
    return coeffs, z, which


@pytest.mark.parametrize("name", ["forward", "miller", "mixed", "all-zero", "single-column"])
def test_bessel_sums_equal_the_reference_loop_bitwise(name):
    coeffs, z, which = _bessel_case(name)
    n_deg = len(coeffs)
    forward = (np.abs(z) > n_deg) & (n_deg**2 * np.abs(z.real) <= 8.0 * np.abs(z) ** 2)
    assert set(forward.tolist()) == which
    got = spectral._bessel_sums(coeffs, z)
    assert got.tobytes() == _reference_bessel_sums(coeffs, z).tobytes()


def test_analysis_matrix_is_built_without_a_second_matrix():
    # each row is scaled by (k + 1/2) w once the recurrence has read it, so
    # the build holds the n x n matrix and a few rows, never a scaling matrix
    n = 1024
    _leggauss(n)
    tracemalloc.start()
    try:
        rows = spectral._analysis_matrix.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (n, n) and peak <= 1.1 * n * n * 8, peak


@pytest.mark.parametrize("side_length", [1.0, 0.7, 3.1])
def test_sampled_series_read_the_side_rule_nodes(side_length):
    # the sampled nodes are those of the Gauss rule on the side, bit for
    # bit, at every doubling (all even counts, so no node sits at the midpoint)
    seen = []

    def value(s):
        seen.append(np.array(s))
        return np.cos(s)

    trace = BoundaryTrace(side=1, value=value, derivative=value)
    for _ in spectral._samplings(trace, "value", side_length):
        pass
    counts = [len(s) for s in seen]
    assert counts == [32 * 2**j for j in range(7)]
    for n in (32, 64, 2048):
        want = QuadratureRule.gauss(-side_length / 2.0, side_length / 2.0, n).nodes
        assert seen[counts.index(n)].tobytes() == want.tobytes()


def test_bessel_sums_at_contour_arguments(geom, monkeypatch):
    # the one transform call of symmetric_dirichlet_integral(T = 80) takes
    # both recurrences; sums at points of each against mpmath, relative to
    # the sum of the moduli of their terms
    calls = []
    bessel_sums = spectral._bessel_sums

    def captured(coeffs, z):
        calls.append((coeffs, z))
        return bessel_sums(coeffs, z)

    monkeypatch.setattr(spectral, "_bessel_sums", captured)
    data = all_traces(symmetric_corner_compatible(1.0, 1.0), geom)[0][0]
    symmetric_dirichlet_integral(data, 1.0, 1.0, n_max=16, t_factor=80.0)
    ((coeffs, z),) = calls
    degree = len(coeffs)
    forward = (np.abs(z) > degree) & (degree**2 * np.abs(z.real) <= 8.0 * np.abs(z) ** 2)
    picks = np.random.default_rng(3)
    index = np.concatenate(
        [picks.choice(np.flatnonzero(branch), 12, replace=False) for branch in (forward, ~forward)]
        + [[np.argmin(np.abs(z)), np.argmax(np.abs(z.real))]]
    )
    got = bessel_sums(coeffs, z[index])
    with mpmath.workdps(30):
        for i, zj in enumerate(z[index]):
            w = mpmath.mpc(zj)
            scale = mpmath.exp(-abs(w.real))
            terms = [
                mpmath.sqrt(mpmath.pi / (2 * w)) * mpmath.besseli(n + 0.5, w) * scale
                if w != 0
                else mpmath.mpf(n == 0)  # i_n(0) = [n = 0]; mu(k) = 0 at k = i sqrt(lambda)
                for n in range(degree)
            ]
            for column in range(coeffs.shape[1]):
                parts = [mpmath.mpf(c) * term for c, term in zip(coeffs[:, column], terms)]
                err = abs(mpmath.mpc(got[column, i]) - mpmath.fsum(parts))
                assert err <= 1e-14 * mpmath.fsum(map(abs, parts)), (zj, column)


# -- batched transforms --------------------------------------------------------
def _assert_same_scaled(got, want):
    """Equal to 1e-13 relative in mantissa, with an equal abs_log."""
    assert got.m.shape == want.m.shape
    assert np.all(np.abs(got.m - want.m) <= 1e-13 * np.abs(want.m))
    assert np.all(np.abs(got.abs_log() - want.abs_log()) <= 1e-13)


def _batch():
    """A mix of PSI and PHI samplers of different chopped degree."""
    wave = _finalize(2, 1.0, np.array([90, 1, 0, -90]), np.array([0.5, 0.3j, 0.3, 0.5]))
    kinds = (Kind.PSI, Kind.PHI, Kind.PHI, Kind.PSI)
    traces = (exp_trace(0.7), exp_trace(-0.4), wave, wave)
    return [SideSampler(trace, kind, 1.0, 1.0) for trace, kind in zip(traces, kinds)]


def test_transforms_match_per_sampler_evaluation(rng):
    samplers = _batch()
    k = spectral_points(rng, 30, r_hi=40.0).reshape(3, 10)
    got = transforms(samplers, k)
    assert got.m.shape == (4, 3, 10)
    degrees = {len(sampler.trace.legendre[("value", 1.0)]) for sampler in samplers}
    assert len(degrees) > 1
    for j, sampler in enumerate(samplers):
        _assert_same_scaled(got[j], sampler.eval_scaled(k))


def test_transforms_beyond_the_double_range():
    samplers = _batch()
    k = np.array([2000.0, -1800.0 + 50.0j, 1500.0 + 10.0j])
    assert np.all(np.abs(mu(k, 1.0).real) * 0.5 > 700.0)
    got = transforms(samplers, k)
    assert np.all(np.isfinite(got.m)) and np.all(got.abs_log() > 700.0)
    for j, sampler in enumerate(samplers):
        _assert_same_scaled(got[j], sampler.eval_scaled(k))


def test_transforms_normalise_each_sampler(rng):
    tiny, huge = (
        SideSampler(exp_trace(0.3, amplitude=a), Kind.PHI, 1.0, 1.0) for a in (1e-200, 1e200)
    )
    k = spectral_points(rng, 12)
    got = transforms([tiny, huge], k)
    for j, sampler in enumerate((tiny, huge)):
        _assert_same_scaled(got[j], sampler.eval_scaled(k))
    # the same trace 400 decades apart: the small one keeps its digits
    ratio = (got[0] / got[1]).normalized()
    assert np.allclose(ratio.sigma + np.log(np.abs(ratio.m)), -400.0 * math.log(10.0), rtol=1e-13)


def test_transforms_reject_bad_input():
    samplers = _batch()
    with pytest.raises(DomainError):
        transforms(samplers, np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        transforms(samplers + [SideSampler(exp_trace(0.1), Kind.PSI, 2.0, 1.0)], 1.0)
    with pytest.raises(ParameterError):
        transforms(samplers + [SideSampler(exp_trace(0.1), Kind.PSI, 1.0, 2.0)], 1.0)
    # mu(k) = k + lam/k overflows below k = lam/DBL_MAX, and at k = inf
    for k in (1e-320, math.inf):
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            transforms(samplers, np.array([1.0, k]))


def test_one_bessel_recurrence_per_transform_set(monkeypatch, geom, rng):
    calls = []
    bessel_sums = spectral._bessel_sums

    def counted(coeffs, z):
        calls.append(z.size)
        return bessel_sums(coeffs, z)

    monkeypatch.setattr(spectral, "_bessel_sums", counted)
    lam = 1.0
    d, n = all_traces(manufactured_families(lam)[0], geom)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    assert count(lambda: symmetric_dirichlet_dtn(d[0], lam, 1.0, n_max=8)) == 1
    assert count(lambda: general_dirichlet_dtn(d, lam, 1.0, m_max=8)) == 1
    assert count(lambda: neumann_to_dirichlet(n, lam, 1.0, m_max=8)) == 1
    relation = GlobalRelation(d, n, lam, 1.0)
    assert count(lambda: relation.relative_residual(spectral_points(rng, 20))) == 1
    # every ray of every point: one call for six points, none for a later
    # point that their spectrum reaches, and one for a point nearer a side
    traces = TraceSet(geom, d, n)
    points = np.array([0.0, 0.1j, -0.1, 0.05 + 0.05j, -0.1 - 0.1j, 0.1 - 0.05j])
    for z, recurrences in ((points, 1), (points[0], 0), (0.2 + 0.0j, 1)):
        assert count(lambda: fokas_eval(traces, lam, z)) == recurrences
        assert count(lambda: symmetric_interior(d[0], lam, z, geom, n_max=8)) == recurrences
    sol = symmetric_corner_compatible(lam, 1.0)
    traces = all_traces(sol, geom)[1]
    robin = poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0 * lam))
    problem = mixed_nr_problem(lam, geom, robin, traces[1], traces[2])
    elim = ScaledElimination(problem)
    assert count(lambda: elim.inhom(spectral_points(rng, 20).reshape(4, 5))) == 1
    # a mixed solve: its rays and roots in one recurrence, one assembly of
    # the rows and one walk of their cycle
    steps = []
    for name in ("relation_rows", "walk_cycle"):
        step = getattr(relations, name)
        monkeypatch.setattr(relations, name, lambda *a, f=step, n=name, **kw: steps.append(n) or f(*a, **kw))
    assert count(lambda: mixed_nr_trace(problem, count=4, t_factor=4.0)) == 1
    assert steps == ["relation_rows", "walk_cycle"]


# -- Legendre series of exponential-sum traces -----------------------------------
def _symmetric_series(lam):
    # at n_max = 16 both paths cut a real tail near 1e-9 at 12 coefficients
    # (_chop takes it for a plateau) and the 32-node samples alias it into
    # the kept ones, so the sampled series is no reference to 1e-13 there
    d = all_traces(symmetric_corner_compatible(lam, 1.0), TriangleGeometry(1.0))[0]
    return symmetric_dirichlet_dtn(d[0], lam, 1.0, n_max=8)


def _general_series():
    d = all_traces(manufactured_families(1.0)[0], TriangleGeometry(1.0))[0]
    trace = general_dirichlet_dtn(d, 1.0, 1.0, m_max=16)[1]
    # the labels -16..16 fold onto the 17 nodes of one lattice
    assert trace.weighted.shape == (17, 1)
    return trace


def _contour_trace():
    d = all_traces(symmetric_corner_compatible(1.0, 1.0), TriangleGeometry(1.0))[0]
    return symmetric_dirichlet_integral(d[0], 1.0, 1.0, n_max=16, t_factor=10.0)


def _mixed_trace():
    lam, geom = 1.0, TriangleGeometry(1.0)
    sol = symmetric_corner_compatible(lam, 1.0)
    traces = all_traces(sol, geom)[1]
    robin = poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0 * lam))
    trace = mixed_nr_trace(mixed_nr_problem(lam, geom, robin, traces[1], traces[2]), 4, 4.0)
    assert isinstance(trace.coeffs, Scaled) and trace.rates.size
    return trace


EXPONENTIAL_SUM_TRACES = {
    "symmetric-lam0": lambda: _symmetric_series(0.0),
    "symmetric-lam1": lambda: _symmetric_series(1.0),
    "general": _general_series,
    "contour": _contour_trace,
    "mixed": _mixed_trace,
}


def _assert_columns_match_the_sampled_trace(trace, side_length):
    # the same trace behind a BoundaryTrace is sampled on Gauss nodes
    sampled = BoundaryTrace(trace.side, trace.value, trace.derivative)
    for column in ("value", "derivative"):
        got = spectral._legendre(trace, column, side_length, Kind.PSI)
        want = spectral._legendre(sampled, column, side_length, Kind.PSI)
        n = max(len(got), len(want))
        diff = np.pad(got, (0, n - len(got))) - np.pad(want, (0, n - len(want)))
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(want)), column


@pytest.mark.parametrize("name", list(EXPONENTIAL_SUM_TRACES))
def test_rayleigh_columns_match_the_sampled_series(name):
    trace = EXPONENTIAL_SUM_TRACES[name]()
    _assert_columns_match_the_sampled_trace(trace, 1.0)
    # the sampled columns agree with the Rayleigh expansion of the
    # exponentials over a Miller table of i_n, an independent reference,
    # cut by the same chop
    for column in ("value", "derivative"):
        got = spectral._legendre(trace, column, 1.0, Kind.PSI)
        want = rayleigh_columns(trace, column, 1.0).real
        want = want[: max(2, spectral._chop(want) or len(want))]
        n = max(len(got), len(want))
        diff = np.pad(got, (0, n - len(got))) - np.pad(want, (0, n - len(want)))
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(want)), column


def test_a_series_read_on_another_side_length_takes_the_general_path():
    # the lattice of a series built for l = 1 sits at the series arguments
    # -i pi m/3 only on that side length
    trace = _general_series()
    _assert_columns_match_the_sampled_trace(trace, 1.3)


def test_series_solve_samples_each_trace_once_per_column(tmp_path, monkeypatch):
    # the residual audit reads each computed trace's Legendre columns from
    # one sampling per column, at its a-priori node count; the imbalance
    # of _finalize samples nothing
    import tridtn.cli as cli
    import tridtn.series as series

    active, entered, reads, samples = [], set(), [], []

    def counted(name, method):
        def run(self, s, *args, **kwargs):
            if active:
                samples.append((active[-1], self, name, np.size(s)))
            return method(self, s, *args, **kwargs)

        return run

    def watched(fn, label):
        def run(*args, **kwargs):
            active.append(label)
            entered.add(label)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()

        return run

    legendre = watched(spectral._legendre, "_legendre")

    def read(trace, column, side_length, kind):
        if isinstance(trace, ExponentialSumTrace) and (column, side_length) not in trace.legendre:
            reads.append((trace, column, spectral._first_nodes(trace, side_length)))
        return legendre(trace, column, side_length, kind)

    for name in ("value", "derivative"):
        monkeypatch.setattr(ExponentialSumTrace, name, counted(name, getattr(ExponentialSumTrace, name)))
    monkeypatch.setattr(spectral, "_legendre", read)
    monkeypatch.setattr(series, "_finalize", watched(series._finalize, "_finalize"))
    wave = "cos(2*pi*s/l)"
    for j, (kind, sides) in enumerate(
        [
            ("dirichlet", [wave] * 3),  # the symmetric map
            ("dirichlet", [wave, wave + " + s^2 - l^2/4", wave]),  # the general map
            ("neumann", [wave] * 3),
        ]
    ):
        cfg = {
            "lam": 1.0,
            "side_length": 1.0,
            "truncation": 16,
            "bc": [{"kind": kind, "data": text} for text in sides],
        }
        path = tmp_path / f"cfg{j}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / f"o{j}")]) == 0
    assert entered == {"_legendre", "_finalize"}
    assert not [sample for sample in samples if sample[0] == "_finalize"]
    assert len(reads) >= 6 and {column for _, column, _ in reads} == {"value", "derivative"}
    sampled = [(trace, name, size) for label, trace, name, size in samples if label == "_legendre"]
    assert len(sampled) == len(reads)
    for trace, column, nodes in reads:
        assert [
            size for other, name, size in sampled if other is trace and name == column
        ] == [nodes], column


# -- transforms at images of base points ----------------------------------------
@pytest.mark.parametrize("lam", [1.0, 0.3])
def test_transforms_at_images_match_every_point(lam):
    # base points with mu in the closed first quadrant: inside it, on both
    # axes (k on the imaginary axis, k real) and at mu = 0 (k = i sqrt(lam));
    # small |mu| for Miller's recurrence, large for the forward one
    samplers = [SideSampler(s.trace, s.kind, lam, 1.0) for s in _batch()]
    k = np.concatenate(
        [
            np.array([1.5 + 1.0j, 2.0 + 0.5j, 1.5, 1.05j, 3.0j, 1j * math.sqrt(lam)]),
            np.array([400.0 + 30.0j, 500.0, 350.0 + 350.0j, 600.0j]),
        ]
    )
    base = mu(k, lam)
    assert np.all(base.real >= 0.0) and np.all(base.imag >= 0.0)
    # mu at -k, lambda/conj(k), -lambda/conj(k) and k: (negate, conjugate)
    points = np.concatenate([-k, lam / np.conj(k), -lam / np.conj(k), k])
    blocks = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 0)]
    degree = max(len(column) for s in samplers for column in s._columns[0])
    z = base * 0.5
    forward = (np.abs(z) > degree) & (degree**2 * np.abs(z.real) <= 8.0 * np.abs(z) ** 2)
    assert forward.any() and not forward.all()
    got = transforms(samplers, points, ((base,), blocks))
    want = transforms(samplers, points)
    scale = np.max(np.abs(want.to_complex()), axis=1, keepdims=True)
    assert np.all(np.abs(got.to_complex() - want.to_complex()) <= 1e-13 * scale)
