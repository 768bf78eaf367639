import cmath
import math

import numpy as np
import pytest

from tridtn.errors import DomainError, ParameterError, RootFindError
from tridtn.geometry import ALPHA, ALPHA_BAR, mu
from tridtn.oracle import all_traces, poincare_trace, symmetric_corner_compatible
import tridtn.poincare as poincare
from tridtn.poincare import (
    ScaledElimination,
    _audit_root_count,
    argument_principle_count,
    closed_form_d,
    closed_form_d_prime,
    closed_form_elimination,
    d_root_set,
    dirichlet_mode_roots,
    in_upper_half,
    inversion_integral,
    mixed_nr_trace,
    ray_radius,
    residue_of_inhomogeneity,
    root_circle_radius,
    symmetric_dirichlet_integral,
)
from tridtn.problems import mixed_nr_problem
from tridtn.relations import eliminate_second_side
from tridtn.scaledc import Scaled
from tridtn.series import symmetric_dirichlet_dtn
from tridtn.symbols import SideSymbol
from tridtn.traces import ContourResidueTrace

from conftest import spectral_points


def test_ray_radius_inverts_mu():
    lam = 1.3
    for t in (-4.0, -0.5, 0.0, 0.7, 6.0):
        r = float(ray_radius(t, lam))
        assert r > 0
        assert abs(r - lam / r - t) < 1e-12


def test_in_upper_half():
    assert in_upper_half(1j)
    assert not in_upper_half(-1j)
    with pytest.raises(DomainError):
        in_upper_half(cmath.exp(1j * math.pi / 6.0))


def test_dirichlet_mode_roots_certified():
    roots = dirichlet_mode_roots(1.0, 1.0, 12)
    assert len(list(roots)) > 0
    for root in roots:
        assert root.residual < 1e-12
        assert abs(mu(root.k, 1.0) - 2j * math.pi * root.label) < 1e-10


def test_inversion_integral_recovers_trace(rng):
    """Inverting the PSI transform of a smooth compactly-centred bump
    reproduces the bump away from the corners."""
    from tridtn.spectral import Kind, SideSampler
    from tridtn.traces import BoundaryTrace

    lam = 1.0
    value = lambda s: np.exp(-40.0 * np.asarray(s) ** 2)
    deriv = lambda s: -80.0 * np.asarray(s) * np.exp(-40.0 * np.asarray(s) ** 2)
    trace = BoundaryTrace(side=1, value=value, derivative=deriv)
    sampler = SideSampler(trace, Kind.PSI, lam, 1.0)
    got = inversion_integral(sampler.eval, 0.13, lam, 1.0, t_factor=80.0)
    assert abs(got - value(0.13)) < 1e-6


def test_symmetric_dual_representation(geom):
    lam = 1.0
    sol = symmetric_corner_compatible(lam, 1.0)
    d, n = all_traces(sol, geom)
    series = symmetric_dirichlet_dtn(d[0], lam, 1.0, n_max=48)
    integral = symmetric_dirichlet_integral(d[0], lam, 1.0, n_max=48, t_factor=320.0)
    s = np.linspace(-0.35, 0.35, 29)
    err = np.max(np.abs(series.value(s) - integral.value(s)))
    assert err < 1e-5
    d_err = np.max(np.abs(integral.derivative(s) - n[0].derivative(s)))
    assert d_err < 1e-5


def test_closed_form_d_and_derivative():
    lam = 1.0
    syms = (
        SideSymbol(lam, math.pi / 2.0, math.sqrt(3.0 * lam)),
        SideSymbol(lam, math.pi / 2.0, 0.0),
        SideSymbol(lam, math.pi / 2.0, 0.0),
    )
    k = 0.9 + 0.7j
    h = 1e-6
    fd = (closed_form_d(syms, k + h, lam, 1.0) - closed_form_d(syms, k - h, lam, 1.0)) / (2 * h)
    assert abs(closed_form_d_prime(syms, k, lam, 1.0) - fd) < 1e-5 * max(1.0, abs(fd))
    # elementwise over arrays; a scalar k still gives a complex value
    ks = np.array([k, 0.3 - 1.2j, -2.0 + 0.4j])
    assert isinstance(closed_form_d(syms, k, lam, 1.0), complex)
    for f in (closed_form_d, closed_form_d_prime):
        one_by_one = [f(syms, kk, lam, 1.0) for kk in ks]
        assert np.allclose(f(syms, ks, lam, 1.0), one_by_one, rtol=1e-14, atol=0.0)


def test_d_root_set_certified_and_audited():
    roots = d_root_set(1.0, 1.0, count=6, audit=True)
    all_roots = list(roots)
    assert len(all_roots) >= 12
    for root in all_roots:
        assert root.residual < 1e-12
    # the two k-branches of one mode share mu, so their product equals lam
    labels = {}
    for root in all_roots:
        labels.setdefault(root.label, []).append(root.k)
    for ks in labels.values():
        if len(ks) == 2:
            assert abs(ks[0] * ks[1] - 1.0) < 1e-8


def test_root_circle_radius_clears_neighbours():
    roots = list(d_root_set(1.0, 1.0, count=5, audit=False))
    for root in roots:
        r = root_circle_radius(root.k, 1.0, 1.0)
        assert r > 0
        for other in roots:
            if other is not root:
                assert abs(other.k - root.k) > r


def test_argument_principle_plain_zero():
    # z^2 - 1 has two zeros in a box around the origin
    count = argument_principle_count(lambda z: z * z - 1.0, (-2, 2, -1, 1))
    assert count == 2


def test_argument_principle_one_array_call():
    sizes = []

    def func(z):
        sizes.append(np.size(z))
        return z - 0.25j

    assert argument_principle_count(func, (-1, 1, -1, 1), samples_per_edge=50) == 1
    assert sizes == [200]


def test_audit_rejects_a_missing_root():
    ks = d_root_set(1.0, 1.0, count=4, audit=False).k
    _audit_root_count(ks, 1.0, 1.0)

    def inside_the_others(i):
        others = np.delete(ks, i)
        return (
            others.real.min() < ks[i].real < others.real.max()
            and others.imag.min() < ks[i].imag < others.imag.max()
        )

    # leave out a root that the audit box of the others still encloses
    drop = next(i for i in range(ks.size) if inside_the_others(i))
    with pytest.raises(RootFindError):
        _audit_root_count(np.delete(ks, drop), 1.0, 1.0)


@pytest.mark.parametrize("lam, count", [(5.0, 64), (10.0, 32)])
def test_audit_resolves_fast_phase_near_the_origin(lam, count):
    # 2000 samples per box edge alias the argument near k = 0 here
    roots = d_root_set(lam, 1.0, count, audit=True)
    assert len(roots) == 2 * (2 * count + 1)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_d_root_records(lam):
    roots = d_root_set(lam, 1.0, 8)
    records = list(roots)
    assert len(records) == len(roots) == 34
    assert all(root.residual <= 1e-12 for root in records)
    # D+ first, each half-plane in mode order
    assert [r.plus for r in records] == sorted((r.plus for r in records), reverse=True)
    for half in (True, False):
        labels = [r.label for r in records if r.plus == half]
        assert labels == sorted(labels)
    assert np.array_equal([r.k for r in records], roots.k)


def test_d_root_set_refuses_nan(monkeypatch):
    monkeypatch.setattr(poincare, "closed_form_d", lambda syms, k, lam, l: k * np.nan)
    with pytest.raises(RootFindError):
        d_root_set(1.0, 1.0, 4, audit=False)


def _mixed_problem(geom, lam=1.0):
    sol = symmetric_corner_compatible(lam, 1.0)
    gamma = math.sqrt(3.0 * lam)
    problem = mixed_nr_problem(
        lam,
        geom,
        poincare_trace(sol, geom, 1, math.pi / 2.0, gamma),
        all_traces(sol, geom)[1][1],
        all_traces(sol, geom)[1][2],
    )
    return sol, problem


def test_mixed_nr_trace_against_oracle(geom):
    sol, problem = _mixed_problem(geom)
    trace = mixed_nr_trace(problem, count=16, t_factor=40.0)
    d = all_traces(sol, geom)[0]
    s = np.linspace(-0.3, 0.3, 13)
    err = np.max(np.abs(trace.value(s) - d[1](s)))
    assert err < 1e-3  # loose operating point; the tight one runs in acceptance
    d_err = np.max(np.abs(trace.derivative(s) - d[1].derivative(s)))
    assert d_err < 2e-3


def test_array_inhom_matches_scalar_and_solve(geom, rng):
    """The array cycle walk equals per-point calls and, at moderate |k|,
    the inhomogeneity of the plain 6x6 elimination."""
    _, problem = _mixed_problem(geom)
    elim = ScaledElimination(problem)
    ks = np.concatenate([spectral_points(rng, 12), [40.0 - 25.0j, 0.02 + 0.01j]])
    got = np.asarray(elim.inhom(ks).to_complex())
    one_by_one = np.array([complex(elim.inhom(k).to_complex()) for k in ks])
    assert np.allclose(got, one_by_one, rtol=1e-12, atol=0.0)
    for k, val in zip(ks[:12], got):
        want = eliminate_second_side(problem, k).inhom
        assert abs(val - want) <= 1e-10 * abs(want)


def test_mixed_nr_trace_makes_three_inhom_calls(geom, monkeypatch):
    _, problem = _mixed_problem(geom)
    calls = []
    inhom = ScaledElimination.inhom

    def counted(self, k):
        calls.append(np.shape(k))
        return inhom(self, k)

    monkeypatch.setattr(ScaledElimination, "inhom", counted)
    mixed_nr_trace(problem, count=8, t_factor=4.0)
    assert len(calls) == 3  # two rays, then every residue circle at once
    assert calls[-1] == (34, 32)


def test_array_residues_match_per_root_trapezoid(geom):
    _, problem = _mixed_problem(geom)
    elim = ScaledElimination(problem)
    k = d_root_set(1.0, 1.0, 6).k
    radius = root_circle_radius(k, 1.0, 1.0)
    got = residue_of_inhomogeneity(elim, k, radius)
    nodes = 32
    for k0, r, val in zip(k, radius, got):
        offsets = r * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        want = np.sum(elim.inhom(k0 + offsets).to_complex() * offsets) / nodes
        assert abs(val - want) <= 1e-13 * abs(want)


def test_mixed_nr_requires_matching_gamma(geom):
    lam = 1.0
    sol = symmetric_corner_compatible(lam, 1.0)
    from tridtn.problems import BCKind, ProblemSpec, SideCondition

    sides = (
        SideCondition(BCKind.ROBIN, all_traces(sol, geom)[0][0], gamma=1.0),
        SideCondition(BCKind.NEUMANN, all_traces(sol, geom)[1][1]),
        SideCondition(BCKind.NEUMANN, all_traces(sol, geom)[1][2]),
    )
    problem = ProblemSpec(lam=lam, geometry=geom, sides=sides)
    with pytest.raises(ParameterError):
        mixed_nr_trace(problem, count=4)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_folded_contour_trace_matches_unfolded_sum(lam, rng):
    grids, _ = poincare._ray_grids(lam, 1.0, poincare.T_FACTOR, poincare.PANEL_ORDER)
    t = np.concatenate([t_ray for t_ray, _, _ in grids])
    assert t.size == (1280 if lam == 0.0 else 2560)
    w = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    rates = np.array([0.3 + 2.0j, -1.0 - 5.0j])
    coeffs = np.array([0.2 - 0.1j, 0.05j])
    trace = ContourResidueTrace(side=1, t=t, weighted=w, rates=rates, coeffs=Scaled.of(coeffs))
    assert trace.t.size == 640
    assert trace.t[0] >= 0.0 and np.all(np.diff(trace.t) > 0.0)
    s = np.linspace(-0.5, 0.5, 41)
    waves = np.exp(1j * np.multiply.outer(s, t))
    residues = np.exp(-np.multiply.outer(s, rates))
    value = np.real(waves @ w + residues @ coeffs)
    derivative = np.real(waves @ (1j * t * w) - residues @ (rates * coeffs))
    assert np.max(np.abs(trace.value(s) - value)) <= 1e-13 * np.sum(np.abs(w))
    assert np.max(np.abs(trace.derivative(s) - derivative)) <= 1e-13 * np.sum(np.abs(t * w))
