import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

from tridtn.errors import AccuracyError, DomainError, ParameterError, RootFindError
from tridtn.expressions import expression_trace
from tridtn.geometry import ALPHA, ALPHA_BAR, mu
from tridtn.oracle import (
    all_traces,
    corner_smooth_solution,
    poincare_trace,
    symmetric_corner_compatible,
)
import tridtn.poincare as poincare
import tridtn.relations as relations
from tridtn.poincare import (
    ScaledElimination,
    _audit_root_count,
    argument_principle_count,
    d_root_set,
    dirichlet_mode_roots,
    in_upper_half,
    mixed_mode_terms,
    mixed_nr_trace,
    ray_radius,
    symmetric_dirichlet_integral,
)
from tridtn.problems import mixed_nr_problem
from tridtn.scaledc import Scaled
from tridtn.series import _rotations, symmetric_dirichlet_dtn
from tridtn.spectral import Kind, SideSampler
from tridtn.symbols import SideSymbol
from tridtn.traces import ExponentialSumTrace

from conftest import spectral_points
from reference import closed_form_elimination, eliminate_second_side, scaled_free_piece, scaled_sum

#: symmetric Dirichlet data that are not even in s, so (G/Delta)(-k) is not
#: (G/Delta)(k) and the lower ray carries what the upper one does not
NON_EVEN = "cos(2*pi*s/l) + 0.3*sin(2*pi*s/l)"


def test_ray_radius_inverts_mu():
    lam = 1.3
    for t in (-4.0, -0.5, 0.0, 0.7, 6.0):
        r = float(ray_radius(t, lam))
        assert r > 0
        assert abs(r - lam / r - t) < 1e-12


def test_ray_radius_against_mpmath():
    # (t + sqrt(t^2 + 4 lambda))/2 cancels for t < 0; r(t) must hold a few
    # ulp on both half-lines, lambda from 1e-8 to 1e5, |t| up to 1e5
    lams = 10.0 ** np.arange(-8, 6)
    ts = np.concatenate([-np.geomspace(1e-6, 1e5, 23), [0.0], np.geomspace(1e-6, 1e5, 23)])
    with mpmath.workdps(40):
        for lam in lams:
            got = ray_radius(ts, lam)
            for t, r in zip(ts, got):
                want = (mpmath.mpf(t) + mpmath.sqrt(mpmath.mpf(t) ** 2 + 4 * mpmath.mpf(lam))) / 2
                err = abs(mpmath.mpf(r) - want) / want
                assert err <= 4 * np.finfo(float).eps, (lam, t, float(err))


def test_in_upper_half():
    assert in_upper_half(1j)
    assert not in_upper_half(-1j)
    with pytest.raises(DomainError):
        in_upper_half(cmath.exp(1j * math.pi / 6.0))


def test_in_upper_half_is_scale_free():
    # the contour is a line through k = 0: a tiny inner root off it is no
    # contour point, and k = 0 itself is
    assert in_upper_half(1e-12j) and not in_upper_half(-1e-12j)
    with pytest.raises(DomainError):
        in_upper_half(0.0)


def test_dirichlet_mode_roots_certified():
    roots = dirichlet_mode_roots(1.0, 1.0, 12)
    assert len(list(roots)) > 0
    for root in roots:
        assert root.residual < 1e-12
        assert abs(mu(root.k, 1.0) - 2j * math.pi * root.label) < 1e-10


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


def _audit_inputs(monkeypatch, lam, count):
    """The roots of ``d_root_set`` and the arguments it passes its audit."""
    seen = []
    monkeypatch.setattr(poincare, "_audit_root_count", lambda *args: seen.append(args))
    roots = d_root_set(lam, 1.0, count)
    monkeypatch.undo()
    return roots, seen[0]


def test_audit_rejects_a_missing_root(monkeypatch):
    roots, (ks, lam, side_length, edges) = _audit_inputs(monkeypatch, 1.0, 4)
    _audit_root_count(ks, lam, side_length, edges)
    interior = np.flatnonzero(roots.label == 2)
    # one branch of a pair left out: the other has no partner lambda/k
    with pytest.raises(RootFindError, match="pair"):
        _audit_root_count(np.delete(ks, interior[0]), lam, side_length, edges)
    # one branch of each of two modes left out: an even set, still unpaired
    other = np.flatnonzero(roots.label == -1)[0]
    with pytest.raises(RootFindError, match="pair"):
        _audit_root_count(np.delete(ks, [interior[0], other]), lam, side_length, edges)
    # a whole interior mode pair left out: the mu-plane count sees the mode
    with pytest.raises(RootFindError, match="count"):
        _audit_root_count(np.delete(ks, interior), lam, side_length, edges)


def test_audit_box_lies_midway_between_modes(monkeypatch):
    roots, (_, lam, side_length, edges) = _audit_inputs(monkeypatch, 1e-3, 0)
    # count 0: the one mode mu = 0, and the box edges halfway to m = +-1,
    # which a fixed pad of a quarter spacing would overshoot at small lambda
    assert np.allclose(mu(roots.k, lam), 0.0, atol=1e-12)
    outer = d_root_set(lam, side_length, 1).k
    y1 = np.max(mu(outer, lam).imag)
    assert edges == pytest.approx((-0.5 * y1, 0.5 * y1), rel=1e-12)


@pytest.mark.parametrize(
    "lam, count",
    [(5.0, 64), (10.0, 32), (1e-6, 40), (100.0, 64), (1000.0, 64), (100.0, 400), (1.0, 700)],
)
def test_audit_resolves_fast_phase_near_the_origin(lam, count):
    # in the k-plane the lambda/k images of the modes cluster at the
    # essential point k = 0; in mu the audit box has no such point
    roots = d_root_set(lam, 1.0, count, audit=True)
    assert len(roots) == 2 * (2 * count + 1)
    # the audit only checks the set: each inner root is lambda/outer, never
    # solved for on its own, so none lands on another mode's root and is lost
    unaudited = d_root_set(lam, 1.0, count, audit=False).k
    assert np.unique(unaudited).size == len(roots)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0, 100.0, 1000.0, 1e-4, 1e-2])
def test_d_root_set_over_counts_and_lambdas(lam):
    for count in (0, 4, 8, 64, 800):
        roots = d_root_set(lam, 1.0, count, audit=True)
        assert len(roots) == 2 * (2 * count + 1)
        assert np.max(roots.residual) <= 1e-12
        # the two branches of each mode share mu and multiply to lambda
        pairs = roots.k[np.argsort(mu(roots.k, lam).imag)].reshape(-1, 2)
        assert np.allclose(pairs[:, 0] * pairs[:, 1], lam, rtol=1e-12, atol=0.0)


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
    def nan_terms(mu_value, lam, side_length, w=None):
        return mu_value * np.nan, mu_value

    monkeypatch.setattr(poincare, "mixed_mode_terms", nan_terms)
    with pytest.raises(RootFindError, match="residual"):
        d_root_set(1.0, 1.0, 4, audit=False)


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 100.0, 1000.0])
def test_certified_roots_are_zeros_of_the_closed_form_d(lam):
    # the mirror D(k) of the full elimination, scaled by |e^3(k)| + |e^3(-k)|,
    # vanishes at the roots that the mode function of mu certifies
    roots = d_root_set(lam, 1.0, count=64)
    symbols = (
        SideSymbol(lam, math.pi / 2.0, math.sqrt(3.0 * lam)),
        SideSymbol(lam, math.pi / 2.0, 0.0),
        SideSymbol(lam, math.pi / 2.0, 0.0),
    )
    big_d = closed_form_elimination(symbols, roots.k, lam, 1.0)[0]
    w = 1.5 * mu(roots.k, lam)
    assert np.max(np.abs(big_d) / (np.abs(np.exp(w)) + np.abs(np.exp(-w)))) <= 1e-12


def test_mode_terms_are_a_function_of_mu():
    # B is invariant under k -> lambda/k: the outer root read from mu gives
    # the value that the raw terms give at either k-branch
    lam, side_length = 2.0, 1.0
    k = np.array([0.9 + 0.7j, 3.0 - 1.2j, -0.4 + 2.5j])
    robin = SideSymbol(lam, math.pi / 2.0, math.sqrt(3.0 * lam))
    t1, t2 = mixed_mode_terms(mu(k, lam), lam, side_length)
    got = t1 - t2
    for branch in (k, lam / k):
        a, ab = ALPHA * branch, ALPHA_BAR * branch
        w = 1.5 * mu(branch, lam) * side_length
        want = np.exp(-w) * robin.hbar(a) * robin.h(ab) - np.exp(w) * robin.h(a) * robin.hbar(ab)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_array_inhom_matches_scalar_and_solve(geom, rng, lam):
    """The array cycle walk equals per-point calls and, at moderate |k|,
    the inhomogeneity of the plain 6x6 elimination."""
    _, problem = _mixed_problem(geom, lam)
    elim = ScaledElimination(problem)
    ks = np.concatenate([spectral_points(rng, 12), [40.0 - 25.0j, 0.02 + 0.01j]])
    got = np.asarray(elim.inhom(ks).to_complex())
    one_by_one = np.array([complex(elim.inhom(k).to_complex()) for k in ks])
    assert np.allclose(got, one_by_one, rtol=1e-12, atol=0.0)
    for k, val in zip(ks[:12], got):
        want = eliminate_second_side(problem, k).inhom
        assert abs(val - want) <= 1e-10 * abs(want)


def _mp_walk(coeffs, rhs):
    """acc and prod of the cycle walk over the rows (coeffs, rhs) in 40-digit
    arithmetic, each entry m e^sigma read exactly, per point."""
    def read(x, *index):
        return mpmath.mpc(complex(x.m[index])) * mpmath.exp(mpmath.mpf(float(x.sigma[index])))

    out = []
    for i in range(rhs.m.shape[-1]):
        acc, prod = mpmath.mpc(0), mpmath.mpc(1)
        for r, own, nxt in relations.ELIMINATION_CYCLE:
            c_own = read(coeffs, r, own, i)
            acc += prod * read(rhs, r, i) / c_own
            prod *= -read(coeffs, r, nxt, i) / c_own
        out.append((acc, prod))
    return out


def _mp_relative_error(got, want):
    return max(
        abs(mpmath.mpc(complex(got.m[i])) * mpmath.exp(mpmath.mpf(float(got.sigma[i]))) - w) / abs(w)
        for i, w in enumerate(want)
    )


@pytest.mark.parametrize("lam", [1e-4, 1e3])
def test_walk_matches_a_40_digit_walk_at_the_extremes(geom, lam):
    # on the last contour panel at T = 1280 (both rays) and at the roots of
    # modes 4999-5000 at count 5000 the rows' exponents reach |sigma| ~ 6000,
    # far beyond the double range: the inhomogeneity and the residues agree
    # with the same walk of the same rows in 40-digit arithmetic.  A double
    # exponent near |sigma| is exact only to eps |sigma| ~ 1e-12, which sets
    # the bound (worst seen: 4.3e-12 on the rays at lambda 1e3, 2.4e-13 at
    # the roots)
    problem = _mixed_problem(geom, lam)[1]
    samplers, elim = relations.ProblemSamplers(problem), ScaledElimination(problem)
    k_ray = poincare._ray_points(poincare._ray_grids(lam, 1.0, 1280.0)[2][-1], lam).ravel()
    roots = d_root_set(lam, 1.0, 5000, audit=False)
    k_root = roots.k[np.abs(roots.label) >= 4999]
    for k, got in ((k_ray, elim.inhom(k_ray)), (k_root, elim.residues(k_root))):
        coeffs, rhs = relations.relation_rows(samplers, k)
        dlog = relations.cycle_log_derivative(samplers, k)
        assert np.max(np.abs(coeffs.sigma)) > 1000.0
        with mpmath.workdps(40):
            walks = _mp_walk(coeffs, rhs)
            if k is k_ray:
                want = [acc / (1 - prod) for acc, prod in walks]
            else:
                want = [-acc / (prod * complex(d)) for (acc, prod), d in zip(walks, dlog)]
            assert _mp_relative_error(got, want) <= 1e-11


def test_mixed_nr_trace_makes_one_inhom_call(geom, monkeypatch):
    _, problem = _mixed_problem(geom)
    calls = []
    solve = ScaledElimination.inhom_and_residues

    def counted(self, k, poles, images=None):
        calls.append((np.shape(k), np.shape(poles), images is not None))
        return solve(self, k, poles, images)

    monkeypatch.setattr(ScaledElimination, "inhom_and_residues", counted)
    mixed_nr_trace(problem, count=8, t_factor=4.0)
    # one elimination: both rays (their 2 outer pieces of 4 panels of 16
    # nodes) and the 2 (2 count + 1) D+ roots and their negatives, imaged
    assert calls == [((2 * 4 * 16,), (2 * (2 * 8 + 1),), True)]


@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e3])
def test_one_elimination_equals_inhom_and_residues_alone(geom, lam, monkeypatch):
    # the ray values and residues of the one elimination of mixed_nr_trace,
    # and of the same call on the last panel at T = 1280 with the roots of
    # modes 999-1000, against inhom on the rays alone (same images) and
    # residues at the roots alone.  The rays agree to the bit; the residues
    # to 3.1e-14 at most (lambda 1e3, (64, 320)): summed beside the rays,
    # the roots' transforms come from even and odd degrees apart, 7e-16
    # from the plain sums, and the walk's terms cancel about 40-fold there
    problem = _mixed_problem(geom, lam)[1]
    elim, solve = ScaledElimination(problem), ScaledElimination.inhom_and_residues
    cases = []

    def captured(self, k, poles, images=None):
        cases.append((k, poles, solve(self, k, poles, images)))
        return cases[-1][-1]

    monkeypatch.setattr(ScaledElimination, "inhom_and_residues", captured)
    for count, t_factor in ((4, 4.0), (64, 320.0)):
        mixed_nr_trace(problem, count, t_factor)
        cases[-1] += (poincare._ray_grids(lam, 1.0, t_factor)[2].ravel(),)
    monkeypatch.undo()
    t = poincare._ray_grids(lam, 1.0, 1280.0)[2][-1]
    roots = d_root_set(lam, 1.0, 1000, audit=False)
    poles = roots.k[np.abs(roots.label) >= 999]
    k = poincare._ray_points(t, lam).ravel()
    images = poincare._contour_images(lam, t, (0, 1, 2), poles)
    cases.append((k, poles, elim.inhom_and_residues(k, poles, images), t))
    for k, poles, (x, res), t in cases:
        alone = elim.inhom(k, poincare._contour_images(lam, t, (0, 1, 2)))
        assert np.max(np.exp((x - alone).abs_log() - alone.abs_log())) <= 1e-14
        alone = elim.residues(poles)
        assert np.max(np.exp((res - alone).abs_log() - alone.abs_log())) <= 1e-13


def _circle_residues(elim, k, lam, nodes=128):
    """Residues of the inhomogeneity at the D-roots k by the trapezoid rule
    on circles clear of the neighbouring roots: the mode spacing 2 pi/(3 l)
    in mu, pulled back through dk/dmu = 1/(1 - lambda/k^2)."""
    pullback = np.abs(1.0 - lam / (k * k))
    radius = 0.3 * np.minimum(2.0 * np.pi / 3.0 / pullback, np.abs(k))
    offsets = np.multiply.outer(radius, np.exp(2j * np.pi * np.arange(nodes) / nodes))
    return scaled_sum(elim.inhom(k[:, None] + offsets) * offsets) / nodes


@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e3])
def test_closed_form_residues_match_a_128_node_circle(geom, lam):
    # at most 7e-13 (lambda 1e3), 5e-14 below
    elim = ScaledElimination(_mixed_problem(geom, lam)[1])
    k = d_root_set(lam, 1.0, 16).k
    got, want = elim.residues(k), _circle_residues(elim, k, lam)
    assert np.max(np.exp((got - want).abs_log() - want.abs_log())) <= 1e-11


def test_closed_form_residues_at_800_modes_stay_scaled(geom):
    # every 40th root and the D- roots of modes 797-800: the largest
    # residues overflow a complex (exponents up to 726); compared in Scaled,
    # 5.4e-12 at most
    elim = ScaledElimination(_mixed_problem(geom, 1.0)[1])
    k = d_root_set(1.0, 1.0, 800).k
    k = np.concatenate([k[::40], k[-4:]])
    got, want = elim.residues(k), _circle_residues(elim, k, 1.0)
    assert np.max(got.sigma) > 710.0
    assert np.max(np.exp((got - want).abs_log() - want.abs_log())) <= 1e-10


def test_mixed_nr_trace_refuses_a_residue_that_is_not_finite(geom, monkeypatch):
    solve = ScaledElimination.inhom_and_residues

    def one_nan(self, k, poles, images=None):
        x, res = solve(self, k, poles, images)
        return x, Scaled(np.where(np.arange(res.m.size) == 3, np.nan, res.m), res.sigma)

    monkeypatch.setattr(ScaledElimination, "inhom_and_residues", one_nan)
    with pytest.raises(AccuracyError, match="residue at k = .* not finite, lambda 1"):
        mixed_nr_trace(_mixed_problem(geom, 1.0)[1], count=4, t_factor=4.0)


@pytest.mark.parametrize("lam, bound", [(0.5, 1e-8), (1.0, 5e-10), (2.0, 1e-11)])
def test_mixed_nr_trace_near_the_centre(geom, lam, bound):
    # count 64, T 320 on |s| <= 0.3 l, relative to the largest exact value
    # there: 3.0e-9, 8.1e-11 and 1.0e-12; 32-node residue circles left
    # 1.3e-8, 6.6e-7 and 1.1e-8
    sol, problem = _mixed_problem(geom, lam)
    exact = all_traces(sol, geom)[0][1]
    s = np.linspace(-0.3, 0.3, 129)
    got = mixed_nr_trace(problem, count=64, t_factor=320.0).value(s)
    assert np.max(np.abs(got - exact(s))) <= bound * np.max(np.abs(exact(s)))


def _mixed_trace_error(geom, lam, count):
    """Largest error of ``mixed_nr_trace`` on |s| <= 0.45 l of a criterion-6
    field, relative to the largest datum or exact trace value on the side:
    at large lambda the fields span many decades along a side."""
    sol, problem = _mixed_problem(geom, lam)
    d, n = all_traces(sol, geom)
    trace = mixed_nr_trace(problem, count=count)
    side = np.linspace(-0.5, 0.5, 1001)
    scale = max(
        np.max(np.abs(f(side))) for f in (problem.side(1).data, n[1], n[2], d[1])
    )
    s = np.linspace(-0.45, 0.45, 129)
    return np.max(np.abs(trace.value(s) - d[1](s))) / scale


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 100.0, 1000.0])
def test_mixed_nr_trace_over_its_lambda_range(geom, lam):
    # criterion-6 fields at the CLI default count
    assert _mixed_trace_error(geom, lam, 64) <= 5e-4


def test_mixed_nr_trace_at_800_modes(geom):
    # residue terms whose exponents overflow a complex stay Scaled up to the
    # trace's coefficients, so many modes give the same error as a few
    assert _mixed_trace_error(geom, 1.0, 800) <= 5e-4


@pytest.mark.parametrize(
    "solver, lam, size",
    [
        ("symmetric", 0.0, 16),
        ("symmetric", 1.0, 16),
        ("symmetric", 5.0, 64),
        ("mixed", 1e-4, 4),
        ("mixed", 1.0, 64),
        ("mixed", 1.0, 800),
    ],
)
def test_free_piece_matches_its_scaled_form(geom, solver, lam, size):
    # each residue term summed as one complex exponential, against the same
    # terms formed and collapsed in Scaled arithmetic, on |s| <= 0.4 l and
    # relative to the free piece's largest value there; at 800 modes some
    # coefficients lie beyond the double range
    if solver == "symmetric":
        data = all_traces(symmetric_corner_compatible(max(lam, 0.5), 1.0), geom)[0][0]
        trace = symmetric_dirichlet_integral(data, lam, 1.0, n_max=size, t_factor=80.0)
    else:
        trace = mixed_nr_trace(_mixed_problem(geom, lam)[1], count=size, t_factor=40.0)
    assert (np.max(np.abs(trace.coeffs.sigma)) > 710.0) == (size == 800)
    free = dataclasses.replace(trace, weighted=np.zeros_like(trace.weighted))
    s = np.linspace(-0.4, 0.4, 129)
    for column in ("value", "derivative"):
        got = getattr(free, column)(s)
        want = scaled_free_piece(trace, s, derivative=column == "derivative")
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_free_piece_with_large_exponents_matches_a_40_digit_sum(geom):
    # at lambda l^2 = 1e3 the terms' exponents reach 225, each rounded to
    # about eps 225: the Scaled form errs by 1.3e-14 of the largest value
    # on |s| <= 0.4 l, the one exponential per term by 2.5e-15
    trace = mixed_nr_trace(_mixed_problem(geom, 1e3)[1], count=4, t_factor=40.0)
    free = dataclasses.replace(trace, weighted=np.zeros_like(trace.weighted))
    s = np.linspace(-0.4, 0.4, 129)
    terms = list(zip(trace.coeffs.m, trace.coeffs.sigma, trace.rates))
    assert max(sigma for _, sigma, _ in terms) > 190.0

    def exact(x, derivative):
        total = mpmath.mpf(0)
        for m, sigma, rate in terms:
            term = mpmath.mpc(m) * mpmath.exp(mpmath.mpf(sigma) - mpmath.mpf(x) * mpmath.mpc(rate))
            total += (-mpmath.mpc(rate) * term if derivative else term).real
        return float(total)

    with mpmath.workdps(40):
        for column in ("value", "derivative"):
            want = np.array([exact(x, column == "derivative") for x in s])
            got = getattr(free, column)(s)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_free_piece_refuses_a_term_beyond_the_double_range():
    # 0.5 e^{800 - s}: beyond the range at s = 0, 0.5 e^700 at s = 100
    coeffs = Scaled(np.full(1, 0.5 + 0j), np.full(1, 800.0))
    trace = ExponentialSumTrace(2, np.zeros(1), 1.0, np.zeros((1, 1)), np.ones(1), coeffs)
    with pytest.raises(OverflowError):
        trace.value(np.array([0.0, 100.0]))
    assert abs(trace.value(100.0) / (0.5 * math.exp(700.0)) - 1.0) <= 1e-13


@pytest.mark.parametrize("lam", [1e-5, 1e-6, 2e3, 1e6])
def test_mixed_nr_trace_refuses_lambda_outside_its_range(geom, lam):
    data = [expression_trace(text, j, 1.0) for j, text in enumerate(("1", "s", "0"), start=1)]
    problem = mixed_nr_problem(lam, geom, *data)
    with pytest.raises(AccuracyError, match="mixed Neumann-Robin trace.*certified range"):
        mixed_nr_trace(problem, count=8)


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


def test_mixed_nr_requires_a_normal_derivative_on_side_1(geom):
    # an oblique Poincare side 1 with the matching gamma: the mode roots are
    # those of beta = pi/2, so beta = 1.0 would err by 9e-2 without a word
    lam = 1.0
    sol, problem = _mixed_problem(geom, lam)
    from tridtn.problems import BCKind, ProblemSpec, SideCondition

    gamma = math.sqrt(3.0 * lam)
    for beta, raises in ((1.0, True), (math.pi / 2.0, False)):
        side1 = SideCondition(
            BCKind.POINCARE, poincare_trace(sol, geom, 1, beta, gamma), beta=beta, gamma=gamma
        )
        oblique = ProblemSpec(lam=lam, geometry=geom, sides=(side1,) + problem.sides[1:])
        if raises:
            with pytest.raises(ParameterError, match="beta = pi/2"):
                mixed_nr_trace(oblique, count=4, t_factor=4.0)
        else:
            mixed_nr_trace(oblique, count=4, t_factor=4.0)


@pytest.mark.parametrize(
    "solver, lam",
    [("symmetric", 0.0), ("symmetric", 1.0), ("mixed", 1.0)],
    ids=["0.0", "1.0", "mixed-1.0"],
)
def test_folded_contour_trace_matches_unfolded_sum(geom, solver, lam, rng, monkeypatch):
    # random integrand values on the two ray pieces that a solver evaluates;
    # its closed-form weights against the four-piece sum over the Fourier
    # nodes +-t, the inner pieces filled in by reflection (two half-covers,
    # each counted twice, at lambda = 0)
    captured = {}

    def random_values(k):
        captured["k"] = k = np.ravel(k)
        captured["values"] = rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape)
        return Scaled.of(captured["values"])

    if solver == "mixed":
        monkeypatch.setattr(
            ScaledElimination,
            "inhom_and_residues",
            lambda self, k, poles, images=None: (random_values(k), Scaled.of(np.ones(poles.size))),
        )
        trace = mixed_nr_trace(_mixed_problem(geom, lam)[1], count=2, t_factor=8.0)
        factor, reflect = 1.0 / (2.0 * np.pi), 1.0
    else:
        monkeypatch.setattr(poincare, "_symmetric_g", lambda f, k, lam, l: random_values(k))
        data = expression_trace(NON_EVEN, 1, 1.0)
        trace = symmetric_dirichlet_integral(data, lam, 1.0, n_max=4, t_factor=8.0)
        factor, reflect = -1j / (2.0 * np.pi), -1.0
    offsets, step, lattice, w, k = poincare._ray_grids(lam, 1.0, 8.0)
    assert np.array_equal(captured["k"][: k.size], k.ravel())
    values = captured["values"][: k.size]
    if solver == "symmetric":
        values = values / poincare._delta_scaled(k.ravel(), lam, 1.0).to_complex()
    up, down = values.reshape(k.shape)
    if lam > 0:
        pieces = [(1, up), (-1, reflect * up.conj()), (1, reflect * down.conj()), (-1, down)]
    else:
        pieces, factor = [(1, up), (-1, down)], 2.0 * factor
    t = np.concatenate([sign * lattice.ravel() for sign, _ in pieces])
    nodes = np.concatenate([(factor * w * v).ravel() for _, v in pieces])
    # the solver's contour weights beside two residues of our own
    rates = np.array([0.3 + 2.0j, -1.0 - 5.0j])
    coeffs = np.array([0.2 - 0.1j, 0.05j])
    folded = dataclasses.replace(trace, rates=rates, coeffs=Scaled.of(coeffs))
    assert folded.t.size == 8 * poincare.PANEL_ORDER
    assert folded.t.ravel()[0] >= 0.0 and np.all(np.diff(folded.t.ravel()) > 0.0)
    s = np.linspace(-0.5, 0.5, 41)
    waves = np.exp(1j * np.multiply.outer(s, t))
    residues = np.exp(-np.multiply.outer(s, rates))
    value = np.real(waves @ nodes + residues @ coeffs)
    derivative = np.real(waves @ (1j * t * nodes) - residues @ (rates * coeffs))
    assert np.max(np.abs(folded.value(s) - value)) <= 1e-13 * np.sum(np.abs(nodes))
    assert np.max(np.abs(folded.derivative(s) - derivative)) <= 1e-13 * np.sum(np.abs(t * nodes))


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_symmetric_integral_images_match_every_point(geom, lam, monkeypatch):
    # the transforms that symmetric_dirichlet_integral sums on its two base
    # families, unfolded to all six (rotation, piece) blocks and the roots,
    # against the sums at every point
    calls = []
    transforms = poincare.transforms

    def captured(samplers, k, images=None):
        calls.append((samplers, k, images))
        return transforms(samplers, k, images)

    monkeypatch.setattr(poincare, "transforms", captured)
    data = all_traces(symmetric_corner_compatible(max(lam, 0.5), 1.0), geom)[0][0]
    symmetric_dirichlet_integral(data, lam, 1.0, n_max=8, t_factor=8.0)
    ((samplers, k, (bases, blocks)),) = calls
    pieces, lattice = 2, 8 * poincare.PANEL_ORDER
    assert len(blocks) == 3 * pieces + 3
    # the ray points are summed at two lattice families, the roots at their own
    assert sum(map(len, bases)) == 2 * lattice + k.size - 3 * pieces * lattice
    got, want = transforms(samplers, k, (bases, blocks)), transforms(samplers, k)
    # relative at every point: 3.5e-12 at most, at the smallest values
    assert np.all(np.abs(((got - want) / want).to_complex()) <= 1e-11)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_mixed_images_match_every_point(geom, lam, monkeypatch):
    # the transforms of the one elimination of mixed_nr_trace, the rays
    # summed on their two families and the roots at their own, against the
    # sums at every point
    calls = []
    transforms = relations.transforms

    def captured(samplers, k, images=None):
        calls.append((samplers, k, images))
        return transforms(samplers, k, images)

    monkeypatch.setattr(relations, "transforms", captured)
    mixed_nr_trace(_mixed_problem(geom, lam)[1], count=4, t_factor=4.0)
    ((samplers, k, (bases, blocks)),) = calls
    # per rotation: the two ray pieces and the roots
    assert len(blocks) == 3 * (2 + 1)
    roots = 2 * 9
    assert sum(map(len, bases)) == 2 * 4 * poincare.PANEL_ORDER + 3 * roots
    assert k.shape == (3, 2 * 4 * poincare.PANEL_ORDER + roots)
    got, want = transforms(samplers, k, (bases, blocks)), transforms(samplers, k)
    assert np.all(np.abs(((got - want) / want).to_complex()) <= 1e-11)


def _general_mixed_problem(geom, lam):
    """A mixed Neumann-Robin problem on twelve plane waves mixed to be C^3
    at the corners, with no symmetry between the sides."""
    rng = np.random.default_rng(5)
    radii = rng.uniform(0.8, 1.6, size=12) * max(1.0, math.sqrt(lam))
    k0s = list(radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=12)))
    sol = corner_smooth_solution(lam, 1.0, k0s, smooth_order=3, rng=rng)
    neumann = all_traces(sol, geom)[1]
    robin = poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0 * lam))
    return mixed_nr_problem(lam, geom, robin, neumann[1], neumann[2])


@pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 30.0])
def test_mixed_inhomogeneity_reflects_onto_the_inner_pieces(geom, lam):
    # X(lambda/conj k) = conj X(k) on the outer ray pieces, which is how
    # mixed_nr_trace fills in the inner ones (at most 1.6e-13 per point)
    k = poincare._ray_grids(lam, 1.0, 8.0)[-1]
    elim = ScaledElimination(_general_mixed_problem(geom, lam))
    outer = elim.inhom(k).to_complex()
    inner = elim.inhom(lam / np.conj(k)).to_complex()
    assert np.max(np.abs(inner - np.conj(outer)) / np.abs(outer)) <= 1e-12


@pytest.mark.parametrize("lam", [0.5, 2.0, 30.0])
def test_symmetric_integrand_reflects_onto_the_inner_pieces(lam):
    # (G/Delta)(lambda/conj k) = -conj (G/Delta)(k) on data that are not
    # even (at most 3.6e-14 of the largest value), while the evenness
    # (G/Delta)(-k) = (G/Delta)(k) fails on them at O(1)
    sampler = SideSampler(expression_trace(NON_EVEN, 1, 1.0), Kind.PHI, lam, 1.0)
    k = poincare._ray_grids(lam, 1.0, 16.0)[-1].ravel()

    def g_over_delta(points):
        f = poincare.transforms([sampler], _rotations(points))[0]
        g = poincare._symmetric_g(f, points, lam, 1.0)
        return (g / poincare._delta_scaled(points, lam, 1.0)).to_complex()

    outer = g_over_delta(k)
    scale = np.max(np.abs(outer))
    assert np.max(np.abs(g_over_delta(lam / np.conj(k)) + np.conj(outer))) <= 1e-12 * scale
    assert np.max(np.abs(g_over_delta(-k) - outer)) >= 0.1 * scale


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 30.0])
def test_symmetric_integral_on_non_even_data(lam):
    # the out-down piece carries what the data's odd part adds: dropped, or
    # replaced by the out-up piece through evenness, the trace is off by 0.3
    # to 0.5 of its largest value.  These data are not corner-compatible, so
    # series and integral meet only to about 6e-3
    data = expression_trace(NON_EVEN, 1, 1.0)
    s = np.linspace(-0.35, 0.35, 29)
    want = symmetric_dirichlet_dtn(data, lam, 1.0, n_max=48).value(s)
    got = symmetric_dirichlet_integral(data, lam, 1.0, n_max=48, t_factor=80.0).value(s)
    assert np.max(np.abs(got - want)) <= 2e-2 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [1e-3, 0.5, 1.0, 2.0, 100.0])
def test_d_roots_of_plus_minus_m_are_exact_negatives(lam):
    # mixed_nr_trace takes the D- residues at the D+ roots negated
    roots = d_root_set(lam, 1.0, 16)
    upper, lower = roots.k[roots.plus], roots.k[~roots.plus]
    assert upper.size == lower.size
    assert set((-upper).tolist()) == set(lower.tolist())
    label = dict(zip(roots.k.tolist(), roots.label.tolist()))
    assert all(label[-k] == -label[k] for k in upper.tolist())


@pytest.mark.parametrize(
    "lam, count", [(1.0, 2000), (1.0, 5000), (1e3, 2000), (1e3, 5000), (1e-4, 4500), (0.1, 5000)]
)
def test_d_root_set_past_a_thousand_modes(lam, count):
    # each mode is carried as 2 pi m/(3 l) + delta, so its residual stays at
    # rounding (9.5e-16 at most); with the phase rounded by pi m eps it
    # exceeded the 1e-12 tolerance from count 1100 (lambda 1) and 1500 (1e3).
    # At small lambda the audit needs one doubling of its first 4 samples per
    # mode and edge, past MAX_WINDING_POINTS from count 4500
    roots = d_root_set(lam, 1.0, count)
    assert len(roots) == 2 * (2 * count + 1)
    assert np.max(roots.residual) <= 1e-14


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda data: symmetric_dirichlet_integral(data, 1.0, 1.0, t_factor=0.4), "t_factor"),
        (lambda data: symmetric_dirichlet_integral(data, math.nan, 1.0), "lambda"),
        (lambda data: symmetric_dirichlet_integral(data, 1.0, 1.0, n_max=-1), "n_max"),
        (lambda data: d_root_set(1.0, 1.0, -1), "count"),
    ],
    ids=["t_factor", "nan-lambda", "n_max", "count"],
)
def test_contour_solvers_check_their_parameters(call, name):
    data = expression_trace("cos(2*pi*s/l)", 1, 1.0)
    with pytest.raises(ParameterError, match=name):
        call(data)


@pytest.mark.parametrize("lam", [1e-35, 1e-40, 1e-100, 1e-200, 5e-324])
def test_symmetric_integral_at_tiny_lambda_matches_lambda_zero(lam):
    # the root pair k = +-i sqrt(lambda) divides a cancelled G by about
    # sqrt(3 lambda) l; below the resonance threshold the trace is that of
    # lambda = 0 (at lambda 1e-35 it was 7.9e16 times off)
    data = expression_trace("cos(2*pi*s/l)", 1, 1.0)
    s = np.linspace(-0.5, 0.5, 101)
    want = symmetric_dirichlet_integral(data, 0.0, 1.0, n_max=32, t_factor=80.0)
    got = symmetric_dirichlet_integral(data, lam, 1.0, n_max=32, t_factor=80.0)
    for column in ("value", "derivative"):
        exact = getattr(want, column)(s)
        assert np.max(np.abs(getattr(got, column)(s) - exact)) <= 1e-10 * np.max(np.abs(exact))
