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
    closed_form_elimination,
    d_root_set,
    dirichlet_mode_roots,
    in_upper_half,
    mixed_mode_terms,
    mixed_nr_trace,
    ray_radius,
    residue_circles,
    residue_of_inhomogeneity,
    root_circle_radius,
    symmetric_dirichlet_integral,
)
from tridtn.problems import mixed_nr_problem
from tridtn.relations import eliminate_second_side
from tridtn.scaledc import Scaled
from tridtn.series import _rotations, symmetric_dirichlet_dtn
from tridtn.spectral import Kind, SideSampler
from tridtn.symbols import SideSymbol

from conftest import spectral_points

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
    def nan_terms(mu_value, lam, side_length):
        return Scaled.of(mu_value * np.nan), Scaled.of(mu_value)

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
    got = (t1 - t2).to_complex()
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


def test_mixed_nr_trace_makes_one_inhom_call(geom, monkeypatch):
    _, problem = _mixed_problem(geom)
    calls = []
    inhom = ScaledElimination.inhom

    def counted(self, k, images=None):
        calls.append(np.shape(k))
        return inhom(self, k, images)

    monkeypatch.setattr(ScaledElimination, "inhom", counted)
    mixed_nr_trace(problem, count=8, t_factor=4.0)
    # both rays (their 2 outer pieces of 4 panels of 16 nodes) and every
    # residue circle
    assert calls == [(2 * 4 * 16 + 34 * 32,)]


def test_array_residues_match_per_root_trapezoid(geom):
    _, problem = _mixed_problem(geom)
    elim = ScaledElimination(problem)
    k = d_root_set(1.0, 1.0, 6).k
    radius = root_circle_radius(k, 1.0, 1.0)
    offsets = residue_circles(radius)
    got = residue_of_inhomogeneity(elim.inhom(k[:, None] + offsets), offsets).to_complex()
    nodes = 32
    for k0, r, val in zip(k, radius, got):
        offsets = r * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        want = np.sum(elim.inhom(k0 + offsets).to_complex() * offsets) / nodes
        assert abs(val - want) <= 1e-13 * abs(want)


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
        monkeypatch.setattr(ScaledElimination, "inhom", lambda self, k, images=None: random_values(k))
        trace = mixed_nr_trace(_mixed_problem(geom, lam)[1], count=2, t_factor=8.0)
        factor, reflect = 1.0 / (2.0 * np.pi), 1.0
    else:
        monkeypatch.setattr(poincare, "_symmetric_g", lambda f, k, lam, l: random_values(k))
        data = expression_trace(NON_EVEN, 1, 1.0)
        trace = symmetric_dirichlet_integral(data, lam, 1.0, n_max=4, t_factor=8.0)
        factor, reflect = -1j / (2.0 * np.pi), -1.0
    offsets, step, lattice, w, k = poincare._ray_grids(lam, 1.0, 8.0, poincare.PANEL_ORDER)
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
    # the transforms of the one elimination of mixed_nr_trace, summed on the
    # two ray families and the D+ residue circles and unfolded to the D-
    # circles, against the sums at every point
    calls = []
    transforms = relations.transforms

    def captured(samplers, k, images=None):
        calls.append((samplers, k, images))
        return transforms(samplers, k, images)

    monkeypatch.setattr(relations, "transforms", captured)
    mixed_nr_trace(_mixed_problem(geom, lam)[1], count=4, t_factor=4.0)
    ((samplers, k, (bases, blocks)),) = calls
    # per rotation: two ray pieces, the D+ circles and their negatives
    assert len(blocks) == 3 * 4
    assert sum(map(len, bases)) == 2 * 4 * poincare.PANEL_ORDER + 3 * 9 * poincare.CIRCLE_NODES
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
    k = poincare._ray_grids(lam, 1.0, 8.0, poincare.PANEL_ORDER)[-1]
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
    k = poincare._ray_grids(lam, 1.0, 16.0, poincare.PANEL_ORDER)[-1].ravel()

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
    # mixed_nr_trace reads the D- residue circles as images of the D+ ones
    roots = d_root_set(lam, 1.0, 16)
    upper, lower = roots.k[roots.plus], roots.k[~roots.plus]
    assert upper.size == lower.size
    assert set((-upper).tolist()) == set(lower.tolist())
    label = dict(zip(roots.k.tolist(), roots.label.tolist()))
    assert all(label[-k] == -label[k] for k in upper.tolist())


def test_residue_circles_are_antisymmetric():
    radius = np.array([0.3, 1e-3, 7.0])
    offsets = residue_circles(radius)
    half = poincare.CIRCLE_NODES // 2
    assert offsets.shape == (3, 2 * half)
    assert np.array_equal(offsets[:, half:], -offsets[:, :half])
    turns = np.exp(2j * np.pi * np.arange(2 * half) / (2 * half))
    assert np.all(np.abs(offsets - np.multiply.outer(radius, turns)) <= 1e-15 * radius[:, None])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda data: symmetric_dirichlet_integral(data, 1.0, 1.0, t_factor=0.4), "t_factor"),
        (lambda data: symmetric_dirichlet_integral(data, 1.0, 1.0, order=0), "order"),
        (lambda data: symmetric_dirichlet_integral(data, math.nan, 1.0), "lambda"),
        (lambda data: symmetric_dirichlet_integral(data, 1.0, 1.0, n_max=-1), "n_max"),
        (lambda data: d_root_set(1.0, 1.0, -1), "count"),
    ],
    ids=["t_factor", "order", "nan-lambda", "n_max", "count"],
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
