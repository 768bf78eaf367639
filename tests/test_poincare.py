import cmath
import math

import mpmath
import numpy as np
import pytest

from tridtn.errors import AccuracyError, DomainError, ParameterError, RootFindError
from tridtn.expressions import expression_trace
from tridtn.geometry import ALPHA, ALPHA_BAR, mu
from tridtn.oracle import all_traces, poincare_trace, symmetric_corner_compatible
import tridtn.poincare as poincare
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

    def counted(self, k):
        calls.append(np.shape(k))
        return inhom(self, k)

    monkeypatch.setattr(ScaledElimination, "inhom", counted)
    mixed_nr_trace(problem, count=8, t_factor=4.0)
    # both rays (4 pieces of 4 panels of 16 nodes) and every residue circle
    assert calls == [(4 * 4 * 16 + 34 * 32,)]


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


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_folded_contour_trace_matches_unfolded_sum(lam, rng):
    offsets, step, _, k, signs, _ = poincare._ray_grids(
        lam, 1.0, poincare.T_FACTOR, poincare.PANEL_ORDER
    )
    lattice = offsets + step * np.arange(k.shape[1])[:, None]
    # the Fourier node sign * t of every node of every ray piece
    t = (signs[:, None, None] * lattice).ravel()
    assert t.size == (1280 if lam == 0.0 else 2560)
    nodes = rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape)
    w = nodes.ravel()
    rates = np.array([0.3 + 2.0j, -1.0 - 5.0j])
    coeffs = np.array([0.2 - 0.1j, 0.05j])
    folded = poincare._folded(nodes, signs)
    trace = ContourResidueTrace(1, offsets, step, folded, rates, Scaled.of(coeffs))
    assert trace.t.size == 640
    assert trace.t.ravel()[0] >= 0.0 and np.all(np.diff(trace.t.ravel()) > 0.0)
    s = np.linspace(-0.5, 0.5, 41)
    waves = np.exp(1j * np.multiply.outer(s, t))
    residues = np.exp(-np.multiply.outer(s, rates))
    value = np.real(waves @ w + residues @ coeffs)
    derivative = np.real(waves @ (1j * t * w) - residues @ (rates * coeffs))
    assert np.max(np.abs(trace.value(s) - value)) <= 1e-13 * np.sum(np.abs(w))
    assert np.max(np.abs(trace.derivative(s) - derivative)) <= 1e-13 * np.sum(np.abs(t * w))


def _extended_lattice_sums(trace, s):
    """sum_{p,j} (i t)^q weighted[p, j] e^{i t s} over the lattice
    t = offsets[j] + p step, for q = 0 and 1, summed in np.clongdouble from
    the double s, offsets, step and weights."""
    ld = np.longdouble
    t = trace.offsets.astype(ld) + ld(trace.step) * np.arange(len(trace.weighted), dtype=ld)[:, None]
    kappa = 1j * t.ravel()
    terms = np.exp(np.multiply.outer(np.asarray(s, dtype=ld), kappa))
    weights = trace.weighted.ravel().astype(np.clongdouble)
    return terms @ weights, terms @ (kappa * weights)


@pytest.mark.parametrize("t_factor", [40.0, 1280.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_contour_evaluation_matches_extended_precision(geom, lam, t_factor):
    # value and derivative of the contour part of a solver trace against the
    # same lattice sum in np.clongdouble, within 1e-14 of the largest
    # reference value on the side
    data = all_traces(symmetric_corner_compatible(lam, 1.0), geom)[0][0]
    solved = symmetric_dirichlet_integral(data, lam, 1.0, n_max=16, t_factor=t_factor)
    assert solved.weighted.shape == (int(t_factor), poincare.PANEL_ORDER)
    trace = ContourResidueTrace(
        1, solved.offsets, solved.step, solved.weighted, np.zeros(0), Scaled.of(np.zeros(0))
    )
    side = np.linspace(-0.5, 0.5, 65)
    grid = np.random.default_rng(7).uniform(-0.5, 0.5, size=(4, 8))
    points = (0.5, -0.37, side, grid)
    references = []
    for s in points:
        total, slope = _extended_lattice_sums(trace, s)
        references.append({"value": total.real, "derivative": slope.real})
    for name, on_side in references[2].items():
        scale = np.max(np.abs(on_side))
        for s, reference in zip(points, references):
            got = getattr(trace, name)(s)
            if np.ndim(s):
                assert isinstance(got, np.ndarray) and got.shape == np.shape(s)
            else:
                assert type(got) is float
            err = np.max(np.abs(got - reference[name]))
            assert err <= 1e-14 * scale, (name, np.shape(s), float(err / scale))


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_symmetric_integral_images_match_every_point(geom, lam, monkeypatch):
    # the transforms that symmetric_dirichlet_integral sums on its two base
    # families, unfolded to all twelve (rotation, piece) blocks (six at
    # lambda = 0) and the roots, against the sums at every point
    calls = []
    transforms = poincare.transforms

    def captured(samplers, k, images=None):
        calls.append((samplers, k, images))
        return transforms(samplers, k, images)

    monkeypatch.setattr(poincare, "transforms", captured)
    data = all_traces(symmetric_corner_compatible(max(lam, 0.5), 1.0), geom)[0][0]
    symmetric_dirichlet_integral(data, lam, 1.0, n_max=8, t_factor=8.0)
    ((samplers, k, (bases, blocks)),) = calls
    pieces, lattice = (4 if lam > 0 else 2), 8 * poincare.PANEL_ORDER
    assert len(blocks) == 3 * pieces + 3
    # the ray points are summed at two lattice families, the roots at their own
    assert sum(map(len, bases)) == 2 * lattice + k.size - 3 * pieces * lattice
    got, want = transforms(samplers, k, (bases, blocks)), transforms(samplers, k)
    # relative at every point: 3.5e-12 at most, at the smallest values
    assert np.all(np.abs(((got - want) / want).to_complex()) <= 1e-11)


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
