import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from tridtn.errors import AccuracyError, DomainError, NonFiniteError, ParameterError
from tridtn.expressions import expression_trace
from tridtn.geometry import SIDE_ROT, TriangleGeometry
from tridtn.interior import (
    RAY_ARGS,
    RAY_KEEP_MARGIN,
    RAY_ORDER,
    SYMMETRIC_LAM_MIN,
    TraceSet,
    fokas_eval,
    greens_eval,
    ray_lattice,
    symmetric_interior,
)
from tridtn.oracle import ExpAtomSolution, all_traces, symmetric_corner_compatible
from tridtn.poincare import d_root_set, symmetric_dirichlet_integral
from tridtn.relations import GlobalRelation
from tridtn.series import general_dirichlet_dtn, neumann_to_dirichlet, symmetric_dirichlet_dtn
from tridtn.traces import BoundaryTrace

from conftest import manufactured_families


#: 0.104 l from sides 2 and 3 at once, on the axis through their vertex
NEAR_VERTEX = -0.37 + 0.0j


def interior_points(geom, rng, count, margin=0.1):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if geom.boundary_margin(z) >= margin * geom.side_length:
            out.append(z)
    return out


def test_evaluators_refuse_an_outside_point(geom):
    sol = manufactured_families(1.0)[0]
    traces = TraceSet(geom, *all_traces(sol, geom))
    data = expression_trace("cos(2*pi*s/l)", 1, geom.side_length)
    for evaluate in (
        lambda z: greens_eval(traces, 1.0, z),
        lambda z: fokas_eval(traces, 1.0, z),
        lambda z: symmetric_interior(data, 1.0, z, geom),
    ):
        assert math.isfinite(evaluate(0.05 + 0.02j))
        for z in (1.0 + 1.0j, complex(math.nan, 0.0)):
            with pytest.raises(DomainError, match="outside"):
                evaluate(z)
        # one point outside refuses the whole array
        with pytest.raises(DomainError, match="outside"):
            evaluate(np.array([0.05 + 0.02j, 1.01 * geom.side_point(2, 0.1)]))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_greens_eval_manufactured(lam, geom, rng):
    sol = manufactured_families(lam)[0]
    traces = TraceSet(geom, *all_traces(sol, geom))
    for z in interior_points(geom, rng, 6):
        got = greens_eval(traces, lam, z)
        assert abs(got - sol.q(z)) < 1e-9 * max(1.0, abs(sol.q(z)))


def test_greens_constant_identity(geom):
    # lam = 0, q = 1: the double-layer term must integrate to -2 pi exactly
    from tridtn.traces import BoundaryTrace

    traces = TraceSet(
        geometry=geom,
        dirichlet=tuple(BoundaryTrace.constant(j, 1.0) for j in (1, 2, 3)),
        neumann=tuple(BoundaryTrace.zero(j) for j in (1, 2, 3)),
    )
    assert abs(greens_eval(traces, 0.0, 0.03 - 0.04j) - 1.0) < 1e-12


def test_greens_margin_guard(geom):
    sol = manufactured_families(1.0)[0]
    traces = TraceSet(geom, *all_traces(sol, geom))
    z = geom.side_point(1, 0.0) - 1e-5 * geom.side_normal(1)
    with pytest.raises(AccuracyError):
        greens_eval(traces, 1.0, z)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_evaluators_take_arrays_of_points(lam, geom, rng):
    """An array of points gives what per-point calls give, in its shape;
    the margins span several panel counts of the Green's rule."""
    sol = manufactured_families(lam)[0]
    traces = TraceSet(geom, *all_traces(sol, geom))
    points = np.array(interior_points(geom, rng, 8, margin=0.04))
    evaluators = [(greens_eval, points)]
    if lam > 0.0:
        evaluators.append((fokas_eval, points[:4]))
        evaluators.append(
            (lambda ts, lam, z: symmetric_interior(ts.dirichlet[0], lam, z, geom, 16), points[:4])
        )
    for evaluate, pts in evaluators:
        single = [evaluate(traces, lam, z) for z in pts]
        assert all(type(v) is float for v in single)
        together = evaluate(traces, lam, pts.reshape(2, -1))
        assert together.shape == (2, pts.size // 2)
        assert np.max(np.abs(together.ravel() - single)) <= 1e-14 * np.max(np.abs(single))


def test_array_of_points_outside_rejected(geom):
    sol = manufactured_families(1.0)[0]
    traces = TraceSet(geom, *all_traces(sol, geom))
    with pytest.raises(DomainError, match="outside"):
        greens_eval(traces, 1.0, np.array([0.05 + 0.02j, 1.0 + 1.0j]))


def test_fokas_eval_manufactured(geom, rng):
    check_fokas_eval(1.0, geom, rng)


@pytest.mark.parametrize("lam", [1e-2, 1e-4])
def test_fokas_eval_at_small_lambda(lam, geom, rng):
    """Below sqrt(lambda) the rays are resolved as finely, in lambda/r, as
    above it."""
    check_fokas_eval(lam, geom, rng)


def check_fokas_eval(lam, geom, rng):
    for sol in manufactured_families(lam)[:2]:
        traces = TraceSet(geom, *all_traces(sol, geom))
        for z in interior_points(geom, rng, 4) + [NEAR_VERTEX]:
            got = fokas_eval(traces, lam, z)
            assert abs(got - sol.q(z)) < 1e-6 * max(1.0, abs(sol.q(z)))


def test_fokas_rejects_lambda_zero(geom):
    sol = manufactured_families(0.0)[0]
    traces = TraceSet(geom, *all_traces(sol, geom))
    with pytest.raises(ParameterError):
        fokas_eval(traces, 0.0, 0.0 + 0.0j)


#: each public entry that takes lambda, called at lambda = lam on the data f
LAMBDA_ENTRIES = {
    "greens_eval": lambda f, lam: greens_eval(TraceSet(TriangleGeometry(), (f,) * 3, (f,) * 3),
                                              lam, 0.1j),
    "fokas_eval": lambda f, lam: fokas_eval(TraceSet(TriangleGeometry(), (f,) * 3, (f,) * 3),
                                            lam, 0.1j),
    "symmetric_interior": lambda f, lam: symmetric_interior(f, lam, 0.1j),
    "symmetric_dirichlet_dtn": lambda f, lam: symmetric_dirichlet_dtn(f, lam, 1.0),
    "general_dirichlet_dtn": lambda f, lam: general_dirichlet_dtn((f,) * 3, lam, 1.0),
    "neumann_to_dirichlet": lambda f, lam: neumann_to_dirichlet((f,) * 3, lam, 1.0),
    "symmetric_dirichlet_integral": lambda f, lam: symmetric_dirichlet_integral(f, lam, 1.0),
    "d_root_set": lambda f, lam: d_root_set(lam, 1.0, 4),
    "GlobalRelation": lambda f, lam: GlobalRelation((f,) * 3, (f,) * 3, lam, 1.0),
}


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(LAMBDA_ENTRIES))
def test_lambda_outside_the_domain_is_a_parameter_error(entry, lam):
    # not the Laplace value (greens_eval at -1 or NaN), a NaN or a failure
    # deeper down: the one message that ProblemSpec gives too
    f = expression_trace("cos(2*pi*s/l)", 1, 1.0)
    with pytest.raises(ParameterError, match=rf"^lambda must be finite and >=? 0, got {lam}$"):
        LAMBDA_ENTRIES[entry](f, lam)


def test_symmetric_interior_manufactured(geom, rng):
    check_symmetric_interior(1.0, geom, rng)


@pytest.mark.parametrize("lam", [0.1, 5.0])
def test_symmetric_interior_off_unit_lambda(lam, geom, rng):
    check_symmetric_interior(lam, geom, rng)


def check_symmetric_interior(lam, geom, rng):
    sol = symmetric_corner_compatible(lam, 1.0)
    d, _ = all_traces(sol, geom)
    for z in interior_points(geom, rng, 4) + [NEAR_VERTEX]:
        got = symmetric_interior(d[0], lam, z, geometry=geom, n_max=48)
        assert abs(got - sol.q(z)) < 1e-5 * max(1.0, abs(sol.q(z)))


def test_symmetric_interior_default_order_near_side(geom):
    """At 0.1 l from side 1 the default ray panels still meet 1e-5."""
    lam = 1.0
    sol = symmetric_corner_compatible(lam, 1.0)
    d, _ = all_traces(sol, geom)
    for z in (geom.inradius - 0.1 + 0.2j, geom.inradius - 0.1 - 0.2j):
        got = symmetric_interior(d[0], lam, z, geometry=geom, n_max=48)
        assert abs(got - sol.q(z)) < 1e-5 * max(1.0, abs(sol.q(z)))


@pytest.mark.parametrize("lam", [1e-20, 1e-22, 1e-30])
def test_symmetric_interior_near_lambda_zero(lam, geom):
    """Below the resonance threshold the mode roots drop the m = 0 pair
    +-i sqrt(lam), as the series maps do, and the field stays at rounding."""
    sol = ExpAtomSolution.plane_wave(lam, 2.0 + 0.3j).symmetrized()
    d, _ = all_traces(sol, geom)
    z = np.array([0.05 + 0.1j, -0.1 - 0.05j, 0.0, NEAR_VERTEX])
    got = symmetric_interior(d[0], lam, z, geometry=geom, n_max=48)
    exact = sol.q(z)
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) < 1e-12


def test_symmetric_interior_rejects_lambda_below_its_range(geom):
    sol = ExpAtomSolution.plane_wave(1e-40, 2.0 + 0.3j).symmetrized()
    d, _ = all_traces(sol, geom)
    for lam in (1e-40, 0.5 * SYMMETRIC_LAM_MIN):
        with pytest.raises(AccuracyError, match=r"below lambda l\^2"):
            symmetric_interior(d[0], lam, 0.1j, geometry=geom, n_max=48)


def test_ray_lattice_covers_truncation():
    """Both halves, rho and lam/rho, integrate dr/r out to the last edge R and
    in to lam/R; a shorter reach reads a prefix of the panels."""
    for lam in (1e-4, 1.0, 30.0):
        root = math.sqrt(lam)
        edges, r, w = ray_lattice(lam, 1.0, 30.0)
        assert edges[0] == root and edges[-2] < 30.0 <= edges[-1]
        assert np.all(r[0] > root) and np.allclose(r[0] * r[1], lam, rtol=1e-15)
        total = np.sum(np.broadcast_to(w, r.shape))
        assert abs(total - 2.0 * math.log(edges[-1] / root)) < 1e-13 * total
        short_edges, short_r, short_w = ray_lattice(lam, 1.0, 7.0)
        panels = short_w.shape[0]
        assert np.array_equal(short_edges, edges[: panels + 1])
        assert np.array_equal(short_r, r[:, :panels]) and np.array_equal(short_w, w[:panels])
    # at least one panel when sqrt(lam) passes the reach
    assert ray_lattice(100.0, 1.0, 1.0)[2].shape[0] == 1
    # ray 2 points at pi/6, and every ray reads its side's transforms at -i r
    assert abs(cmath.phase(cmath.exp(1j * RAY_ARGS[1])) - math.pi / 6.0) < 1e-15
    for j in (1, 2, 3):
        assert abs(SIDE_ROT[j] * cmath.exp(1j * RAY_ARGS[j - 1]) + 1j) < 1e-15


# -- spectra kept on the trace objects -------------------------------------
def stratified_points(geom, rng, count):
    """``count`` points whose margins are drawn within equal strata between
    0.1 l and 0.95 of the inradius, each on the level curve of its margin."""
    strata = np.linspace(0.1 * geom.side_length, 0.95 * geom.inradius, count + 1)
    rho = geom.inradius - rng.uniform(strata[:-1], strata[1:])
    s = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), count) * rho
    rot = np.array(SIDE_ROT[1:])[rng.integers(0, 3, count)]
    return (rho + 1j * s) * rot


def reach_orders(geom, rng, points):
    """The points by increasing reach (decreasing margin), by decreasing
    reach and shuffled."""
    increasing = points[np.argsort(-geom.boundary_margin(points))]
    return increasing, increasing[::-1], rng.permutation(points)


def nan_trace(side):
    return BoundaryTrace(
        side=side, value=lambda s: np.full(np.shape(s), np.nan), derivative=np.zeros_like
    )


@pytest.mark.parametrize("lam", [1e-3, 0.3, 1.0, 30.0])
def test_fokas_eval_warm_equals_cold(lam, geom, rng):
    d, n = all_traces(manufactured_families(lam)[0], geom)
    points = stratified_points(geom, rng, 8)
    cold = {z: fokas_eval(TraceSet(geom, d, n), lam, z) for z in points}
    for run in reach_orders(geom, rng, points):
        traces = TraceSet(geom, d, n)
        assert [fokas_eval(traces, lam, z) for z in run] == [cold[z] for z in run]
        assert list(traces.spectra) == [(lam, 1.0, RAY_ORDER)]


@pytest.mark.parametrize("lam", [1e-3, 0.3, 1.0, 30.0])
def test_symmetric_interior_warm_equals_cold(lam, geom, rng):
    data = all_traces(symmetric_corner_compatible(lam, 1.0), geom)[0][0]
    points = stratified_points(geom, rng, 8)
    cold = {z: symmetric_interior(replace(data), lam, z, geom, n_max=16) for z in points}
    for run in reach_orders(geom, rng, points):
        f = replace(data)
        assert [symmetric_interior(f, lam, z, geom, n_max=16) for z in run] == [
            cold[z] for z in run
        ]
        assert list(f.spectra) == [(lam, 1.0, RAY_ORDER, 16)]


def test_a_new_key_replaces_the_kept_spectrum(geom, rng):
    """A change of lam, side length, n_max or order builds the spectrum
    anew, and the object keeps only the latest."""
    d, n = all_traces(manufactured_families(1.0)[0], geom)
    traces = TraceSet(geom, d, n)
    points = stratified_points(geom, rng, 2)
    for lam in (0.5, 1.0, 0.5):
        for z in points:
            assert fokas_eval(traces, lam, z) == fokas_eval(TraceSet(geom, d, n), lam, z)
    assert list(traces.spectra) == [(0.5, 1.0, RAY_ORDER)]
    data = d[0]
    calls = [(16, 16, 1.0), (48, 16, 1.0), (16, 24, 1.0), (16, 16, 2.0), (16, 16, 1.0)]
    for n_max, order, side_length in calls:
        big = TriangleGeometry(side_length)
        for z in points * side_length:
            warm = symmetric_interior(data, 1.0, z, big, n_max, order)
            assert warm == symmetric_interior(replace(data), 1.0, z, big, n_max, order)
    assert list(data.spectra) == [(1.0, 1.0, 16, 16)]


def test_a_failed_ray_call_stores_nothing(geom, rng):
    nan = TraceSet(geom, tuple(nan_trace(j) for j in (1, 2, 3)), (nan_trace(1),) * 3)
    for _ in range(2):
        with pytest.raises(NonFiniteError):
            fokas_eval(nan, 1.0, 0.1j)
        with pytest.raises(NonFiniteError):
            symmetric_interior(nan.dirichlet[0], 1.0, 0.1j, geom)
    assert not nan.spectra and not nan.dirichlet[0].spectra

    d, n = all_traces(manufactured_families(1.0)[0], geom)
    traces = TraceSet(geom, d, n)
    points = reach_orders(geom, rng, stratified_points(geom, rng, 6))[0]
    for z in points:  # growing reach: each call replaces the one spectrum
        fokas_eval(traces, 1.0, z)
        symmetric_interior(d[0], 1.0, z, geom, n_max=16)
    stored = [dict(traces.spectra), dict(d[0].spectra)]
    assert [len(spectra) for spectra in stored] == [1, 1]
    for args, error in (((1.0, 1.0 + 1.0j), DomainError), ((0.0, 0.1j), ParameterError)):
        with pytest.raises(error):
            fokas_eval(traces, *args)
        with pytest.raises(error):
            symmetric_interior(d[0], *args, geom)
    for spectra, before in zip((traces.spectra, d[0].spectra), stored):
        assert spectra.keys() == before.keys()
        assert all(spectra[key] is before[key] for key in before)


def test_a_point_near_a_side_keeps_no_lattice(geom, rng):
    """A point within RAY_KEEP_MARGIN l of a side gets the value of a cold
    call, and its long lattice is not kept: the kept spectrum stays as it
    was, and a fresh object keeps none."""
    d, n = all_traces(manufactured_families(1.0)[0], geom)
    near = (geom.inradius - 0.5 * RAY_KEEP_MARGIN * geom.side_length) * SIDE_ROT[2]
    traces, data = TraceSet(geom, d, n), replace(d[0])
    fokas_eval(traces, 1.0, 0.1j)
    symmetric_interior(data, 1.0, 0.1j, geom, n_max=16)
    kept = [dict(traces.spectra), dict(data.spectra)]
    cold = TraceSet(geom, d, n), replace(d[0])
    assert fokas_eval(traces, 1.0, near) == fokas_eval(cold[0], 1.0, near)
    assert symmetric_interior(data, 1.0, near, geom, n_max=16) == symmetric_interior(
        cold[1], 1.0, near, geom, n_max=16
    )
    assert not cold[0].spectra and not cold[1].spectra
    for spectra, before in zip((traces.spectra, data.spectra), kept):
        assert spectra.keys() == before.keys()
        assert all(spectra[key] is before[key] for key in before)
