import dataclasses

import numpy as np
import pytest

import tridtn.series as series
from tridtn.errors import ParameterError, SolvabilityError
from tridtn.geometry import ALPHA_BAR, SQRT3, TriangleGeometry, mu
from tridtn.oracle import all_traces, poincare_trace, symmetric_corner_compatible
from tridtn.poincare import PANEL_ORDER, symmetric_dirichlet_integral
from tridtn.problems import BCKind, ProblemSpec, SideCondition, dirichlet_problem
from tridtn.series import (
    general_dirichlet_dtn,
    neumann_to_dirichlet,
    quadratic_mode_root,
    robin_moment,
    symmetric_dirichlet_dtn,
)
from tridtn.spectral import Kind, SideSampler
from tridtn.scaledc import Scaled
from tridtn.traces import BoundaryTrace, ExponentialSumTrace, sample_grid

from conftest import manufactured_families


SMOOTH_K0S = [0.9 + 0.3j, 1.4 - 0.5j, 0.7 + 1.1j, 1.9 + 0.2j, 0.5 - 0.9j,
              1.1 + 0.8j, 1.6 - 0.2j, 0.4 + 1.5j, 2.1 - 0.7j, 0.8 + 0.1j,
              1.2 + 1.2j, 1.8 + 0.6j]


def margin_grid(n=101, margin=0.02):
    return np.linspace(-0.5 + margin, 0.5 - margin, n)


def test_quadratic_mode_root_branch():
    lam = 2.0
    k = quadratic_mode_root(2j * np.pi * 3, lam)
    assert abs(k + lam / k - 2j * np.pi * 3) < 1e-12
    assert abs(k) >= np.sqrt(lam) - 1e-12
    with pytest.raises(ParameterError):
        quadratic_mode_root(0.0, 0.0)


def _scalar_mode_root(mu_value, lam):
    """The per-point rule the array version replaced, kept as the reference."""
    disc = np.sqrt(complex(mu_value) ** 2 - 4.0 * lam + 0j)
    k1 = 0.5 * (mu_value + disc)
    k2 = 0.5 * (mu_value - disc)
    return max(k1, k2, key=lambda k: (abs(k), k.real, k.imag))


def test_quadratic_mode_root_array_matches_scalar_rule():
    for lam in (0.0, 0.7, 2.0):
        # the mode grid of the series maps (mu = 0 only where k != 0) and
        # real mu with |mu| < 2 sqrt(lam), where |k1| = |k2| and Re k1 =
        # Re k2, so the tie-break on Im k decides
        mus = 2j * np.pi * np.arange(-12, 13) / 3.0
        mus = np.concatenate([mus[mus != 0] if lam == 0.0 else mus, np.linspace(-1.0, 1.0, 8)])
        got = quadratic_mode_root(mus, lam)
        want = np.array([_scalar_mode_root(m, lam) for m in mus])
        assert np.array_equal(got, want)
    # at mu = 0 the root is +i sqrt(lambda), for arrays and scalars alike
    assert quadratic_mode_root(np.zeros(2, dtype=complex), 2.0)[1] == 1j * np.sqrt(2.0)
    assert quadratic_mode_root(0.0, 2.0) == 1j * np.sqrt(2.0)
    # general complex mu: the same branch, up to the rounding of mu^2
    rng = np.random.default_rng(5)
    mus = 4.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    got = quadratic_mode_root(mus, 1.3)
    want = np.array([_scalar_mode_root(m, 1.3) for m in mus])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    with pytest.raises(ParameterError):
        quadratic_mode_root(np.array([1j, 0.0]), 0.0)


@pytest.mark.parametrize("lam", [0.0, 1e-20, 1e-8, 1e-3, 1.0, 13.16, 1e4, 1e6])
def test_outer_root_rate_keeps_mode_denominators_away_from_zero(lam):
    # Re mu(alpha_bar k) = sign(y) (sqrt(3)/2) sqrt(y^2 + 4 lambda) at the
    # outer root k of k + lambda/k = iy (+ at y = 0): the series maps need no
    # resonance guard, as their denominators are bounded below by it
    m = np.arange(-300, 301)
    for side_length in (1e-3, 1.0, 1e3):
        y = 2.0 * np.pi * m[(m != 0) | (lam > 0.0)] / (3.0 * side_length)
        k = quadratic_mode_root(1j * y, lam)
        want = np.where(y < 0.0, -1.0, 1.0) * (0.5 * SQRT3) * np.sqrt(y * y + 4.0 * lam)
        assert np.all(np.abs(mu(ALPHA_BAR * k, lam).real - want) <= 1e-14 * np.abs(want))


def test_symmetric_dirichlet_corner_compatible(geom):
    lam = 1.0
    sol = symmetric_corner_compatible(lam, 1.0)
    d, n = all_traces(sol, geom)
    qn = symmetric_dirichlet_dtn(d[0], lam, 1.0, n_max=64)
    s = margin_grid()
    err = np.max(np.abs(qn.value(s) - n[0](s)))
    assert err < 1e-6
    assert qn.imbalance < 1e-8


def test_symmetric_generic_rate_is_algebraic(geom):
    """Generic symmetric data has corner derivative jumps; the series then
    converges only algebraically.  This pins the limitation so it stays
    visible (the corner-compatible builder is what restores fast decay)."""
    from tridtn.oracle import ExpAtomSolution

    lam = 1.0
    sol = ExpAtomSolution.plane_wave(lam, 0.8j).symmetrized()
    d, n = all_traces(sol, geom)
    s = margin_grid()
    errs = []
    for n_max in (16, 32, 64):
        qn = symmetric_dirichlet_dtn(d[0], lam, 1.0, n_max=n_max)
        errs.append(np.max(np.abs(qn.value(s) - n[0](s))))
    # roughly 1/N^2: each doubling gains about a factor four, not hundreds
    assert errs[2] > 1e-9
    assert errs[0] / errs[2] < 64.0


def _largest(traces, s):
    """The largest |value| of the three exact traces on the grid: the
    corner-smooth traces at lambda = 1 are only 2e-7 to 2e-6 in size, so
    errors are bounded relative to it."""
    return max(np.max(np.abs(t(s))) for t in traces)


@pytest.mark.parametrize("lam", [1.0])
def test_general_dirichlet_round_trip(lam, geom):
    from tridtn.oracle import corner_smooth_solution

    sol = corner_smooth_solution(lam, 1.0, SMOOTH_K0S, smooth_order=3)
    d, n = all_traces(sol, geom)
    s = margin_grid()
    qn = general_dirichlet_dtn(d, lam, 1.0, m_max=96)
    for j in range(3):
        assert np.max(np.abs(qn[j].value(s) - n[j](s))) < 1e-6 * _largest(n, s)
    back = neumann_to_dirichlet(qn, lam, 1.0, m_max=96)
    for j in range(3):
        assert np.max(np.abs(back[j].value(s) - d[j](s))) < 1e-5 * _largest(d, s)


def test_neumann_to_dirichlet_direct(geom):
    from tridtn.oracle import corner_smooth_solution

    lam = 1.0
    sol = corner_smooth_solution(lam, 1.0, SMOOTH_K0S, smooth_order=3)
    d, n = all_traces(sol, geom)
    qd = neumann_to_dirichlet(n, lam, 1.0, m_max=96)
    s = margin_grid()
    for j in range(3):
        assert np.max(np.abs(qd[j].value(s) - d[j](s))) < 1e-6 * _largest(d, s)


def test_lambda_zero_flux_compatibility(geom):
    bad = tuple(BoundaryTrace.constant(j, 1.0) for j in (1, 2, 3))
    with pytest.raises(SolvabilityError):
        neumann_to_dirichlet(bad, 0.0, 1.0, m_max=8)


def test_lambda_zero_gauge(geom):
    """lam = 0 Neumann data of an exact harmonic field: the recovered
    Dirichlet trace matches up to one shared constant."""
    from tridtn.oracle import corner_smooth_solution

    rng = np.random.default_rng(7)
    sol = corner_smooth_solution(0.0, 1.0, SMOOTH_K0S, smooth_order=3, rng=rng)
    d, n = all_traces(sol, geom)
    qd = neumann_to_dirichlet(n, 0.0, 1.0, m_max=96)
    s = margin_grid()
    offsets = [np.mean(qd[j].value(s) - d[j](s)) for j in range(3)]
    # one gauge constant shared by the three sides
    assert abs(offsets[0] - offsets[1]) < 1e-5
    assert abs(offsets[0] - offsets[2]) < 1e-5
    for j in range(3):
        assert np.max(np.abs(qd[j].value(s) - d[j](s) - offsets[j])) < 1e-5


@pytest.mark.parametrize(
    "lam, beta, gamma", [(1.0, np.pi / 2.0, 0.0), (1.0, 1.0, 0.5), (2.0, 1.2, 0.3)]
)
def test_robin_moment_matches_manufactured(lam, beta, gamma, geom):
    """The moment int e^{mu(k_m) s} [q1 + w^-1 q2 + w q3] ds, w = e^{2 pi i m/3},
    from the Poincare data of a plane wave against its Dirichlet traces."""
    sol = manufactured_families(lam)[0]
    d, _ = all_traces(sol, geom)
    data = [poincare_trace(sol, geom, j, beta, gamma) for j in (1, 2, 3)]
    psi = [SideSampler(t, Kind.PSI, lam, 1.0) for t in d]
    for m in (1, 2, 4, -5, 16, -31):
        k, got = robin_moment(m, data, lam, 1.0, beta, gamma)
        w = np.exp(2j * np.pi * m / 3.0)
        want = psi[0].eval(k) + psi[1].eval(k) / w + w * psi[2].eval(k)
        assert abs(got - want) <= 1e-10 * abs(want), (m, abs(got - want) / abs(want))


def test_sin_beta_zero_rejected():
    data = [BoundaryTrace.zero(j) for j in (1, 2, 3)]
    with pytest.raises(ParameterError):
        SideCondition(BCKind.POINCARE, data[0], beta=0.0)
    with pytest.raises(ParameterError):
        robin_moment(1, data, 1.0, 1.0, beta=0.0, gamma=0.0)


ZEROS = tuple(BoundaryTrace.zero(j) for j in (1, 2, 3))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SideCondition(BCKind.NEUMANN, ZEROS[0], gamma=1.0), "gamma = 0"),
        (lambda: SideCondition(BCKind.ROBIN, ZEROS[0], beta=1.0, gamma=1.0), "beta = pi/2"),
        (lambda: SideCondition(BCKind.DIRICHLET, ZEROS[0]).symbol(1.0), "no H symbol"),
        (lambda: dirichlet_problem(1.0, TriangleGeometry(), ZEROS[:2]), "three side"),
        (
            lambda: ProblemSpec(
                1.0,
                TriangleGeometry(),
                tuple(map(SideCondition, ("dirichlet", "neumann", "neumann"), ZEROS)),
            ),
            "mixed Dirichlet",
        ),
        (lambda: general_dirichlet_dtn(ZEROS[:2], 1.0, 1.0), "three side"),
        (lambda: neumann_to_dirichlet(ZEROS[:2], 1.0, 1.0), "three side"),
        (lambda: robin_moment(1, ZEROS[:2], 1.0, 1.0, beta=np.pi / 2.0, gamma=0.0), "three side"),
    ],
    ids=["neumann-gamma", "robin-beta", "dirichlet-symbol", "two-sides", "dirichlet-and-neumann",
         "general-two-traces", "neumann-two-traces", "robin-two-traces"],
)
def test_refused_problems_raise_parameter_error(build, match):
    # the series maps leave the count of sides to ProblemSpec
    with pytest.raises(ParameterError, match=match):
        build()


def test_beta_offset_off_the_pi_over_3_lattice_is_inadmissible():
    betas = (np.pi / 2.0, np.pi / 2.0 + 0.3, np.pi / 2.0)
    sides = tuple(SideCondition(BCKind.POINCARE, t, beta=b) for t, b in zip(ZEROS, betas))
    report = ProblemSpec(1.0, TriangleGeometry(), sides).admissibility()
    assert not report.admissible and report.n_step is None and report.m_step == 0
    assert len(report.violations) == 1
    assert report.violations[0].startswith("beta_2 - beta_1") and "multiple of pi/3" in report.violations[0]


def test_sample_grid_margins():
    s = sample_grid(1.0, n=11, corner_margin=0.1)
    assert s[0] >= -0.4 - 1e-12 and s[-1] <= 0.4 + 1e-12


def _complex_series(modes, coeffs, s):
    """sum_m coeffs[m] e^{-2 pi i m s/3} on a side of length 1, summed in
    np.clongdouble."""
    ld = np.longdouble
    kappa = (-2j * 4 * np.arctan(ld(1)) / 3) * np.asarray(modes, dtype=ld)
    return np.exp(np.multiply.outer(np.asarray(s, dtype=ld), kappa)) @ coeffs


def test_imbalance_bounds_the_imaginary_synthesis(geom, monkeypatch):
    # sum |Im a_n| over the Legendre coefficients bounds max |Im| of the
    # complex series that the builder receives, before its fold
    received = []

    def finalize(side, side_length, modes, coeffs):
        trace = build(side, side_length, modes, coeffs)
        received.append((modes, coeffs, trace))
        return trace

    build = series._finalize
    monkeypatch.setattr(series, "_finalize", finalize)
    lam = 1.0
    d, n = all_traces(manufactured_families(lam)[0], geom)
    common = all_traces(symmetric_corner_compatible(lam, 1.0), geom)[0][0]
    symmetric_dirichlet_dtn(common, lam, 1.0)
    general_dirichlet_dtn(d, lam, 1.0)
    neumann_to_dirichlet(n, lam, 1.0)
    assert len(received) == 7
    s = sample_grid(1.0, n=257, corner_margin=0.0)
    for modes, coeffs, trace in received:
        roundoff = np.finfo(float).eps * np.sum(np.abs(coeffs))
        assert trace.imbalance + roundoff >= np.max(np.abs(_complex_series(modes, coeffs, s).imag))


def _extended_lattice_sums(trace, s, step):
    """sum_{p,j} (i t)^q weighted[p, j] e^{i t s} over the lattice
    t = offsets[j] + p step, for q = 0 and 1, summed in np.clongdouble from
    the double s, offsets and weights and the long double ``step``."""
    ld = np.longdouble
    t = trace.offsets.astype(ld) + step * np.arange(len(trace.weighted), dtype=ld)[:, None]
    kappa = 1j * t.ravel()
    terms = np.exp(np.multiply.outer(np.asarray(s, dtype=ld), kappa))
    weights = trace.weighted.ravel().astype(np.clongdouble)
    return terms @ weights, terms @ (kappa * weights)


#: (kind, lambda, largest label m for a series or T for a contour)
EVALUATION_CASES = [
    (kind, lam, m)
    for kind in ("general", "symmetric")
    for lam in (0.0, 1.0, 5.0)
    for m in (16, 64, 256)
] + [("contour", lam, t_factor) for lam in (0.0, 1.0) for t_factor in (40.0, 1280.0)]


@pytest.mark.parametrize(
    ("kind", "lam", "size"),
    EVALUATION_CASES,
    ids=["-".join(map(str, case)) for case in EVALUATION_CASES],
)
def test_series_evaluation_matches_extended_precision(geom, kind, lam, size):
    # value and derivative of solver traces against the same lattice sum in
    # np.clongdouble, within 1e-14 of the largest reference value on the
    # side.  A series is a one-offset lattice whose reference step 2 pi g/(3 l)
    # is formed here in long double; the general trace comes from
    # corner-singular data, whose modes decay slowly, and runs over every
    # label up to m.  A contour trace is read without its residues.
    if kind == "contour":
        data = all_traces(symmetric_corner_compatible(lam, 1.0), geom)[0][0]
        solved = symmetric_dirichlet_integral(data, lam, 1.0, n_max=16, t_factor=size)
        assert solved.weighted.shape == (int(size), PANEL_ORDER)
        trace = dataclasses.replace(solved, rates=np.zeros(0), coeffs=Scaled.of(np.zeros(0)))
        step, side = np.longdouble(trace.step), np.linspace(-0.5, 0.5, 65)
    else:
        if kind == "general":
            data = all_traces(manufactured_families(lam)[0], geom)[0]
            trace, g = general_dirichlet_dtn(data, lam, 1.0, m_max=size)[0], 1
        else:
            common = all_traces(symmetric_corner_compatible(lam, 1.0), geom)[0][0]
            trace, g = symmetric_dirichlet_dtn(common, lam, 1.0, n_max=size), 3
        assert trace.weighted.shape == (size + 1, 1) and not np.any(trace.offsets)
        step, side = 8 * np.arctan(np.longdouble(1)) * g / 3, np.linspace(-0.5, 0.5, 257)
    grid = np.random.default_rng(7).uniform(-0.5, 0.5, size=(4, 8))
    points = (0.5, -0.37, side, grid)
    references = []
    for s in points:
        total, slope = _extended_lattice_sums(trace, s, step)
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExponentialSumTrace(2, np.ones(5), 1.0, np.ones((3, 2)), np.ones(1), Scaled.of(np.ones(1))),
        lambda: ExponentialSumTrace(2, np.ones(2), 1.0, np.ones((3, 2)), np.ones(2), Scaled.of(np.ones(3))),
        lambda: series._finalize(1, 1.0, [0, 3, 6], [1.0, 2.0]),
    ],
    ids=["lattice", "free", "series"],
)
def test_mismatched_shapes_raise_parameter_error(build):
    # lattice weights whose last axis is not the offsets', free rates and
    # coeffs of different shapes, series labels and coeffs of different shapes
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: series._finalize(1, 1.0, [0, 3], [1.0, 2.0]),
        lambda: ExponentialSumTrace(2, np.ones(2), 1.0, np.ones((3, 2)), np.ones(1), Scaled.of(np.ones(1))),
        lambda: BoundaryTrace.constant(1, 2.0),
    ],
    ids=["series", "contour", "boundary"],
)
def test_traces_compare_by_identity(build):
    trace, twin = build(), build()
    assert trace == trace and hash(trace) == hash(trace)
    assert trace != twin
    assert len({trace, twin}) == 2
