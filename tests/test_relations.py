import math

import numpy as np
import pytest

from tridtn.errors import DomainError, NonFiniteError
from tridtn.expressions import expression_trace
from tridtn.geometry import ALPHA, ALPHA_BAR, TriangleGeometry
from tridtn.oracle import all_traces, poincare_trace, symmetric_corner_compatible
from tridtn.problems import ProblemSpec, SideCondition, BCKind, dirichlet_problem, mixed_nr_problem
from tridtn.relations import (
    ARG_FACTORS,
    ELIMINATION_CYCLE,
    RELATION_ROWS,
    GlobalRelation,
    ProblemSamplers,
    cycle_log_derivative,
    eliminate_rows,
    relation_rows,
    walk_cycle,
)
from tridtn.series import general_dirichlet_dtn, symmetric_dirichlet_dtn
from tridtn.traces import BoundaryTrace

from conftest import manufactured_families, spectral_points
from reference import eliminate_second_side, relation_system


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_global_relation_residual(lam, geom, rng):
    ks = spectral_points(rng, 25)
    for sol in manufactured_families(lam):
        d, n = all_traces(sol, geom)
        rel = GlobalRelation(d, n, lam, 1.0)
        assert rel.residual_audit(ks) < 1e-10


def _counting(trace, calls):
    """``trace`` with value/derivative callables that log each sample size."""
    return BoundaryTrace(
        side=trace.side,
        value=lambda s: calls.append(("value", np.size(s))) or trace.value(s),
        derivative=lambda s: calls.append(("derivative", np.size(s))) or trace.derivative(s),
    )


def test_audit_reuses_the_series_of_the_dtn_map(geom, rng):
    """The residual audit reads the Legendre series that the DtN map sampled
    from the same data traces: no further trace evaluations."""
    lam = 1.0
    d, _ = all_traces(manufactured_families(lam)[0], geom)
    calls = []
    data = [_counting(t, calls) for t in d]
    neumann = general_dirichlet_dtn(data, lam, 1.0, m_max=32)
    sampled = len(calls)
    GlobalRelation(data, neumann, lam, 1.0).residual_audit(spectral_points(rng, 5))
    assert sampled > 0 and len(calls) == sampled


def test_shared_trace_of_symmetric_solve_sampled_once(geom, rng):
    """The three sides of a symmetric run share one trace and one series."""
    lam = 1.0
    d, _ = all_traces(symmetric_corner_compatible(lam, 1.0), geom)
    data_calls, found_calls = [], []
    data = _counting(d[0], data_calls)
    found = _counting(symmetric_dirichlet_dtn(data, lam, 1.0, n_max=16), found_calls)
    sampled = len(data_calls)
    GlobalRelation([data] * 3, [found] * 3, lam, 1.0).residual_audit(spectral_points(rng, 5))
    assert len(data_calls) == sampled
    # one doubling sequence of node counts, not three
    assert found_calls and len(set(found_calls)) == len(found_calls)


def test_residual_audit_reports_nan_data(rng):
    """Data that evaluate to inf or NaN stop the audit with a typed error
    that names the side and the transform kind."""
    bad = [expression_trace("1/(s-s)", j, 1.0) for j in (1, 2, 3)]
    rel = GlobalRelation(bad, bad, 1.0, 1.0)
    with pytest.raises(NonFiniteError, match="side 1 .* psi"):
        rel.residual_audit(spectral_points(rng, 5))


def test_residual_audit_large_lambda(rng):
    """At lam = 1e6 the rho values leave the double range; the audit is
    formed in exponent-carrying arithmetic and stays finite."""
    data = [expression_trace("cos(2*pi*s/l)", j, 1.0) for j in (1, 2, 3)]
    rel = GlobalRelation(data, data, 1e6, 1.0)
    with np.errstate(over="ignore"):
        assert math.isfinite(rel.residual_audit(spectral_points(rng, 3)))


def test_relation_rows_match_rotations():
    """Row (conj, slot) evaluates side j at a_j ARG_FACTORS[slot] k with
    a = (1, abar, alpha) in the base relation and its conjugate in the
    Schwarz-conjugate one; the eliminated unknowns close into one 6-cycle."""
    rots = {False: (1.0, ALPHA_BAR, ALPHA), True: (1.0, ALPHA, ALPHA_BAR)}
    assert len(RELATION_ROWS) == 6
    for row in RELATION_ROWS:
        for j, factor, slot in row.terms:
            assert factor == ARG_FACTORS[slot]
            assert abs(rots[row.conj][j - 1] * ARG_FACTORS[row.slot] - factor) < 1e-15
    assert sorted(step[0] for step in ELIMINATION_CYCLE) == list(range(6))


def test_rho_rejects_origin(geom):
    sol = manufactured_families(1.0)[0]
    d, n = all_traces(sol, geom)
    rel = GlobalRelation(d, n, 1.0, 1.0)
    with pytest.raises(DomainError):
        rel.rhos(0.0)


def test_relation_system_consistency_dirichlet(geom, rng):
    """The 6x9 system must annihilate the exact spectral unknowns."""
    from tridtn.spectral import Kind, SideSampler
    from tridtn.geometry import ALPHA, ALPHA_BAR

    lam = 1.0
    sol = manufactured_families(lam)[1]
    d, n = all_traces(sol, geom)
    problem = dirichlet_problem(lam, geom, d)
    psi = [SideSampler(t, Kind.PSI, lam, 1.0) for t in n]
    for _ in range(5):
        k = complex(spectral_points(rng, 1)[0])
        system = relation_system(problem, k)
        x = np.array(
            [psi[j].eval(fac * k) for fac in (1.0, ALPHA, ALPHA_BAR) for j in range(3)]
        )
        resid = system.matrix @ x - system.rhs
        scale = np.max(np.abs(system.matrix)) * np.max(np.abs(x))
        assert np.max(np.abs(resid)) < 1e-10 * max(1.0, scale)


def test_elimination_reproduces_psi2(geom, rng):
    """Numeric elimination recovers PSI_2(abar k) from the PSI_j(k)."""
    from tridtn.spectral import Kind, SideSampler
    from tridtn.geometry import ALPHA_BAR

    lam = 1.0
    sol = manufactured_families(lam)[0]
    d, n = all_traces(sol, geom)
    problem = dirichlet_problem(lam, geom, d)
    psi = [SideSampler(t, Kind.PSI, lam, 1.0) for t in n]
    for _ in range(5):
        k = complex(spectral_points(rng, 1, r_lo=0.5, r_hi=1.5)[0])
        elim = eliminate_second_side(problem, k)
        want = psi[1].eval(ALPHA_BAR * k)
        got = sum(c * psi[j].eval(k) for j, c in enumerate(elim.coeffs)) + elim.inhom
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_poincare_rows_need_corner_values(geom):
    """Non-cancelling corner terms must be rejected without corner data;
    with the corner values of the Dirichlet traces the rows annihilate the
    exact unknowns Y_j = PSI_j / (2 sin beta_j)."""
    lam = 1.0
    sol = manufactured_families(lam)[0]
    # betas differing by an odd multiple of pi/3 are admissible but the
    # corner terms no longer cancel
    b1, b2, b3 = 0.4, 0.4 + math.pi / 3.0, 0.4
    g = 0.0
    sides = tuple(
        SideCondition(
            BCKind.POINCARE,
            poincare_trace(sol, geom, j, beta, g),
            beta=beta,
            gamma=g,
        )
        for j, beta in zip((1, 2, 3), (b1, b2, b3))
    )
    problem = ProblemSpec(lam=lam, geometry=geom, sides=sides)
    report = problem.admissibility()
    assert report.admissible and not report.corner_cancelling
    from tridtn.errors import SolvabilityError

    with pytest.raises(SolvabilityError):
        relation_system(problem, 1.0 + 0.5j)

    from tridtn.spectral import Kind, SideSampler

    d, _ = all_traces(sol, geom)
    psi = [SideSampler(t, Kind.PSI, lam, 1.0) for t in d]
    corners = [(float(t.value(-0.5)), float(t.value(0.5))) for t in d]
    for k in (1.0 + 0.5j, -0.7 + 1.9j, 2.4 - 0.3j):
        system = relation_system(problem, k, corner_values=corners)
        x = np.array(
            [
                psi[j].eval(fac * k) / (2.0 * math.sin(beta))
                for fac in (1.0, ALPHA, ALPHA_BAR)
                for j, beta in enumerate((b1, b2, b3))
            ]
        )
        resid = system.matrix @ x - system.rhs
        assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(system.rhs)))


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_scaled_elimination_of_a_dirichlet_problem_matches_the_dense_solve(geom, rng, lam):
    """The cycle walk over Dirichlet rows (unknowns PSI_j at +-i/2) gives the
    inhomogeneity of the dense 6x6 elimination, and its couplings
    A_j/(1 - prod) the dense coefficients."""
    from tridtn.poincare import ScaledElimination

    d, _ = all_traces(manufactured_families(lam)[1], geom)
    problem = dirichlet_problem(lam, geom, d)
    ks = spectral_points(rng, 12)
    got = ScaledElimination(problem).inhom(ks).to_complex()
    acc, couplings, prod = eliminate_rows(ProblemSamplers(problem), ks)
    coeffs = (couplings / (1.0 - prod)).to_complex()
    assert np.allclose((acc / (1.0 - prod)).to_complex(), got, rtol=1e-14, atol=0.0)
    for i, k in enumerate(ks):
        want = eliminate_second_side(problem, k)
        assert abs(got[i] - want.inhom) <= 1e-10 * abs(want.inhom)
        assert np.allclose(coeffs[:, i], want.coeffs, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
def test_cycle_log_derivative_matches_a_difference_of_the_product(geom, rng, kind):
    """d log prod/dk of the cycle walk against a fourth-order central
    difference of prod along k, for the Dirichlet rows (+-i/2) and the
    Robin/Neumann rows (H_j, Hbar_j)."""
    sol = manufactured_families(1.0)[0]
    d, n = all_traces(sol, geom)
    if kind == "dirichlet":
        problem = dirichlet_problem(1.0, geom, d)
    else:
        robin = poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0))
        problem = mixed_nr_problem(1.0, geom, robin, n[1], n[2])
    samplers = ProblemSamplers(problem)
    k = spectral_points(rng, 16)
    step = 1e-4 * k

    def prod(z):
        return walk_cycle(*relation_rows(samplers, z))[1]

    diff = 8.0 * (prod(k + step) - prod(k - step)) - (prod(k + 2 * step) - prod(k - 2 * step))
    want = (diff / (12.0 * step * prod(k))).to_complex()
    got = cycle_log_derivative(samplers, k)
    assert np.max(np.abs(got - want) / np.abs(got)) <= 1e-10  # 5.2e-12 seen


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_cycle_at_the_general_mode_roots(geom, lam):
    """At k + lambda/k = 2 pi i m/(3 l) the loop product is 1, and the
    couplings A_j/A_1 are the inverses of the chain weights that distribute
    the shared coefficients to the sides."""
    from tridtn.series import CHAIN_WEIGHTS, _series_mode_roots

    d, _ = all_traces(manufactured_families(lam)[0], geom)
    m, live, k = _series_mode_roots(lam, 1.0, 3.0, 96)
    _, couplings, prod = eliminate_rows(ProblemSamplers(dirichlet_problem(lam, geom, d)), k)
    assert np.max(np.abs(prod.to_complex() - 1.0)) < 1e-12
    m = m[live]
    for side in (2, 3):
        c1, c2 = CHAIN_WEIGHTS[side]
        weight = np.where(m % 3 == 0, 1.0, np.where(m % 3 == 2, c1, c2))
        ratio = (couplings[side - 1] / couplings[0]).to_complex()
        assert np.max(np.abs(ratio * weight - 1.0)) < 1e-12


def test_rows_are_assembled_once_for_every_user(geom, rng, monkeypatch):
    """The 6x9 system, the series maps, the Robin moments and the mixed
    inhomogeneity all read ``relation_rows``."""
    from tridtn import relations
    from tridtn.poincare import ScaledElimination
    from tridtn.series import neumann_to_dirichlet, robin_moment

    calls = []
    rows = relations.relation_rows
    monkeypatch.setattr(relations, "relation_rows", lambda *a, **kw: calls.append(1) or rows(*a, **kw))
    sol = manufactured_families(1.0)[0]
    d, n = all_traces(sol, geom)
    relation_system(dirichlet_problem(1.0, geom, d), 1.0 + 0.5j)
    general_dirichlet_dtn(d, 1.0, 1.0, m_max=4)
    neumann_to_dirichlet(n, 1.0, 1.0, m_max=4)
    robin_moment(1, [poincare_trace(sol, geom, j, 1.0, 0.5) for j in (1, 2, 3)], 1.0, 1.0, 1.0, 0.5)
    robin = poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0))
    ScaledElimination(mixed_nr_problem(1.0, geom, robin, n[1], n[2])).inhom(spectral_points(rng, 3))
    assert len(calls) == 5
