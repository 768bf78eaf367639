import numpy as np
import pytest

from tridtn.errors import ParameterError
from tridtn.geometry import ALPHA_BAR, TriangleGeometry
from tridtn.oracle import (
    ExpAtomSolution,
    all_traces,
    corner_smooth_solution,
    dirichlet_trace,
    neumann_trace,
    poincare_trace,
    symmetric_corner_compatible,
)

from conftest import manufactured_families


@pytest.mark.parametrize("lam", [0.0, 1.0, 3.7])
def test_pde_residual_vanishes(lam, rng):
    pts = 0.2 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
    for sol in manufactured_families(lam):
        assert np.max(np.abs(sol.pde_residual(pts))) < 1e-10


def test_atom_rate_constraint_enforced():
    with pytest.raises(ParameterError):
        ExpAtomSolution(lam=1.0, coeffs=(1.0,), a_rates=(2.0,), b_rates=(3.0,))


def test_real_exp_field_form(rng):
    lam, b, phase = 0.7, 1.3, 0.4
    sol = ExpAtomSolution.real_exp(lam, b=b, phase=phase)
    a = np.sqrt(b * b + 4.0 * lam)
    pts = 0.3 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    want = np.exp(a * pts.real) * np.cos(b * pts.imag + phase)
    assert np.max(np.abs(sol.q(pts) - want)) < 1e-12


def test_gradient_consistency(rng, geom):
    sol = manufactured_families(1.0)[0]
    h = 1e-6
    for z in 0.2 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)):
        fx = (sol.q(z + h) - sol.q(z - h)) / (2.0 * h)
        fy = (sol.q(z + 1j * h) - sol.q(z - 1j * h)) / (2.0 * h)
        assert abs(sol.derivative(z, 1) - fx) < 1e-6
        assert abs(sol.derivative(z, 1j) - fy) < 1e-6
        # a second derivative against a central difference of the first
        d1, d2 = np.exp(2j * np.pi * rng.uniform(size=2))
        fd = (sol.derivative(z + h * d2, d1) - sol.derivative(z - h * d2, d1)) / (2.0 * h)
        assert abs(sol.derivative(z, d1, d2) - fd) < 1e-6


def test_symmetrized_invariance(rng, geom):
    sol = ExpAtomSolution.plane_wave(1.0, 0.8 + 0.9j).symmetrized()
    pts = 0.2 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    rotated = pts * ALPHA_BAR
    assert np.max(np.abs(sol.q(pts) - sol.q(rotated))) < 1e-12
    # identical traces on the three sides
    s = np.linspace(-0.4, 0.4, 9)
    d1 = dirichlet_trace(sol, geom, 1)(s)
    for j in (2, 3):
        assert np.max(np.abs(dirichlet_trace(sol, geom, j)(s) - d1)) < 1e-12


def test_trace_derivatives_match_fd(geom):
    sol = manufactured_families(1.0)[1]
    traces = (
        dirichlet_trace(sol, geom, 2),
        neumann_trace(sol, geom, 2),
        poincare_trace(sol, geom, 1, 0.8, 0.5),
    )
    for tr in traces:
        h = 1e-6
        for s in (-0.3, 0.0, 0.25):
            fd = (tr(s + h) - tr(s - h)) / (2.0 * h)
            assert abs(tr.d(s) - fd) < 1e-6


def test_poincare_trace_combination(geom):
    sol = manufactured_families(1.0)[0]
    beta, gamma = 0.8, 0.5
    tr = poincare_trace(sol, geom, 1, beta, gamma)
    d = dirichlet_trace(sol, geom, 1)
    n = neumann_trace(sol, geom, 1)
    for s in (-0.2, 0.1, 0.4):
        want = np.sin(beta) * n(s) + np.cos(beta) * d.d(s) + gamma * d(s)
        assert abs(tr(s) - want) < 1e-12


def test_corner_smooth_junction_continuity(geom):
    lam = 1.0
    k0s = [0.9 + 0.3j, 1.4 - 0.5j, 0.7 + 1.1j, 1.9 + 0.2j, 0.5 - 0.9j,
           1.1 + 0.8j, 1.6 - 0.2j, 0.4 + 1.5j, 2.1 - 0.7j, 0.8 + 0.1j,
           1.2 + 1.2j, 1.8 + 0.6j]
    sol = corner_smooth_solution(lam, 1.0, k0s, smooth_order=1)
    half = 0.5
    # junction pairs (side at s=+l/2, side at s=-l/2) share a vertex
    for hi, lo in ((1, 3), (2, 1), (3, 2)):
        d_hi = dirichlet_trace(sol, geom, hi)
        d_lo = dirichlet_trace(sol, geom, lo)
        n_hi = neumann_trace(sol, geom, hi)
        n_lo = neumann_trace(sol, geom, lo)
        assert abs(d_hi(half) - d_lo(-half)) < 1e-10
        assert abs(d_hi.d(half) - d_lo.d(-half)) < 1e-9
        assert abs(n_hi(half) - n_lo(-half)) < 1e-9


def test_symmetric_corner_compatible_jumps(geom):
    sol = symmetric_corner_compatible(1.0, 1.0)
    n1 = neumann_trace(sol, geom, 1)
    h = 1e-4
    # periodised first derivative must be continuous across the corner
    jump = n1.d(0.5) - n1.d(-0.5)
    assert abs(jump) < 1e-8 * max(1.0, abs(n1.d(0.5)))


def test_all_traces_shapes(geom):
    d, n = all_traces(manufactured_families(0.0)[0], geom)
    assert len(d) == 3 and len(n) == 3
    assert d[1].side == 2 and n[2].side == 3
