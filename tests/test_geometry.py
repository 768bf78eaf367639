import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tridtn.errors import ParameterError
from tridtn.fdgrid import TriangularGrid
from tridtn.geometry import (
    ALPHA,
    ALPHA_BAR,
    SQRT3,
    TriangleGeometry,
    exp_E,
    exp_e,
    mu,
)
from tridtn.quadrature import QuadratureRule

finite_k = st.complex_numbers(
    min_magnitude=1e-2, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def test_vertices_and_side_length(geom):
    z1, z2, z3 = geom.vertices
    for a, b in ((z1, z2), (z2, z3), (z3, z1)):
        assert abs(abs(a - b) - 1.0) < 1e-14
    assert abs(z1 + z2 + z3) < 1e-15  # centroid at the origin


def test_side_endpoints_chain(geom):
    # sides traverse z2 -> z1, z3 -> z2, z1 -> z3 (counterclockwise)
    assert abs(geom.side_endpoints(1)[0] - geom.z2) < 1e-15
    assert abs(geom.side_endpoints(1)[1] - geom.z1) < 1e-15
    assert abs(geom.side_endpoints(2)[0] - geom.z3) < 1e-15
    assert abs(geom.side_endpoints(2)[1] - geom.z2) < 1e-15
    assert abs(geom.side_endpoints(3)[0] - geom.z1) < 1e-15
    assert abs(geom.side_endpoints(3)[1] - geom.z3) < 1e-15


def test_normals_point_outward(geom):
    for j in (1, 2, 3):
        mid = geom.side_point(j, 0.0)
        n = geom.side_normal(j)
        # moving along the outward normal must increase distance from centroid
        assert abs(mid + 1e-3 * n) > abs(mid)
        # and it is orthogonal to the tangent
        assert abs((np.conj(n) * geom.side_tangent(j)).real) < 1e-15


def test_boundary_margin_and_contains(geom):
    assert abs(geom.boundary_margin(0.0) - geom.inradius) < 1e-15
    assert geom.contains(0.0)
    assert not geom.contains(geom.z1 * 1.01)
    for j in (1, 2, 3):
        assert abs(geom.boundary_margin(geom.side_point(j, 0.1))) < 1e-14
        assert abs(geom.side_distances(geom.side_point(j, 0.1))[j - 1]) < 1e-14
    z = np.array([0.0, 0.1 + 0.05j, -0.2 - 0.1j, geom.z1 * 1.01])
    dist = geom.side_distances(z)
    assert dist.shape == (3, z.size)
    assert np.array_equal(np.min(dist, axis=0), geom.boundary_margin(z))


def test_invalid_side_length():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            TriangleGeometry(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TriangleGeometry().side_point(4, 0.0),
        lambda: TriangularGrid(1.0, 8).side_nodes(4),
        lambda: QuadratureRule.gauss(-1.0, 1.0, 0),
    ],
    ids=["side-point", "grid-side-nodes", "gauss-order"],
)
def test_geometry_entry_points_raise_parameter_error(build):
    with pytest.raises(ParameterError):
        build()


@given(k=finite_k, lam=st.floats(0.1, 5.0, allow_subnormal=False))
def test_mu_invariant_under_inversion(k, lam):
    kk = lam / k
    assert abs(mu(kk, lam) - mu(k, lam)) <= 1e-12 * max(1.0, abs(mu(k, lam)))


@given(k=finite_k)
def test_alpha_relations(k):
    # the cube-root-of-unity identities behind the kernel algebra
    assert abs(ALPHA**2 - ALPHA_BAR) < 1e-15
    assert abs(1 + ALPHA + ALPHA_BAR) < 1e-15
    assert abs(1j * ALPHA_BAR - 1j * ALPHA - SQRT3) < 1e-14
    assert abs(1j * ALPHA - 1j - SQRT3 * ALPHA_BAR) < 1e-14


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_kernel_identities(lam, rng):
    for _ in range(25):
        k = rng.uniform(0.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        e_big = lambda w: exp_E(w, lam, 1.0)
        e_small = lambda w: exp_e(w, lam, 1.0)
        prod = e_big(k) * e_big(ALPHA * k) * e_big(ALPHA_BAR * k)
        assert abs(prod - 1.0) < 1e-12 * abs(prod)
        lhs = e_big(1j * ALPHA_BAR * k) * e_big(-1j * ALPHA * k)
        assert abs(lhs - e_small(k)) < 1e-12 * abs(lhs)
        lhs = e_big(1j * ALPHA * k) * e_big(-1j * k)
        assert abs(lhs - e_small(ALPHA_BAR * k)) < 1e-12 * abs(lhs)
