"""Interior evaluation of the field q(x, y).

Three independent representations are provided and cross-checked:

* ``greens_eval`` -- the classical boundary-integral representation
  q = (1/2pi) contour-int [K dq/dn' - q dK/dn'] dl' with the modified Bessel
  kernel K_0(2 sqrt(lam) R) (logarithmic kernel for lam = 0),
* ``fokas_eval`` -- the ray representation
  q = (1/2pi i) sum_j int_{l_j} e^{ikz + (lam/ik) zbar} rho~_j(k) dk/k
  over the three rays at arguments -pi/2, pi/6, 5pi/6,
* ``symmetric_interior`` -- for the symmetric Dirichlet problem, the ray
  integrals of the known data plus the residue series over the mode roots
  s_n, bypassing the Neumann trace entirely.

All three need both phases and magnitudes over an exponentially large
dynamic range near k = 0; products are therefore assembled in the Scaled
representation and collapsed to complex only once per quadrature node.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bessel import bessel_k0, bessel_k1
from .errors import AccuracyError, DomainError, ParameterError
from .geometry import ALPHA, ALPHA_BAR, SIDE_ROT, SQRT3, TriangleGeometry, mu
from .poincare import (
    _delta_prime_scaled,
    _delta_scaled,
    _rotations,
    _symmetric_g,
    _symmetric_g_scaled,
    dirichlet_mode_roots,
)
from .problems import check_lam
from .quadrature import QuadratureRule
from .relations import GlobalRelation
from .scaledc import Scaled
from .spectral import Kind, SideSampler

#: Ray arguments of l_1, l_2, l_3.
RAY_ARGS = (-math.pi / 2.0, math.pi / 6.0, 5.0 * math.pi / 6.0)

#: Gauss-Legendre order of the ray panels.
RAY_ORDER = 24


@dataclass(frozen=True)
class InteriorPoint:
    """An evaluation point strictly inside the triangle, or an array of
    such points with their margins."""

    z: complex | np.ndarray
    margin: float | np.ndarray

    @classmethod
    def locate(cls, z, geometry: TriangleGeometry) -> "InteriorPoint":
        margin = geometry.boundary_margin(z)
        outside = np.asarray(margin) <= 0.0
        if outside.any():
            first = np.argmax(outside.ravel())
            raise DomainError(
                f"evaluation point {np.ravel(z)[first]} lies outside the "
                f"triangle (margin {np.ravel(margin)[first]:.3e})"
            )
        if np.ndim(z):
            return cls(z=np.asarray(z, dtype=complex), margin=margin)
        return cls(z=complex(z), margin=float(margin))


@dataclass(frozen=True)
class TraceSet:
    """Dirichlet and Neumann traces on all three sides."""

    geometry: TriangleGeometry
    dirichlet: tuple
    neumann: tuple

    def __post_init__(self):
        if len(self.dirichlet) != 3 or len(self.neumann) != 3:
            raise ParameterError("TraceSet needs exactly three traces per kind")

    @classmethod
    def from_solution(cls, sol, geometry: TriangleGeometry) -> "TraceSet":
        from .oracle import dirichlet_trace, neumann_trace

        return cls(
            geometry=geometry,
            dirichlet=tuple(dirichlet_trace(sol, geometry, j) for j in (1, 2, 3)),
            neumann=tuple(neumann_trace(sol, geometry, j) for j in (1, 2, 3)),
        )


# -- Green's representation ------------------------------------------------
def greens_eval(traces: TraceSet, lam: float, z, order: int = 16):
    """q(z) from the boundary-integral representation, at a point (a float)
    or an array of points (an array shaped like ``z``).

    The normal kernel derivative is analytic: for lam > 0,
    d/dn' K_0(2 sqrt(lam) R) = -2 sqrt(lam) K_1(2 sqrt(lam) R) (n'.(r'-r))/R,
    and for lam = 0 the kernel is -ln R with d/dn' = -(n'.(r'-r))/R^2.
    Points that share a panel count share a rule: each side's traces are
    evaluated once on the nodes of every rule, and each rule sums a
    points-by-nodes kernel.
    """
    check_lam(lam)
    geom = traces.geometry
    point = z if isinstance(z, InteriorPoint) else InteriorPoint.locate(z, geom)
    zs, margins = np.asarray(point.z).ravel(), np.asarray(point.margin).ravel()
    if (margins < 1e-3 * geom.side_length).any():
        raise AccuracyError(
            "evaluation point is too close to the boundary for the "
            f"Green's quadrature (margin {np.min(margins):.3e})"
        )
    # composite per-side rule resolving the scale of the margin
    n_panels = np.maximum(4, np.ceil(geom.side_length / margins).astype(int))
    half = geom.side_length / 2.0
    groups = sorted(set(n_panels.tolist()))
    rules = [QuadratureRule.panels(np.linspace(-half, half, n + 1), order) for n in groups]
    s_all = np.concatenate([np.empty(0), *(rule.nodes for rule in rules)])
    ends = accumulate(rule.nodes.size for rule in rules)
    qn = [np.asarray(trace(s_all), dtype=float) for trace in traces.neumann]
    qd = [np.asarray(trace(s_all), dtype=float) for trace in traces.dirichlet]
    root = 2.0 * math.sqrt(lam) if lam > 0.0 else 0.0
    out = np.empty(zs.size)
    for n, rule, end in zip(groups, rules, ends):
        nodes = slice(end - rule.nodes.size, end)
        pick = n_panels == n
        z_col = zs[pick][:, None]
        total = 0.0
        for j in (1, 2, 3):
            diff = geom.side_point(j, rule.nodes) - z_col
            r_dist = np.abs(diff)
            # n'.(r' - r) as a real inner product of complex directions
            proj = np.real(np.conj(geom.side_normal(j)) * diff)
            if lam > 0.0:
                kval = bessel_k0(root * r_dist)
                dk = -root * bessel_k1(root * r_dist) * proj / r_dist
            else:
                kval = -np.log(r_dist)
                dk = -proj / r_dist**2
            integrand = kval * qn[j - 1][nodes] - qd[j - 1][nodes] * dk
            total = total + np.sum(rule.weights * integrand, axis=1)
        out[pick] = total / (2.0 * math.pi)
    return out.reshape(np.shape(point.z)) if np.ndim(point.z) else float(out[0])


# -- the ray representation ------------------------------------------------
@dataclass(frozen=True)
class RayContour:
    """Panelled quadrature along the rays l_1, l_2, l_3.

    Panels grow geometrically from ``r_min`` until their width reaches the
    oscillation cap, then continue uniformly up to the truncation radius.
    """

    side_length: float
    truncation: float
    r_min: float = 0.0
    order: int = RAY_ORDER
    growth: float = 4.0

    def radii(self):
        r_min = self.r_min or 1e-6 * (2.0 * SQRT3 / self.side_length)
        cap = 5.0 / self.side_length
        edges = [r_min]
        while edges[-1] < self.truncation:
            lo = edges[-1]
            edges.append(min(lo + min((self.growth - 1.0) * lo, cap), self.truncation))
        rule = QuadratureRule.panels(edges, self.order)
        return rule.nodes, rule.weights

    def nodes(self, ray: int):
        """(k, dk-weights) along ray ``ray`` (1, 2 or 3)."""
        r, w = self.radii()
        direction = cmath.exp(1j * RAY_ARGS[ray - 1])
        return r * direction, w * direction


def _distance_to_side(geom: TriangleGeometry, z: complex, j: int) -> float:
    return geom.inradius - (z * np.conj(SIDE_ROT[j])).real


def _ray_phase(k, z, lam) -> Scaled:
    """exp{ i k z + (lam/(ik)) zbar } as a Scaled value (vectorised)."""
    k = np.asarray(k, dtype=complex)
    return Scaled.from_exp(1j * k * z + lam * np.conj(z) / (1j * k))


def fokas_eval(
    traces: TraceSet,
    lam: float,
    z,
    order: int = RAY_ORDER,
    tail: float = 36.0,
):
    """q(z) from the ray representation (lam > 0 only), at a point (a float)
    or an array of points (an array shaped like ``z``).

    On ray l_j the integrand decays like exp{-(r + lam/r) d_j} with d_j the
    distance from z to side j, which sets both the truncation radius and an
    a-priori tail bound.  One global relation serves every point, and each
    ray evaluates rho~_j once on the nodes of all points.
    """
    check_lam(lam, positive=True)
    geom = traces.geometry
    point = z if isinstance(z, InteriorPoint) else InteriorPoint.locate(z, geom)
    zs = np.ravel(point.z)
    rho = GlobalRelation(traces.dirichlet, traces.neumann, lam, geom.side_length)
    total = np.zeros(zs.size, dtype=complex)
    for j in (1, 2, 3):
        rays = [
            RayContour(side_length=geom.side_length, truncation=tail / dist, order=order).nodes(j)
            for dist in _distance_to_side(geom, zs, j)
        ]
        sizes = [k.size for k, _ in rays]
        k = np.concatenate([np.empty(0), *(k for k, _ in rays)])
        w = np.concatenate([np.empty(0), *(w for _, w in rays)])
        vals = _ray_phase(k, np.repeat(zs, sizes), lam) * rho.rho_scaled(j, SIDE_ROT[j] * k)
        terms = w / k * np.asarray(vals.to_complex(), dtype=complex)
        total += [np.sum(t) for t in np.split(terms, np.cumsum(sizes)[:-1])]
    out = (total / (2j * math.pi)).real
    return out.reshape(np.shape(point.z)) if np.ndim(point.z) else float(out[0])


# -- the symmetric Dirichlet problem ---------------------------------------
def symmetric_interior(
    f,
    lam: float,
    z,
    geometry: TriangleGeometry | None = None,
    n_max: int = 64,
    order: int = RAY_ORDER,
    tail: float = 36.0,
) -> float:
    """q(z) for the symmetric Dirichlet problem directly from the data f.

    The representation splits into the known ray integrals (the F part of
    rho~_j plus the G/Delta terms produced by eliminating the rotated
    Psi arguments) and the residue series over the mode roots s_n: the
    upper-half roots s_n^+ contribute in full, the lower-half roots s_n^-
    are split in two halves carrying the two rotated short kernels.
    """
    check_lam(lam, positive=True)
    geom = geometry or TriangleGeometry()
    point = z if isinstance(z, InteriorPoint) else InteriorPoint.locate(z, geom)
    side_length = geom.side_length
    sampler = SideSampler(f, Kind.PHI, lam, side_length)

    total = 0.0 + 0.0j
    for j in (1, 2, 3):
        dist = _distance_to_side(geom, point.z, j)
        contour = RayContour(side_length=side_length, truncation=tail / dist, order=order)
        k, w = contour.nodes(j)
        arg = SIDE_ROT[j] * k
        env = Scaled.from_exp(mu(-1j * arg, lam) * (side_length / (2.0 * SQRT3)))
        # known F part of rho~_j, and on rays 2 and 3 the G/Delta terms, from
        # one transform evaluation per ray
        if j == 1:
            part = sampler.eval_scaled(arg)
        else:
            g_arg = k if j == 2 else np.conj(k)
            f = sampler.eval_scaled(np.concatenate([arg[None], _rotations(g_arg)]))
            g = _symmetric_g(f[1:], g_arg, lam, side_length)
            # on ray 3 the Schwarz conjugate conj(G(conj k)) for real symmetric data
            g = g if j == 2 else -g.conj()
            part = f[0] + g / _delta_scaled(k, lam, side_length)
        vals = _ray_phase(k, point.z, lam) * env * part
        total += np.sum(w / k * np.asarray(vals.to_complex(), dtype=complex)) / (2j * math.pi)

    # residue series over the mode roots s_n
    roots = dirichlet_mode_roots(lam, side_length, n_max)
    k, plus = roots.k, roots.plus
    g = _symmetric_g_scaled(sampler, k, lam, side_length)
    denom = (
        k
        * _delta_prime_scaled(k, lam, side_length)
        * _delta_scaled(ALPHA_BAR * k, lam, side_length)
    )
    # E^2(w) = exp(mu(w) l / sqrt(3)): E^2(i k) on s_n^+, the mean of
    # E^2(i alpha k) and E^2(i alpha_bar k) on s_n^- (the two halves agree,
    # and average exactly, on s_n^+)
    short = side_length / SQRT3
    env = 0.5 * (
        Scaled.from_exp(mu(1j * np.where(plus, k, ALPHA * k), lam) * short)
        + Scaled.from_exp(mu(1j * np.where(plus, k, ALPHA_BAR * k), lam) * short)
    )
    res = np.sum((_ray_phase(k, point.z, lam) * env * g / denom).to_complex())
    return float((total + res).real)
