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

The two ray evaluators integrate in r = |k| on one lattice mirrored at
r = sqrt(lam) (``ray_lattice``), where the substitution r -> lam/r of the
dr/r measure maps each half onto the other.  Every ray reads its side's
transforms at SIDE_ROT[j] k = -i r, with mu = -i (r - lam/r) conjugated by
r -> lam/r, so one transform call at the nodes of one half serves every
ray and every point; ``symmetric_interior`` makes that call, and takes
the G/Delta' residues, through ``poincare._symmetric_rays``.  Points are
located by their distances to the sides (``TriangleGeometry.side_distances``).

Both fields are sums of atoms e^{ikz + (lam/ik) zbar + L} whose weights
e^L carry all of the exponential range and do not depend on z, so the
spectrum is a list of node blocks (k, L), one per ray and one of mode
roots, with L formed once by ``Scaled.log``; a point costs one guarded
exponential (``scaledc.collapse``) per atom (``_field``).  The spectrum is
kept in the ``spectra`` dict of the ``TraceSet`` or data trace it derives
from, one entry per object; points nearer a side than RAY_KEEP_MARGIN l
get a lattice of their own that is not kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import AccuracyError, DomainError, ParameterError
from .geometry import ALPHA, ALPHA_BAR, SQRT3, TriangleGeometry, mu
from .poincare import _symmetric_rays
from .problems import check_lam
from .quadrature import QuadratureRule
from .relations import GlobalRelation
from .scaledc import Scaled, collapse
from .series import _delta_scaled
from .spectral import Kind, SideSampler

#: Ray arguments of l_1, l_2, l_3.
RAY_ARGS = (-math.pi / 2.0, math.pi / 6.0, 5.0 * math.pi / 6.0)

#: Gauss-Legendre order of the ray panels.
RAY_ORDER = 16

#: Relative margin below which a call's ray spectrum is not kept: a kept
#: lattice reaches at most 36/(RAY_KEEP_MARGIN l), about 720 panels.
RAY_KEEP_MARGIN = 0.01

#: The lambda l^2 below which ``symmetric_interior`` raises AccuracyError:
#: its rays read at rounding down to here and lose digits roughly like
#: lambda^(-1/2) below about 1e-34 (6e-10 of the field at 1e-40).
SYMMETRIC_LAM_MIN = 1e-30


def _locate(z, geometry: TriangleGeometry):
    """The evaluation point(s) z, flat, their distances to the three sides,
    shaped (3, points), and their margins, the nearest of those; DomainError
    if a point is not strictly inside the triangle."""
    zs = np.ravel(np.asarray(z, dtype=complex))
    dist = geometry.side_distances(zs)
    margins = np.min(dist, axis=0)
    outside = ~(margins > 0.0)  # NaN points too
    if outside.any():
        first = np.argmax(outside)
        raise DomainError(
            f"evaluation point {zs[first]} lies outside the triangle (margin {margins[first]:.3e})"
        )
    return zs, dist, margins


def _shaped(values, z):
    """``values``, one per point of z, shaped like z, or a float for a scalar z."""
    return values.reshape(np.shape(z)) if np.ndim(z) else float(values[0])


@dataclass(frozen=True)
class TraceSet:
    """Dirichlet and Neumann traces on all three sides.  ``spectra`` holds
    the one ray spectrum that ``fokas_eval`` keeps (outside equality)."""

    geometry: TriangleGeometry
    dirichlet: tuple
    neumann: tuple
    spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dirichlet) != 3 or len(self.neumann) != 3:
            raise ParameterError("TraceSet needs exactly three traces per kind")


# -- Green's representation ------------------------------------------------
def greens_eval(traces: TraceSet, lam: float, z):
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
    zs, _, margins = _locate(z, geom)
    if (margins < 1e-3 * geom.side_length).any():
        raise AccuracyError(
            "evaluation point is too close to the boundary for the "
            f"Green's quadrature (margin {np.min(margins):.3e})"
        )
    # composite per-side rule of 16-point panels resolving the scale of the margin
    n_panels = np.maximum(4, np.ceil(geom.side_length / margins).astype(int))
    half = geom.side_length / 2.0
    groups = sorted(set(n_panels.tolist()))
    rules = [QuadratureRule.panels(np.linspace(-half, half, n + 1), 16) for n in groups]
    s_all = np.concatenate([np.empty(0), *(rule.nodes for rule in rules)])
    ends = accumulate(rule.nodes.size for rule in rules)
    qn = [np.asarray(trace(s_all), dtype=float) for trace in traces.neumann]
    qd = [np.asarray(trace(s_all), dtype=float) for trace in traces.dirichlet]
    if lam > 0.0:
        # imported here so that importing the package loads no scipy; the
        # margin check keeps every argument root * R > 0
        from scipy.special import k0, k1

        root = 2.0 * math.sqrt(lam)
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
                kval = k0(root * r_dist)
                dk = -root * k1(root * r_dist) * proj / r_dist
            else:
                kval = -np.log(r_dist)
                dk = -proj / r_dist**2
            integrand = kval * qn[j - 1][nodes] - qd[j - 1][nodes] * dk
            total = total + np.sum(rule.weights * integrand, axis=1)
        out[pick] = total / (2.0 * math.pi)
    return _shaped(out, z)


# -- the ray representation ------------------------------------------------
def ray_lattice(lam: float, side_length: float, reach: float, order: int = RAY_ORDER):
    """Panel edges, radii and weights of the ray quadrature, mirrored at
    r = sqrt(lam).

    The edges run from sqrt(lam), each panel min(3 lo, 5/l) wide, until they
    pass ``reach`` (at least one panel).  They do not depend on ``reach``,
    so a shorter reach reads a prefix of the panels.  The radii, shaped
    (2, panels, order), are the nodes rho and their mirror images lam/rho;
    dr/r is invariant under r -> lam/r, so both halves carry the weights
    w/rho of dr/r, shaped (panels, order).
    """
    check_lam(lam, positive=True)
    cap = 5.0 / side_length
    edges = [math.sqrt(lam)]
    while len(edges) < 2 or edges[-1] < reach:
        edges.append(edges[-1] + min(3.0 * edges[-1], cap))
    rule = QuadratureRule.panels(edges, order)
    rho = rule.nodes.reshape(-1, order)
    return np.array(edges), np.stack([rho, lam / rho]), rule.weights.reshape(rho.shape) / rho


def _ray_spectrum(store: dict, geom: TriangleGeometry, z, lam: float, order: int, build, *extra):
    """The point(s) z, flat (``_locate``), the spectrum (edges, *build(radii,
    weights)) of a ``ray_lattice`` out to the largest reach 36/d_j over the
    points and rays j (d_j the distance to side j), and the panel count that
    each ray (rows) reads for each point.  ``store`` keeps one spectrum,
    under (lam, l, order, *extra), reused while it covers the reach and else
    replaced by this call's, unless a point lies within RAY_KEEP_MARGIN l of
    a side."""
    check_lam(lam, positive=True)
    zs, dist, margins = _locate(z, geom)
    reach, key = 36.0 / dist, (lam, geom.side_length, order, *extra)
    spectrum = store.get(key)
    if spectrum is None or spectrum[0][-1] < np.max(reach):
        edges, r, w = ray_lattice(lam, geom.side_length, np.max(reach), order)
        spectrum = (edges, *build(r, w))
        if np.min(margins) >= RAY_KEEP_MARGIN * geom.side_length:
            store.clear()
            store[key] = spectrum
    return zs, spectrum, np.maximum(1, np.searchsorted(spectrum[0][:-1], reach))


def _ray_blocks(r, w, parts):
    """The node blocks (k, L) of the rays, stacked and shaped (3, panels,
    2 order): on ray j, k = r e^{i RAY_ARGS[j]} at the radii r of
    ``ray_lattice`` and L = log(parts[j] w/(2 pi i)), ``parts`` Scaled and
    shaped like r; a row holds both halves of a panel."""
    k = np.exp(1j * np.array(RAY_ARGS))[:, None, None, None] * r
    logs = np.stack([(part * (w / (2j * math.pi))).log() for part in parts])
    return tuple(np.concatenate([x[:, 0], x[:, 1]], axis=-1) for x in (k, logs))


def _atoms(k, z, lam: float, logs):
    """e^{ikz + (lam/ik) zbar + L} of the nodes k with log weights L at z."""
    return collapse(1j * k * z + lam * np.conj(z) / (1j * k) + logs)


def _field(zs, lam: float, counts, rays, residues=None):
    """Re sum of ``_atoms`` at each point of zs over the ray blocks, ray j
    over its first counts[j] rows, in one gather, and the residue block
    (k, L), if any, in full."""
    k, logs = rays
    sizes = (counts * k.shape[-1]).T.ravel()  # one segment per (point, ray)
    starts = np.cumsum(sizes) - sizes
    shift = starts - np.tile(np.arange(3) * k[0].size, zs.size)  # segments count from their block
    nodes = np.arange(np.sum(sizes)) - np.repeat(shift, sizes)
    z_nodes = np.repeat(zs, counts.sum(axis=0) * k.shape[-1])
    atoms = _atoms(k.ravel()[nodes], z_nodes, lam, logs.ravel()[nodes])
    total = np.add.reduceat(atoms, starts[::3])
    if residues is not None:
        total += _atoms(residues[0], zs[:, None], lam, residues[1]).sum(axis=1)
    return total.real


def fokas_eval(traces: TraceSet, lam: float, z):
    """q(z) from the ray representation (lam > 0 only), at a point (a float)
    or an array of points (an array shaped like ``z``).

    On ray l_j the integrand decays like exp{-(r + lam/r) d_j} with d_j the
    distance from z to side j, which sets the reach 36/d_j of both halves
    of the ``ray_lattice``.  Every ray reads rho~_j at SIDE_ROT[j] k = -i r,
    where mu = -i (r - lam/r), conjugated under r -> lam/r: one transform
    call, at the base points of one half, serves every ray and point, and
    its spectrum is kept in ``traces.spectra`` (see ``_ray_spectrum``).
    """
    geom = traces.geometry

    def build(r, w):
        relation = GlobalRelation(traces.dirichlet, traces.neumann, lam, geom.side_length)
        images = ((-1j * (r[0] - lam / r[0]).ravel(),), ((0, 0, 0), (0, 0, 1)))
        return (_ray_blocks(r, w, relation.rhos(-1j * r, images)),)

    zs, (_, rays), counts = _ray_spectrum(traces.spectra, geom, z, lam, RAY_ORDER, build)
    return _shaped(_field(zs, lam, counts, rays), z)


# -- the symmetric Dirichlet problem ---------------------------------------
def symmetric_interior(
    f, lam: float, z, geometry: TriangleGeometry | None = None, n_max: int = 64,
    order: int = RAY_ORDER,
):
    """q(z) for the symmetric Dirichlet problem directly from the data f, at
    a point (a float) or an array of points (an array shaped like ``z``).

    The representation splits into the known ray integrals (the F part of
    rho~_j plus the G/Delta terms produced by eliminating the rotated
    Psi arguments) and the residue series over the mode roots s_n: the
    upper-half roots s_n^+ contribute in full, the lower-half roots s_n^-
    are split in two halves carrying the two rotated short kernels.  G is
    read on rays 2 and 3 at k = r e^{i pi/6} and conj(k_3) = r e^{7i pi/6}
    for the outer radii r >= sqrt(lam) only, the out-up and out-down pieces
    of ``symmetric_dirichlet_integral`` on t = r - lam/r; the inner half
    r -> lam/r reads (G/Delta)(lam/conj k) = -conj (G/Delta)(k), and F(-i r)
    on both halves is an image of +i t: one ``poincare._symmetric_rays``
    call serves rays, roots and points, kept in ``f.spectra``.  Below
    lambda l^2 = SYMMETRIC_LAM_MIN it raises AccuracyError.
    """
    geom = geometry or TriangleGeometry()
    side_length = geom.side_length
    check_lam(lam, positive=True)
    if lam * side_length**2 < SYMMETRIC_LAM_MIN:
        raise AccuracyError(
            f"symmetric_interior loses accuracy below lambda l^2 = {SYMMETRIC_LAM_MIN:g} "
            f"(lambda {lam:.3e}, l {side_length:g})"
        )

    def build(r, w):
        sampler = SideSampler(f, Kind.PHI, lam, side_length)
        # F(-i r) on both halves: mu = -i t at rho and +i t at lam/rho
        roots, up, down, residues, f_ray = _symmetric_rays(
            sampler, (r[0] - lam / r[0]).ravel(), n_max, r
        )
        k = roots.k
        up, down, f_ray = up.reshape(w.shape), down.reshape(w.shape), f_ray.reshape(r.shape)
        env = Scaled.from_exp(-(r + lam / r) * (side_length / (2.0 * SQRT3)))
        # the inner halves read (G/Delta)(lam/conj k) = -conj (G/Delta)(k), and
        # ray 3 the Schwarz conjugate -conj(G/Delta)(conj k) for real symmetric data
        ray2, ray3 = np.stack([up, -up.conj()]), np.stack([-down.conj(), down])
        parts = (env * f_ray, env * (f_ray + ray2), env * (f_ray + ray3))
        # residue weights of the mode roots s_n
        denom = k * _delta_scaled(ALPHA_BAR * k, lam, side_length)
        # E^2(w) = exp(mu(w) l / sqrt(3)): E^2(i k) on s_n^+, the mean of
        # E^2(i alpha k) and E^2(i alpha_bar k) on s_n^- (the two halves agree,
        # and average exactly, on s_n^+)
        short = side_length / SQRT3
        env = 0.5 * (
            Scaled.from_exp(mu(1j * np.where(roots.plus, k, ALPHA * k), lam) * short)
            + Scaled.from_exp(mu(1j * np.where(roots.plus, k, ALPHA_BAR * k), lam) * short)
        )
        return _ray_blocks(r, w, parts), (k, (env * residues / denom).log())

    zs, (_, rays, residues), counts = _ray_spectrum(f.spectra, geom, z, lam, order, build, n_max)
    return _shaped(_field(zs, lam, counts, rays, residues), z)
