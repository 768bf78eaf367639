"""Generalized Fourier-integral solvers.

The inversion contour is the line (infinity e^{7 i pi/6}, infinity e^{i pi/6})
through the origin, parameterized by the real Fourier variable t via
mu(alpha_bar k) = -i t: the upper ray arg k = pi/6 carries t > 0 and the
lower ray arg k = 7 pi/6 carries t < 0, with radius r(t) =
(t + sqrt(t^2 + 4 lambda))/2 on either ray.  The line splits the plane into

    D+ = { pi/6 < arg k < 7 pi/6 },      D- = the complement,

and the solvers below combine a contour integral of the known part of an
eliminated global relation with residue sums over the mode roots in each
half-plane.  Three entry points:

* ``inversion_integral`` -- plain inversion of a mu-invariant transform;
* ``symmetric_dirichlet_integral`` -- the residue/contour form of the
  symmetric Dirichlet Neumann trace (dual to the series solver);
* ``mixed_nr_trace`` -- the Dirichlet trace on side 2 of the mixed
  Neumann-Robin problem (Robin gamma = sqrt(3 lambda) on side 1).

Mode roots are certified by defining-equation residuals and audited with
argument-principle winding counts (``argument_principle_count``).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, RootFindError
from .geometry import ALPHA, ALPHA_BAR, SQRT3, mu
from .problems import BCKind, ProblemSpec
from .quadrature import QuadratureRule
from .relations import ARG_FACTORS, ELIMINATION_CYCLE, RELATION_ROWS, ProblemSamplers
from .scaledc import Scaled
from .series import quadratic_mode_root
from .spectral import Kind, SideSampler
from .symbols import SideSymbol
from .traces import ContourResidueTrace

RAY_UP = cmath.exp(1j * np.pi / 6.0)
RAY_DOWN = cmath.exp(7j * np.pi / 6.0)

#: default contour truncation T = 40 (2 pi / l), panels of width 2 pi / l
T_FACTOR = 40.0
PANEL_ORDER = 16


@dataclass(frozen=True)
class ModeRoot:
    """A certified zero of a mode equation with half-plane membership."""

    k: complex
    residual: float
    plus: bool
    label: int = 0


@dataclass(frozen=True)
class HalfPlaneRootSet:
    plus: tuple
    minus: tuple

    def __iter__(self):
        return iter(self.plus + self.minus)


def in_upper_half(k: complex, tol: float = 1e-10) -> bool:
    """True for k in D+; raises if k sits on the contour within tol."""
    # rotate so the contour becomes the real axis: k e^{-i pi/6}
    w = complex(k) * cmath.exp(-1j * np.pi / 6.0)
    if abs(w.imag) <= tol * max(1.0, abs(w)):
        raise DomainError("mode root lies on the inversion contour")
    return w.imag > 0


def ray_radius(t, lam: float):
    """Radius r(t) with mu(-i r) = -i t, i.e. r - lambda/r = t, r > 0."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (t + np.sqrt(t * t + 4.0 * lam))


def contour_nodes(side_length: float, t_factor: float = T_FACTOR, order: int = PANEL_ORDER):
    """Gauss-Legendre panels on [0, T] with T = t_factor (2 pi / l)."""
    edges = np.arange(int(round(t_factor)) + 1) * (2.0 * np.pi / side_length)
    rule = QuadratureRule.panels(edges, order)
    return rule.nodes, rule.weights


def _taper(x):
    """C-infinity rolloff: 1 for x <= 1/2, 0 for x >= 1, smooth between.

    Windowing the truncated Fourier line leaves the representation exact in
    the T -> infinity limit while making the truncation error decay faster
    than any power of 1/T at interior arclengths, instead of the bare 1/T
    of a hard cutoff against the corner boundary-layer tails.
    """
    x = np.abs(np.asarray(x, dtype=float))
    u = np.clip((x - 0.5) / 0.5, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        g1 = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        g0 = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return g1 / (g0 + g1)


def _ray_grids(lam: float, side_length: float, t_factor: float, order: int):
    """Fourier nodes per ray: (t, w, k) pairs for the upper and lower ray.

    For lam > 0 each ray covers the whole t-line (the radius r(t) runs over
    all of (0, inf) as t does over R), so both rays carry two-sided grids
    and the fold factor is 1.  At lam = 0 the upper ray only reaches t >= 0
    and the lower only t <= 0: each ray is a half-cover and the fold factor
    doubles.
    """
    t, w = contour_nodes(side_length, t_factor, order)
    t_max = t_factor * 2.0 * np.pi / side_length
    w = w * _taper(t / t_max)
    if lam > 0:
        t_full = np.concatenate([-t[::-1], t])
        w_full = np.concatenate([w[::-1], w])
        grids = [
            (t_full, w_full, ray_radius(t_full, lam) * RAY_UP),
            (t_full, w_full, ray_radius(-t_full, lam) * RAY_DOWN),
        ]
        return grids, 1.0
    grids = [
        (t, w, t * RAY_UP),
        (-t, w, t * RAY_DOWN),
    ]
    return grids, 2.0


def inversion_integral(
    evaluator,
    s,
    lam: float,
    side_length: float,
    t_factor: float = T_FACTOR,
    order: int = PANEL_ORDER,
):
    """Invert a mu-invariant transform at arclength(s) ``s``.

    ``evaluator(k)`` must return the transform of the sought trace at
    spectral points k (array-valued); it may be any of the mu-invariant
    kinds, evaluated here on the outer branch of mu = -i t.  Returns
    (1/2 pi) int e^{i t s} evaluator(k(-i t)) dt over the truncated t-line.
    """
    if lam < 0:
        raise ParameterError("the integral path requires lambda >= 0")
    t, w = contour_nodes(side_length, t_factor, order)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros(s_arr.shape)
    for sign in (1.0, -1.0):
        k = quadratic_mode_root(-1j * sign * t, lam)
        vals = np.asarray(evaluator(k), dtype=complex)
        phases = np.exp(1j * sign * np.multiply.outer(s_arr, t))
        out += np.real(phases @ (w * vals)) / (2.0 * np.pi)
    return out if np.ndim(s) else float(out[0])


# -- symmetric Dirichlet ---------------------------------------------------
def _delta_scaled(k, lam, side_length) -> Scaled:
    """Delta(k) = e(k) - e(-k)."""
    half = side_length / 2.0
    m = mu(k, lam)
    return Scaled.from_exp(m * half) - Scaled.from_exp(-m * half)


def _delta_prime_scaled(k, lam, side_length) -> Scaled:
    half = side_length / 2.0
    m = mu(k, lam)
    fac = half * (1.0 - lam / (k * k))
    return fac * (Scaled.from_exp(m * half) + Scaled.from_exp(-m * half))


def _symmetric_g_scaled(sampler, k, lam, side_length) -> Scaled:
    """G(k) = (e(ab k) + e(-ab k)) F(k) + (e(k) + e(-k)) F(ab k) + 2 F(a k)."""
    half = side_length / 2.0
    m = mu(np.asarray(k, dtype=complex), lam)
    m_ab = mu(ALPHA_BAR * np.asarray(k, dtype=complex), lam)
    out = (Scaled.from_exp(m_ab * half) + Scaled.from_exp(-m_ab * half)) * sampler.eval_scaled(k)
    out = out + (Scaled.from_exp(m * half) + Scaled.from_exp(-m * half)) * sampler.eval_scaled(
        ALPHA_BAR * np.asarray(k, dtype=complex)
    )
    return out + 2.0 * sampler.eval_scaled(ALPHA * np.asarray(k, dtype=complex))


def dirichlet_mode_roots(lam: float, side_length: float, n_max: int) -> HalfPlaneRootSet:
    """The roots s_n of e^2(k) = 1 (mu = 2 pi i n / l), both branches."""
    plus, minus = [], []
    for n in range(-n_max, n_max + 1):
        if n == 0 and lam == 0:
            continue  # the n = 0 root collapses to k = 0 for Laplace
        mu_n = 2j * np.pi * n / side_length
        outer = quadratic_mode_root(mu_n, lam)
        branches = [outer]
        if lam > 0 and abs(lam / outer - outer) > 1e-12 * abs(outer):
            branches.append(lam / outer)
        for k in branches:
            if k == 0:
                continue
            resid = abs(mu(k, lam) - mu_n) / max(1.0, abs(mu_n))
            root = ModeRoot(k=k, residual=resid, plus=in_upper_half(k), label=n)
            (plus if root.plus else minus).append(root)
    return HalfPlaneRootSet(plus=tuple(plus), minus=tuple(minus))


def symmetric_dirichlet_integral(
    data,
    lam: float,
    side_length: float,
    n_max: int = 64,
    t_factor: float = T_FACTOR,
    order: int = PANEL_ORDER,
) -> ContourResidueTrace:
    """Residue/contour form of the symmetric Dirichlet Neumann trace.

    Dual to ``series.symmetric_dirichlet_dtn``: the known part is a contour
    integral of G/Delta along the two rays (each ray carrying its own half
    of the Fourier line), and the unknown part collapses to residue sums
    over the mode roots s_n in the two half-planes.
    """
    if lam < 0:
        raise ParameterError("the integral path requires lambda >= 0")
    sampler = SideSampler(data, Kind.PHI, lam, side_length)
    grids, fold = _ray_grids(lam, side_length, t_factor, order)

    # contour data on the two rays (drop any k = 0 node; only lam = 0 edge)
    ts, weighted = [], []
    for t_ray, w_ray, k_ray in grids:
        keep = np.abs(k_ray) > 0
        gd = _symmetric_g_scaled(sampler, k_ray[keep], lam, side_length) / _delta_scaled(
            k_ray[keep], lam, side_length
        )
        ts.append(t_ray[keep])
        weighted.append((-1j * fold / (2.0 * np.pi)) * w_ray[keep] * gd.to_complex())

    # residue data: coefficient and exponent rate mu(ab k) per root
    roots = list(dirichlet_mode_roots(lam, side_length, n_max))
    k = np.array([root.k for root in roots], dtype=complex)
    sign = np.where([root.plus for root in roots], -1.0, 1.0)
    g = _symmetric_g_scaled(sampler, k, lam, side_length)
    dprime = _delta_prime_scaled(k, lam, side_length)
    m_ab = mu(ALPHA_BAR * k, lam)
    denom = 1.0 - Scaled.from_exp(-sign * m_ab * side_length)
    fac = 1.0 - lam / (ALPHA_BAR * k) ** 2
    coeffs = (fold * sign * 1j * ALPHA_BAR * fac) * g / (dprime * denom)
    return ContourResidueTrace(
        side=1,
        t=np.concatenate(ts),
        weighted=np.concatenate(weighted),
        rates=m_ab,
        coeffs=coeffs,
    )


# -- closed-form elimination (verification mirror) -------------------------
def closed_form_elimination(symbols, k: complex, lam: float, side_length: float):
    """D(k) and Gamma_j(k) of the eliminated relation, from side symbols.

    Verification mirror of the numeric route: the eliminated relation reads
    D(k) H_2(ab k) Y_2(ab k) = sum_j Gamma_j(k) H_j(k) Y_j(k) + T(k) + C(k).
    """
    e = lambda kk: cmath.exp(mu(kk, lam) * side_length / 2.0)
    a, ab = ALPHA * k, ALPHA_BAR * k
    pk = [sym.p(k) for sym in symbols]
    pa = [sym.p(a) for sym in symbols]
    pab = [sym.p(ab) for sym in symbols]
    d = (pab[0] / (pa[1] * pa[2])) * (
        e(-k) ** 3 - e(k) ** 3 * (pa[0] * pa[1] * pa[2]) / (pab[0] * pab[1] * pab[2])
    )
    g1 = (1.0 / pk[0]) * (
        e(-ab) - e(-k) ** 2 * e(ab) * pk[0] * pab[0] / (pa[1] * pa[2])
    )
    g2 = (
        e(-k) ** 2
        * pab[0]
        / (pk[1] * pa[1])
        * (e(-ab) - e(k) ** 4 * e(ab) * pk[1] * pa[1] / (pab[0] * pab[2]))
    )
    g3 = (
        e(k) ** 2
        * pa[0]
        / (pk[2] * pab[2])
        * (e(-ab) - e(-k) ** 2 * e(ab) * pk[2] * pab[2] / (pa[0] * pa[1]))
    )
    return d, (g1, g2, g3)


def closed_form_d(symbols, k: complex, lam: float, side_length: float) -> complex:
    return closed_form_elimination(symbols, k, lam, side_length)[0]


def closed_form_d_prime(symbols, k: complex, lam: float, side_length: float) -> complex:
    """Analytic derivative of D(k), for Newton polishing and residues."""
    a, ab = ALPHA * k, ALPHA_BAR * k
    e3p = cmath.exp(1.5 * mu(k, lam) * side_length)
    e3m = 1.0 / e3p
    de3 = 1.5 * side_length * (1.0 - lam / (k * k))  # log-derivative of e^3(k)
    pa = [sym.p(a) for sym in symbols]
    pab = [sym.p(ab) for sym in symbols]
    dpa = [ALPHA * sym.dp(a) for sym in symbols]
    dpab = [ALPHA_BAR * sym.dp(ab) for sym in symbols]
    r1 = pab[0] / (pa[1] * pa[2])
    dr1 = r1 * (dpab[0] / pab[0] - dpa[1] / pa[1] - dpa[2] / pa[2])
    q = (pa[0] * pa[1] * pa[2]) / (pab[0] * pab[1] * pab[2])
    dq = q * sum(dpa[j] / pa[j] - dpab[j] / pab[j] for j in range(3))
    s_val = e3m - e3p * q
    ds = -de3 * e3m - de3 * e3p * q - e3p * dq
    return dr1 * s_val + r1 * ds


def argument_principle_count(
    func, box, samples_per_edge: int = 400
) -> int:
    """Winding number of ``func`` around the rectangle ``box``.

    ``box`` = (re_min, re_max, im_min, im_max); the count equals the number
    of zeros inside (for an analytic function with no poles), evaluated by
    accumulating the argument of ``func`` along the edges.
    """
    re0, re1, im0, im1 = box
    corners = [
        complex(re0, im0),
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
        complex(re0, im0),
    ]
    pts = []
    for z0, z1 in zip(corners[:-1], corners[1:]):
        pts.append(z0 + (z1 - z0) * np.arange(samples_per_edge) / samples_per_edge)
    return int(round(_winding(func(np.concatenate(pts)))))


def _winding(vals):
    vals = np.asarray(vals, dtype=complex)
    if np.any(vals == 0):
        raise RootFindError("argument-principle contour hits a zero")
    args = np.angle(vals)
    d = np.diff(np.concatenate([args, args[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(d) / (2.0 * np.pi))


def _mixed_symbols(lam: float):
    g = math.sqrt(3.0 * lam)
    return (
        SideSymbol(lam, np.pi / 2.0, g),
        SideSymbol(lam, np.pi / 2.0, 0.0),
        SideSymbol(lam, np.pi / 2.0, 0.0),
    )


def d_root_set(
    lam: float,
    side_length: float,
    count: int,
    tol: float = 1e-12,
    audit: bool = True,
) -> HalfPlaneRootSet:
    """Certified roots of D(k) = 0 for the mixed Neumann-Robin problem.

    Every mode has mu on the imaginary axis, where the mode equation is a
    monotone phase condition with exactly one solution per integer index;
    solving it for |m| <= count and mapping each mu to both k-branches
    therefore yields the complete root set in the window.  Roots are
    polished on D itself with the analytic derivative, classified into
    D+/D-, and, with ``audit=True``, cross-checked against
    argument-principle winding numbers.
    """
    if lam <= 0:
        raise ParameterError("the mixed Neumann-Robin mode set requires lambda > 0")
    rl = math.sqrt(lam)

    # On mu = iy the two sides of the mode equation are unimodular and the
    # equation collapses to the strictly increasing phase condition
    # theta(y) = 2 pi m, one root per integer m.  (Continuation in gamma
    # from the Neumann seeds alone misses the pair of modes that enters
    # through mu = 0, so the phase equation is solved directly.)
    def theta(y):
        return (
            3.0 * side_length * y
            + 2.0 * math.atan(y / rl)
            + 2.0 * math.atan(y / (2.0 * rl))
        )

    def dtheta(y):
        return (
            3.0 * side_length
            + 2.0 * rl / (y * y + lam)
            + 4.0 * rl / (y * y + 4.0 * lam)
        )

    syms = _mixed_symbols(lam)
    plus, minus = [], []
    for m in range(-count, count + 1):
        target = 2.0 * np.pi * m
        y = target / (3.0 * side_length)
        for _ in range(80):
            step = (theta(y) - target) / dtheta(y)
            y -= step
            if abs(step) < 1e-15 * max(1.0, abs(y)):
                break
        else:
            raise RootFindError(f"phase equation failed to converge at m={m}")
        mu_m = 1j * y
        if m == 0:
            branches = [1j * rl, -1j * rl]
        else:
            outer = quadratic_mode_root(mu_m, lam)
            branches = [outer, lam / outer]
        for k in branches:
            # polish on D itself and certify
            for _ in range(40):
                val = closed_form_d(syms, k, lam, side_length)
                dv = closed_form_d_prime(syms, k, lam, side_length)
                step = val / dv
                k = k - step
                if abs(step) < 1e-15 * max(1.0, abs(k)):
                    break
            scale = abs(cmath.exp(1.5 * mu(k, lam) * side_length)) + abs(
                cmath.exp(-1.5 * mu(k, lam) * side_length)
            )
            resid = abs(closed_form_d(syms, k, lam, side_length)) / scale
            if resid > tol:
                raise RootFindError(f"D-root residual {resid:.2e} above tolerance")
            root = ModeRoot(k=k, residual=resid, plus=in_upper_half(k), label=m)
            bucket = plus if root.plus else minus
            if all(abs(k - other.k) > 1e-8 * max(1.0, abs(k)) for other in bucket):
                bucket.append(root)
    roots = HalfPlaneRootSet(plus=tuple(plus), minus=tuple(minus))
    if audit:
        _audit_root_count(roots, lam, side_length)
    return roots


def _mode_equation_entire(symbols, k, lam: float, side_length: float):
    """Entire function whose zeros are exactly the D(k) = 0 mode roots,
    elementwise over an array of k.

    Clearing the P-ratio poles of D leaves
    B(k) = e^3(-k) prod_j Hbar_j(ak) H_j(abk) - e^3(k) prod_j H_j(ak) Hbar_j(abk),
    which vanishes iff e^6(k) prod_j P_j(ak)/P_j(abk) = 1, the mode condition.
    """
    a, ab = ALPHA * k, ALPHA_BAR * k
    w = 1.5 * mu(k, lam) * side_length
    prod_a = prod_b = 1.0 + 0.0j
    for sym in symbols:
        if sym.gamma == 0.0 and sym.beta == np.pi / 2.0:
            # Neumann side: hbar = -h, the P ratio is identically 1 and the
            # raw factors would inject spurious common zeros
            continue
        prod_a *= sym.hbar(a) * sym.h(ab)
        prod_b *= sym.h(a) * sym.hbar(ab)
    val = Scaled.from_exp(-w) * prod_a - Scaled.from_exp(w) * prod_b
    # winding only needs the phase, which the mantissa carries
    return val.m


def _audit_root_count(roots: HalfPlaneRootSet, lam: float, side_length: float):
    syms = _mixed_symbols(lam)
    all_roots = list(roots)
    ks = np.array([r.k for r in all_roots])
    # pad by half the vertical mode spacing so the box boundary stays
    # between consecutive roots
    pad = 0.5 * np.pi / (3.0 * side_length)
    box = (
        float(np.min(ks.real)) - 0.5,
        float(np.max(ks.real)) + 0.5,
        float(np.min(ks.imag)) - pad,
        float(np.max(ks.imag)) + pad,
    )
    func = lambda z: _mode_equation_entire(syms, z, lam, side_length)
    rect = argument_principle_count(func, box, samples_per_edge=2000)
    # k = 0 is an essential point of the mode function and the lambda/k
    # images of the modes beyond the box cluster there; carve out a circle
    # sitting between the innermost kept root and the first excluded image
    y_edge = max(abs(box[2]), abs(box[3]))
    r0 = lam / y_edge
    inner_min = float(np.min(np.abs(ks)))
    if r0 >= inner_min:
        raise RootFindError("audit exclusion circle would swallow a kept root")
    circle = int(round(_winding(func(r0 * np.exp(2j * np.pi * np.arange(4000) / 4000)))))
    got = rect - circle
    if got != len(all_roots):
        raise RootFindError(
            f"argument-principle count {got} != {len(all_roots)} found roots "
            "(possible missed or spurious roots)"
        )


class ScaledElimination:
    """T(k)/(H_2(abar k) D(k)) in exponent-carrying arithmetic.

    Walking the 6-cycle of the global-relation rows (``ELIMINATION_CYCLE``)
    by back-substitution expresses Y_2(abar k) through the data transforms
    alone; every intermediate is a ratio of well-scaled quantities, which
    keeps the result relatively accurate at arbitrarily large |k| (or near
    k = 0), where the plain double-precision solve of the assembled system
    loses all digits to its exponential dynamic range.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.lam = problem.lam
        self.side_length = problem.side_length
        self._samplers = ProblemSamplers(problem)

    def inhom(self, k) -> Scaled:
        """The inhomogeneity at a scalar k or along a 1-D array of k."""
        k_arr = np.atleast_1d(np.asarray(k, dtype=complex))
        fac = self.side_length / (2.0 * SQRT3)
        syms, data, scale = self._samplers.symbols, self._samplers.data, self._samplers.scale
        # F_j(alpha^u k) enters one base and one conjugate row each
        transforms = {
            (j, u): scale[j - 1] * data[j - 1].eval_scaled(ARG_FACTORS[u] * k_arr)
            for j in (1, 2, 3)
            for u in range(3)
        }
        coeffs, rhs = [], []
        for row in RELATION_ROWS:
            sign = 1j if row.conj else -1j
            row_coeffs, row_rhs = [], Scaled.of(0.0)
            for j, factor, u in row.terms:
                arg = factor * k_arr
                pref = Scaled.from_exp(mu(sign * arg, self.lam) * fac)
                sym = syms[j - 1]
                row_coeffs.append(pref * (sym.hbar(arg) if row.conj else sym.h(arg)))
                row_rhs = row_rhs + pref * transforms[(j, u)]
            coeffs.append(row_coeffs)
            rhs.append(row_rhs)

        prod = Scaled.of(1.0)
        acc = Scaled.of(0.0)
        for r, own, nxt in ELIMINATION_CYCLE:
            c_self = coeffs[r][own]
            acc = acc + prod * (-(rhs[r] / c_self))
            prod = prod * (-(coeffs[r][nxt] / c_self))
        out = acc / (1.0 - prod)
        return out if np.ndim(k) else Scaled(out.m[0], out.sigma[0])


def root_circle_radius(k0: complex, lam: float, side_length: float) -> float:
    """Safe residue-circle radius around the D-root ``k0``.

    The mode roots are uniformly spaced in mu; pulling the spacing back
    through dk/dmu = 1/(1 - lambda/k^2) keeps the circle clear of the
    neighbouring poles even where the lambda/k branch clusters near zero.
    """
    spacing = 2.0 * np.pi / (3.0 * side_length)
    pullback = abs(1.0 - lam / (k0 * k0))
    return 0.3 * min(spacing / max(pullback, 1e-30), abs(k0))


def residue_of_inhomogeneity(
    problem: ProblemSpec, k0: complex, radius: float, nodes: int = 32
) -> complex:
    """Residue at ``k0`` of the elimination inhomogeneity T/(H_2(ab k) D(k)).

    Extracted by trapezoid quadrature on a small circle, which is spectrally
    accurate for the simple poles at the D-roots.
    """
    elim = problem if isinstance(problem, ScaledElimination) else ScaledElimination(problem)
    offsets = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return complex((elim.inhom(k0 + offsets) * offsets).sum().to_complex()) / nodes


def mixed_nr_trace(
    problem: ProblemSpec,
    count: int = 40,
    t_factor: float = T_FACTOR,
    order: int = PANEL_ORDER,
) -> ContourResidueTrace:
    """Dirichlet trace on side 2 of the mixed Neumann-Robin problem.

    ``problem`` must carry the Robin condition with gamma = sqrt(3 lambda)
    on side 1 and Neumann conditions on sides 2 and 3.  The trace combines
    the contour integral of the elimination inhomogeneity with residue sums
    over the certified D-roots in the two half-planes.
    """
    lam = problem.lam
    side_length = problem.geometry.side_length
    _validate_mixed(problem)
    elim = ScaledElimination(problem)
    grids, _ = _ray_grids(lam, side_length, t_factor, order)
    weighted = [w * elim.inhom(k).to_complex() / (2.0 * np.pi) for _, w, k in grids]

    roots = list(d_root_set(lam, side_length, count))
    k = np.array([root.k for root in roots], dtype=complex)
    res = np.array(
        [residue_of_inhomogeneity(elim, kk, root_circle_radius(kk, lam, side_length)) for kk in k]
    )
    sign = np.where([root.plus for root in roots], 1.0, -1.0)
    p1 = _mixed_symbols(lam)[0].p(ALPHA * k)
    e6 = Scaled.from_exp(6.0 * mu(sign * 1j * ALPHA * k, lam) * side_length / (2.0 * SQRT3))
    denom = 1.0 + e6 * np.where(sign > 0, 1.0 / p1, p1)
    fac = 1.0 - lam / (ALPHA_BAR * k) ** 2
    return ContourResidueTrace(
        side=2,
        t=np.concatenate([t_ray for t_ray, _, _ in grids]),
        weighted=np.concatenate(weighted),
        rates=mu(ALPHA_BAR * k, lam),
        coeffs=(sign * ALPHA_BAR * fac * res) / denom,
    )


def _validate_mixed(problem: ProblemSpec):
    lam = problem.lam
    if lam <= 0:
        raise ParameterError("the mixed Neumann-Robin solver requires lambda > 0")
    sides = problem.sides
    g = math.sqrt(3.0 * lam)
    ok = (
        sides[0].kind in (BCKind.ROBIN, BCKind.POINCARE)
        and abs(sides[0].gamma - g) <= 1e-10 * max(1.0, g)
        and sides[1].kind == BCKind.NEUMANN
        and sides[2].kind == BCKind.NEUMANN
    )
    if not ok:
        raise ParameterError(
            "expected Robin gamma = sqrt(3 lambda) on side 1 and Neumann on sides 2, 3"
        )