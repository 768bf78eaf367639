"""Generalized Fourier-integral solvers.

The inversion contour is the line (infinity e^{7 i pi/6}, infinity e^{i pi/6})
through the origin, parameterized by the real Fourier variable t via
mu(alpha_bar k) = -i t: the upper ray arg k = pi/6 carries t > 0 and the
lower ray arg k = 7 pi/6 carries t < 0, with radius r(t) =
(t + sqrt(t^2 + 4 lambda))/2 on either ray.  The line splits the plane into

    D+ = { pi/6 < arg k < 7 pi/6 },      D- = the complement,

and the solvers below combine a contour integral of the known part of an
eliminated global relation (for the mixed problem the cycle walk of
``relations.ScaledElimination``, re-exported here) with residue sums over
the mode roots in each half-plane.  Two entry points:

* ``symmetric_dirichlet_integral`` -- the residue/contour form of the
  symmetric Dirichlet Neumann trace (dual to the series solver);
* ``mixed_nr_trace`` -- the Dirichlet trace on side 2 of the mixed
  Neumann-Robin problem (Robin gamma = sqrt(3 lambda) on side 1).

Mode roots are found for all modes at once and kept as arrays
(``ModeRootSet``), certified by defining-equation residuals.  The mixed
problem's mode condition is one function of mu (``mixed_mode_terms``, in
plain complex arithmetic, as its e^{+-w} has |Re w| <= 3/4 wherever it is
read): it
certifies each root of the phase equation, and an argument-principle count
of its zeros in the mu-plane audits the set.
For real data both ray integrands reflect under k -> lambda/conj(k), outer
piece onto inner, so the solvers evaluate the outer pieces only, their
transforms summed on two base families (``_contour_images``).  Residues are
taken in closed form, never on circles, from the same evaluation as the
rays: G/Delta' at the symmetric roots (``_symmetric_rays``, for this module
and ``interior``), and -acc/prod' of the cycle walk at the mixed problem's
D+ roots and their negatives, the D- roots, which
``ScaledElimination.inhom_and_residues`` walks in one pass with the ray
points (one transform recurrence, one row assembly, one walk).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, ParameterError, RootFindError
from .geometry import ALPHA, ALPHA_BAR, SQRT3, mu
from .problems import BCKind, ProblemSpec, check_lam
from .quadrature import QuadratureRule
from .relations import ARG_FACTORS, ScaledElimination  # callers patch ScaledElimination here
from .scaledc import Scaled
from .series import RESONANCE_RTOL, _newton, _rotations, _series_mode_roots, quadratic_mode_root
from .series import _delta_scaled, _symmetric_g  # G and Delta, owned by series
from .spectral import Kind, SideSampler, transforms
from .symbols import SideSymbol
from .traces import ExponentialSumTrace

RAY_UP = cmath.exp(1j * np.pi / 6.0)
RAY_DOWN = cmath.exp(7j * np.pi / 6.0)

#: default contour truncation T = 40 (2 pi / l), panels of width 2 pi / l
T_FACTOR = 40.0
#: Gauss-Legendre order of the contour panels
PANEL_ORDER = 16

#: the lambda l^2 over which ``mixed_nr_trace`` is certified: at count 64 and
#: T = 40 it errs on |s| <= 0.45 l by at most 4.3e-4 (at 3e-4, of 15 values)
#: of the largest datum or exact trace value on the side (criterion-6 fields;
#: 7.0e-4 at 1e-5), an error of the contour truncation, not of the residues
MIXED_LAM_RANGE = (1e-4, 1e3)


@dataclass(frozen=True)
class ModeRoot:
    """A certified zero of a mode equation with half-plane membership."""

    k: complex
    residual: float
    plus: bool
    label: int = 0


@dataclass(frozen=True, eq=False)
class ModeRootSet:
    """Certified mode roots as arrays, the D+ roots first and each
    half-plane in mode order; iterating yields ``ModeRoot`` records."""

    k: np.ndarray
    residual: np.ndarray
    plus: np.ndarray
    label: np.ndarray

    @classmethod
    def of(cls, k, residual, label) -> "ModeRootSet":
        """Roots listed in mode order, split into D+ and D-."""
        plus = in_upper_half(k)
        order = np.argsort(~plus, kind="stable")
        return cls(k[order], residual[order], plus[order], label[order])

    def __len__(self):
        return self.k.size

    def __iter__(self):
        return map(ModeRoot, *(a.tolist() for a in (self.k, self.residual, self.plus, self.label)))


def in_upper_half(k):
    """True for k in D+, elementwise; raises if a k sits on the contour, a
    line through k = 0, within 1e-10 in angle (k = 0 included)."""
    # rotate so the contour becomes the real axis: k e^{-i pi/6}
    w = np.asarray(k, dtype=complex) * cmath.exp(-1j * np.pi / 6.0)
    if np.any(np.abs(w.imag) <= 1e-10 * np.abs(w)):
        raise DomainError("mode root lies on the inversion contour")
    return w.imag > 0


def ray_radius(t, lam: float):
    """Radius r(t) with mu(-i r) = -i t, i.e. r - lambda/r = t, r > 0; for
    t < 0 as 2 lambda/(sqrt(t^2 + 4 lambda) - t), free of cancellation."""
    t = np.asarray(t, dtype=float)
    root = np.sqrt(t * t + 4.0 * lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t < 0.0, 2.0 * lam / (root - t), 0.5 * (t + root))


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


def _ray_grids(lam: float, side_length: float, t_factor: float):
    """The contour lattice and its ray points: Gauss-Legendre panels of width
    step = 2 pi / l on [0, T], T = t_factor step, as offsets (one panel's
    nodes), step, the nodes t[p, j] = offsets[j] + p step and their tapered
    weights, shaped (panels, PANEL_ORDER), and the points k of the Fourier
    nodes t and -t on the two rays (``_ray_points``), shaped (2, panels,
    PANEL_ORDER).

    For lam > 0 each ray covers the whole t-line (the radius r(t) runs over
    all of (0, inf) as t does over R): its inner pieces, -t on the upper ray
    and t on the lower, sit at k -> lambda/conj(k) of these outer ones, and
    the solvers fill their integrands in by reflection.  At lam = 0, r(t) = t
    and the upper ray only reaches t >= 0, the lower only t <= 0.
    """
    if not t_factor > 0.5:  # round(t_factor) panels, at least one
        raise ParameterError(f"t_factor must exceed 0.5, got {t_factor}")
    step = 2.0 * np.pi / side_length
    rule = QuadratureRule.panels((0.0, step), PANEL_ORDER)
    t = rule.nodes + step * np.arange(int(round(t_factor)))[:, None]
    w = rule.weights * _taper(t / (t_factor * 2.0 * np.pi / side_length))
    return rule.nodes, step, t, w, _ray_points(t, lam)


def _ray_points(t, lam: float):
    """The points r(t) e^{i pi/6} (out-up, Fourier node t) and their
    negatives r(t) e^{7i pi/6} (out-down, node -t) of the nodes t >= 0."""
    return np.multiply.outer((RAY_UP, RAY_DOWN), ray_radius(t, lam))


#: the block (family, negate, conjugate) of the out-up ray piece on the base
#: families mu(r e^{i pi/6}) and i t, per unknown slot: alpha k = -conj(k),
#: and alpha_bar k = -i r has mu = -i t
_RAY_IMAGES = ((0, 0, 0), (0, 1, 1), (1, 0, 1))


def _contour_images(lam, t, slots, own=None):
    """The images (``spectral.transforms``) of the points ARG_FACTORS[slot] k
    for each slot in ``slots``, k being the out-up and out-down ray pieces
    on the Fourier nodes t (a 1-D array), then the points ``own`` if given.
    The ray pieces are images of two base families on t, mu(r(t) e^{i pi/6})
    and +i t; each rotation of ``own`` is a base of its own.  k -> -k
    negates mu."""
    r = ray_radius(t, lam)
    bases = [(r + lam / r) * (0.5 * SQRT3) + 0.5j * t, 1j * t]
    blocks = []
    for slot in slots:
        family, negate, conjugate = _RAY_IMAGES[slot]
        blocks += [(family, negate, conjugate), (family, 1 - negate, conjugate)]
        if own is not None:
            blocks.append((len(bases), 0, 0))
            bases.append(mu(ARG_FACTORS[slot] * own, lam))
    return bases, blocks


# -- symmetric Dirichlet ---------------------------------------------------
def dirichlet_mode_roots(lam: float, side_length: float, n_max: int) -> ModeRootSet:
    """The roots s_n of e^2(k) = 1 (mu = 2 pi i n / l), both branches where
    distinct; at lambda = 0 the inner one is k = 0.  n = 0 has no roots at
    lambda = 0, nor where ``series._series_mode_roots`` takes it as there."""
    n, live, outer = _series_mode_roots(lam, side_length, side_length, n_max)
    k = np.stack([outer, lam / outer], axis=-1)
    keep = np.ones(k.shape, dtype=bool)
    keep[:, 1] = (lam > 0) & (np.abs(k[:, 1] - outer) > 1e-12 * np.abs(outer))
    k, n = k[keep], np.repeat(n[live], 2)[keep.ravel()]
    mu_n = 2j * np.pi * n / side_length
    resid = np.abs(mu(k, lam) - mu_n) / np.maximum(1.0, np.abs(mu_n))
    return ModeRootSet.of(k, resid, n)


def _symmetric_rays(sampler: SideSampler, t, n_max: int, radii=None):
    """The symmetric Dirichlet problem's mode roots (``dirichlet_mode_roots``),
    G/Delta on the out-up and out-down ray pieces of the Fourier nodes t (a
    1-D array), the residues G/Delta' at the roots and, given the ``radii``
    r and lambda/r of the nodes (r - lambda/r = t), F(-i r) at both: all
    from one ``transforms`` call of ``sampler``."""
    lam, side_length = sampler.lam, sampler.side_length
    roots = dirichlet_mode_roots(lam, side_length, n_max)
    k_ray, k = _ray_points(t, lam), roots.k
    points = np.concatenate([k_ray.ravel(), k])
    bases, blocks = _contour_images(lam, t, (0, 2, 1), k)
    f_points = _rotations(points).ravel()
    if radii is not None:
        f_points = np.concatenate([f_points, -1j * np.ravel(radii)])
        blocks += [(1, 1, 0), (1, 0, 0)]
    f = transforms([sampler], f_points, (bases, blocks))[0]
    g = _symmetric_g(f[: 3 * points.size].reshape((3, -1)), points, lam, side_length)
    gd = g[: k_ray.size] / _delta_scaled(k_ray.ravel(), lam, side_length)
    up, down = gd.to_complex().reshape(k_ray.shape)
    # Delta'(k) = (l/2) (1 - lambda/k^2) (e(k) + e(-k))
    half = side_length / 2.0
    plus, minus = Scaled.exp_pair(mu(k, lam) * half)
    residues = g[k_ray.size :] / (half * (1.0 - lam / (k * k)) * (plus + minus))
    return roots, up, down, residues, f[3 * points.size :]


def symmetric_dirichlet_integral(
    data,
    lam: float,
    side_length: float,
    n_max: int = 64,
    t_factor: float = T_FACTOR,
) -> ExponentialSumTrace:
    """Residue/contour form of the symmetric Dirichlet Neumann trace.

    Dual to ``series.symmetric_dirichlet_dtn``: the known part is a contour
    integral of G/Delta along the two rays (each ray carrying its own half
    of the Fourier line), and the unknown part collapses to residue sums
    over the mode roots s_n in the two half-planes.  Below sqrt(3 lambda)
    l/2 = ``series.RESONANCE_RTOL`` it is the lambda = 0 trace, equal to
    rounding: there the root pair k = +-i sqrt(lambda) divides a cancelled G
    by a denominator of that size.
    """
    check_lam(lam)
    if not n_max >= 0:
        raise ParameterError(f"n_max must be at least 0, got {n_max}")
    if math.sqrt(3.0 * lam) * (side_length / 2.0) < RESONANCE_RTOL:
        lam = 0.0
    sampler = SideSampler(data, Kind.PHI, lam, side_length)
    offsets, step, t, w, _ = _ray_grids(lam, side_length, t_factor)

    # G on the two rays (whose Gauss nodes avoid t = 0, so k = 0 too) and at
    # the mode roots, in one evaluation
    roots, up, down, residues, _ = _symmetric_rays(sampler, t.ravel(), n_max)
    k = roots.k
    # the fold of the four pieces onto t >= 0, closed by (G/Delta)(lambda/conj k)
    # = -conj (G/Delta)(k); the two half-covers at lambda = 0 sum the same
    weighted = (-1j / np.pi) * w * (up - down.conj()).reshape(w.shape)

    # residue data: coefficient and exponent rate mu(ab k) per root; at
    # lambda = 0 only the outer root of each mode is left and counts twice
    fold = 1.0 if lam > 0 else 2.0
    sign = np.where(roots.plus, -1.0, 1.0)
    m_ab = mu(ALPHA_BAR * k, lam)
    denom = 1.0 - Scaled.from_exp(-sign * m_ab * side_length)
    fac = 1.0 - lam / (ALPHA_BAR * k) ** 2
    coeffs = (fold * sign * 1j * ALPHA_BAR * fac) * residues / denom
    return ExponentialSumTrace(1, offsets, step, weighted, m_ab, coeffs)


#: the most points a winding count samples its contour at, unless one
#: doubling of its first sampling needs more
MAX_WINDING_POINTS = 1 << 18


def argument_principle_count(func, box, samples_per_edge: int = 400) -> int:
    """Number of zeros of ``func`` (analytic, no poles) inside the rectangle
    ``box`` = (re_min, re_max, im_min, im_max): its winding number along the
    edges from n = ``samples_per_edge`` points per edge, n doubled until no
    argument step exceeds pi/2 (one beyond pi aliases), up to the larger of
    ``MAX_WINDING_POINTS`` points and one doubling of the first 4 n."""
    re0, re1, im0, im1 = box
    corners = np.array([complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)])
    steps = np.roll(corners, -1) - corners
    n = samples_per_edge
    budget = max(MAX_WINDING_POINTS, 8 * n)
    while True:
        path = (corners[:, None] + steps[:, None] * (np.arange(n) / n)).ravel()
        vals = np.asarray(func(path), dtype=complex)
        if np.any(vals == 0):
            raise RootFindError("argument-principle contour hits a zero")
        args = np.angle(vals)
        d = (np.diff(args, append=args[:1]) + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(d)) <= np.pi / 2.0:
            return int(round(np.sum(d) / (2.0 * np.pi)))
        if 2 * vals.size > budget:
            raise RootFindError(f"argument-principle contour unresolved at {vals.size} points")
        n *= 2


def _robin_symbol(lam: float) -> SideSymbol:
    """The mixed problem's Robin condition on side 1: beta = pi/2, gamma =
    sqrt(3 lambda)."""
    return SideSymbol(lam, np.pi / 2.0, math.sqrt(3.0 * lam))


def mixed_mode_terms(mu_value, lam: float, side_length: float, w=None):
    """The two terms (t1, t2) of the mixed Neumann-Robin mode function
    B = t1 - t2 at mu, elementwise over an array, as complex values.

    Clearing the P-ratio poles of D(k) leaves
    B = e^{-w} Hbar_1(ak) H_1(abk) - e^{w} H_1(ak) Hbar_1(abk), w = 3 mu l/2,
    which vanishes iff e^6(k) P_1(ak)/P_1(abk) = 1, the mode condition (the
    Neumann sides have P = -1 and cancel).  B is invariant under
    k -> lambda/k, so it is a function of mu: k is the outer root of
    k + lambda/k = mu, and w is read from mu itself, not from mu(k), or
    given as ``w`` by a caller that knows it up to whole turns 2 pi i.
    Both callers keep |Re w| <= 3/4, so e^{+-w} needs no exponent:
    ``d_root_set`` passes w on the imaginary axis, and its audit box has
    |Re mu| l <= 1/2.
    """
    k = quadratic_mode_root(mu_value, lam)
    robin = _robin_symbol(lam)
    a, ab = ALPHA * k, ALPHA_BAR * k
    plus = np.exp(1.5 * mu_value * side_length if w is None else w)
    return robin.hbar(a) * robin.h(ab) / plus, plus * (robin.h(a) * robin.hbar(ab))


def d_root_set(lam: float, side_length: float, count: int, audit: bool = True) -> ModeRootSet:
    """Certified roots of D(k) = 0 for the mixed Neumann-Robin problem.

    Each mode is one mu = k + lambda/k on the imaginary axis, where the mode
    condition is a monotone phase equation with one solution per integer m,
    |m| <= count.  Each mode is certified by the residual
    |B| / (|t1| + |t2|) <= 1e-12 of ``mixed_mode_terms`` at that mu; its roots
    are the outer k-branch and lambda/outer, classified into D+/D-.  With
    ``audit=True`` the modes are counted in the mu-plane
    (``_audit_root_count``).
    """
    check_lam(lam, positive=True)
    if not count >= 0:
        raise ParameterError(f"count must be at least 0, got {count}")
    rl = math.sqrt(lam)

    # On mu = iy the two sides of the mode equation are unimodular and the
    # equation collapses to the strictly increasing phase condition
    # theta(y) = 2 pi m, one root per integer m.  (Continuation in gamma
    # from the Neumann seeds alone misses the pair of modes that enters
    # through mu = 0, so the phase equation is solved directly.)  Mode m is
    # y = 2 pi m/(3 l) + delta, Newton in delta: neither theta - 2 pi m nor
    # w = 3 mu l/2 = i pi m + (3/2) i l delta is formed from 3 l y.
    base = 2.0 * np.pi * np.arange(count + 2) / (3.0 * side_length)

    def phase_step(delta):
        y = base + delta
        theta = 3.0 * side_length * delta + 2.0 * np.arctan(y / rl) + 2.0 * np.arctan(y / (2.0 * rl))
        dtheta = 3.0 * side_length + 2.0 * rl / (y * y + lam) + 4.0 * rl / (y * y + 4.0 * lam)
        return theta / dtheta

    # theta is odd, so mode -m is mode m negated: solved for m >= 0, the
    # modes m = -count-1..count+1 (whose ends only place the edges of the
    # audit box) keep the roots of +-m exact negatives
    delta, converged = _newton(phase_step, np.zeros(count + 2), 80, 1e-15)
    if not converged:
        raise RootFindError("phase equation failed to converge")
    m, delta = np.arange(-count - 1, count + 2), np.concatenate([-delta[:0:-1], delta])
    y = 2.0 * np.pi * m / (3.0 * side_length) + delta
    # a NaN shows up as a residual that is not <= 1e-12
    mu_kept, w = 1j * y[1:-1], 1j * (np.pi * (m % 2) + 1.5 * side_length * delta)[1:-1]
    t1, t2 = mixed_mode_terms(mu_kept, lam, side_length, w)
    resid = np.abs(t1 - t2) / (np.abs(t1) + np.abs(t2))
    failed = ~(resid <= 1e-12)
    if failed.any():
        raise RootFindError(f"D-root residual {np.max(resid[failed]):.2e} above tolerance")
    # the outer branch of each mode m >= 0 and its image lambda/outer (at
    # m = 0 the tie-break gives i sqrt(lambda), whose image is its negative)
    outer = quadratic_mode_root(mu_kept[count:], lam)
    half = np.stack([outer, lam / outer], axis=-1)
    half[0, 1] = -outer[0]
    k = np.concatenate([-half[:0:-1], half]).ravel()
    roots = ModeRootSet.of(k, np.repeat(resid, 2), m[1:-1].repeat(2))
    if audit:
        edges = (0.5 * (y[0] + y[1]), 0.5 * (y[-2] + y[-1]))
        _audit_root_count(roots.k, lam, side_length, edges)
    return roots


def _audit_root_count(ks, lam: float, side_length: float, edges):
    """RootFindError unless the roots ``ks`` pair up as (k, lambda/k), one
    pair per zero of the mode function in the box |Re mu| l <= 1/2,
    edges[0] <= Im mu <= edges[1]; as a function of mu it has no essential
    point (k = 0 maps to mu = infinity), so the box needs no exclusion."""
    # sorted by Im mu, the two branches of each mode sit side by side
    pairs = ks[np.argsort(mu(ks, lam).imag, kind="stable")]
    if pairs.size % 2 or np.any(np.abs(pairs[::2] * pairs[1::2] - lam) > 1e-8 * lam):
        raise RootFindError("D-roots do not pair up as (k, lambda/k)")
    modes = pairs.size // 2

    # each vertical edge carries about pi of phase per mode: at 4 samples per
    # mode no step comes near 2 pi, which would pass as a small one
    box = (-0.5 / side_length, 0.5 / side_length, *edges)
    mode_function = lambda z: np.subtract(*mixed_mode_terms(z, lam, side_length))  # noqa: E731
    got = argument_principle_count(mode_function, box, max(400, 4 * modes))
    if got != modes:
        raise RootFindError(
            f"argument-principle count {got} != {modes} found modes "
            "(possible missed or spurious roots)"
        )


def residue_of_inhomogeneity(res: Scaled, k, lam: float) -> Scaled:
    """The residues ``res`` of the inhomogeneity T/(H_2(ab k) D(k)) at the
    D-roots ``k`` (``ScaledElimination.inhom_and_residues``), checked:
    AccuracyError where one is not finite."""
    bad = ~(np.isfinite(res.m) & (res.sigma < np.inf))
    if bad.any():
        raise AccuracyError(
            f"mixed Neumann-Robin residue at k = {k[bad][0]:.6g} not finite, lambda {lam:g}"
        )
    return res


def mixed_nr_trace(
    problem: ProblemSpec, count: int = 40, t_factor: float = T_FACTOR
) -> ExponentialSumTrace:
    """Dirichlet trace on side 2 of the mixed Neumann-Robin problem.

    ``problem`` must carry the Robin condition with gamma = sqrt(3 lambda)
    on side 1 and Neumann conditions on sides 2 and 3.  The trace combines
    the contour integral of the elimination inhomogeneity X with residue sums
    over the certified D-roots in the two half-planes.  X is evaluated on
    the out-up and out-down ray pieces only: the inner pieces read
    X(lambda/conj k) = conj X(k).  Its residues are closed-form, from the
    same elimination as the rays.  Outside ``MIXED_LAM_RANGE`` of lambda
    l^2, or at a residue that is not finite, it raises ``AccuracyError``.
    """
    lam, side_length = problem.lam, problem.geometry.side_length
    validate_mixed(problem)
    lo, hi = MIXED_LAM_RANGE
    scaled_lam = lam * side_length * side_length
    if not lo <= scaled_lam <= hi:
        raise AccuracyError(
            f"mixed Neumann-Robin trace: lambda l^2 = {scaled_lam:.3g} lies "
            f"outside the certified range [{lo:g}, {hi:g}]"
        )
    offsets, step, t, w, k_ray = _ray_grids(lam, side_length, t_factor)
    roots = d_root_set(lam, side_length, count)
    # the D- roots are the D+ roots negated
    k = roots.k[roots.plus]
    k, sign = np.concatenate([k, -k]), np.repeat([1.0, -1.0], k.size)
    # both rays, summed on their two base families, and the roots in one elimination
    images = _contour_images(lam, t.ravel(), (0, 1, 2), k)
    x, res = ScaledElimination(problem).inhom_and_residues(k_ray.ravel(), k, images)
    up, down = x.to_complex().reshape(k_ray.shape)
    # the fold of the four pieces onto t >= 0, closed by X(lambda/conj k) = conj X(k)
    weighted = (w / np.pi) * (up + down.conj())
    res = residue_of_inhomogeneity(res, k, lam)
    p1 = _robin_symbol(lam).p(ALPHA * k)
    e6 = Scaled.from_exp(6.0 * mu(sign * 1j * ALPHA * k, lam) * side_length / (2.0 * SQRT3))
    denom = 1.0 + e6 * np.where(sign > 0, 1.0 / p1, p1)
    fac = 1.0 - lam / (ALPHA_BAR * k) ** 2
    coeffs = (sign * ALPHA_BAR * fac * res) / denom
    return ExponentialSumTrace(2, offsets, step, weighted, mu(ALPHA_BAR * k, lam), coeffs)


def validate_mixed(problem: ProblemSpec):
    """ParameterError unless ``mixed_nr_trace`` solves ``problem``."""
    lam = problem.lam
    check_lam(lam, positive=True)
    sides = problem.sides
    g = math.sqrt(3.0 * lam)
    # the mode roots are those of beta = pi/2 on every side
    ok = (
        sides[0].kind in (BCKind.ROBIN, BCKind.POINCARE)
        and abs(sides[0].beta - math.pi / 2.0) <= 1e-10
        and abs(sides[0].gamma - g) <= 1e-10 * max(1.0, g)
        and sides[1].kind == BCKind.NEUMANN
        and sides[2].kind == BCKind.NEUMANN
    )
    if not ok:
        raise ParameterError(
            "expected Robin beta = pi/2, gamma = sqrt(3 lambda) on side 1 and Neumann on sides 2, 3"
        )