"""Boundary maps as exact Fourier series.

The solvable boundary-value problems on the equilateral triangle admit
Fourier series for the unknown boundary data whose coefficients are finite
combinations of spectral transforms of the given data, evaluated at the
roots of

    k + lambda/k = 2 pi i m / (3 l),      m integer

(the period-l problems use only m = 3n).  Three maps are provided:

* ``symmetric_dirichlet_dtn`` -- identical Dirichlet data on the three
  sides; the common Neumann trace is a period-l series.
* ``general_dirichlet_dtn`` -- arbitrary Dirichlet data; the three Neumann
  traces share one period-3l coefficient sequence M(k_m), distributed to
  the sides by cube-root-of-unity chain weights.
* ``neumann_to_dirichlet`` -- arbitrary Neumann data; same structure with
  coefficients N(k_m).

For the oblique Robin problem (common beta, gamma on all sides) the modes
move to transcendental points: ``robin_mode_root`` tracks them from the
gamma = 0 seeds and ``robin_moment`` returns the generalized moment of the
unknown Dirichlet traces at such a mode.

The general maps and the Robin moments read one formula: at a mode root
the cycle walk of the six global-relation rows (``relations.mode_moment``)
leaves 0 = acc + sum_j A_j X_j(k), and the moment of the unknowns is
-acc/(A_1 scale_1), all in exponent-carrying (``Scaled``) arithmetic, since
the individual e/E factors overflow double precision long before the
ratios do.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import AccuracyError, ParameterError, RootFindError, SolvabilityError
from .geometry import ALPHA, ALPHA_BAR, SQRT3, TriangleGeometry, mu
from .problems import BCKind, ProblemSpec, SideCondition, check_lam, dirichlet_problem, neumann_problem
from .quadrature import QuadratureRule
from .relations import mode_moment
from .scaledc import Scaled
from .spectral import Kind, SideSampler, series_legendre
from .symbols import SideSymbol
from .traces import ExponentialSumTrace

#: the w = sqrt(3 lambda) l/2 of the m = 0 mode below which the series maps
#: (and ``poincare.symmetric_dirichlet_integral``) take that mode as at
#: lambda = 0 (``_series_mode_roots``)
RESONANCE_RTOL = 1e-10

#: the rounding of the total flux, in units of eps times the perimeter times
#: the largest datum (measured: 1.2 for cos data on all sides)
FLUX_ULPS = 8.0
#: the largest error, relative to the trace scale, that the rounding of the
#: total flux may put into the boundary mean of ``neumann_to_dirichlet``
MEAN_RTOL = 1e-6

#: chain weights (c1, c2) distributing M(k_{3n-1}), M(k_{3n-2}) to the sides
CHAIN_WEIGHTS = {1: (1.0, 1.0), 2: (ALPHA_BAR, ALPHA), 3: (ALPHA, ALPHA_BAR)}


def quadratic_mode_root(mu_value, lam: float):
    """The root of k + lambda/k = mu_value on the outer branch, elementwise.

    Of the two roots (whose product is lambda) the one with larger modulus
    is returned, so |k| >= sqrt(lambda); ties are broken toward larger real
    part, then larger imaginary part.
    """
    mu_arr = np.asarray(mu_value, dtype=complex)
    disc = np.sqrt(mu_arr * mu_arr - 4.0 * lam + 0j)
    k1 = 0.5 * (mu_arr + disc)
    k2 = 0.5 * (mu_arr - disc)
    a1, a2 = np.abs(k1), np.abs(k2)
    second = (a2 > a1) | (a2 == a1) & (
        (k2.real > k1.real) | (k2.real == k1.real) & (k2.imag > k1.imag)
    )
    k = np.where(second, k2, k1)
    if np.any(k == 0):
        raise ParameterError("mode root degenerates to k = 0")
    return k if k.ndim else complex(k)


def _rotations(k):
    """The rotated arguments k, alpha_bar k, alpha k, stacked."""
    return np.stack([k, ALPHA_BAR * k, ALPHA * k])


def _finalize(side, side_length, modes, coeffs) -> ExponentialSumTrace:
    """The series sum_m coeffs[m] exp(-2 pi i m s/(3 l)) as a one-offset
    lattice.  With g the gcd of the labels, label m goes to node |m|/g of
    step 2 pi g/(3 l), formed in long double since the powers of the carrier
    carry its rounding.  A label m <= 0 keeps its coefficient and a label
    m > 0 takes its conjugate, as Re(c e^{-ix}) = Re(conj(c) e^{ix}).  The
    imbalance, taken before the fold, is sum_n |Im a_n| over the Legendre
    coefficients a_n of the complex series: |P_n| <= 1 on the side, so it
    bounds the imaginary part that the real part drops there."""
    modes, coeffs = np.asarray(modes, dtype=int), np.asarray(coeffs, dtype=complex)
    if modes.shape != coeffs.shape:
        raise ParameterError(f"series labels {modes.shape} and coeffs {coeffs.shape} do not match")
    imbalance = float(np.sum(np.abs(series_legendre(modes, coeffs).imag)))
    g = int(np.gcd.reduce(modes)) or 1
    weighted = np.zeros((np.max(np.abs(modes)) // g + 1, 1), dtype=complex)
    np.add.at(weighted[:, 0], np.abs(modes) // g, np.where(modes > 0, np.conj(coeffs), coeffs))
    step = 8 * np.arctan(np.longdouble(1)) * g / (3 * np.longdouble(side_length))
    free = np.zeros(0)
    return ExponentialSumTrace(side, np.zeros(1), step, weighted, free, Scaled.of(free), imbalance)


def _mode_roots(lam: float, period: float, m_max: int):
    """Labels m = -m_max..m_max, the mask of the modes that have a root and
    those roots, k + lambda/k = 2 pi i m / period.  At lambda = 0 the m = 0
    mode has none (its coefficient is fixed to zero by the callers)."""
    m = np.arange(-m_max, m_max + 1)
    live = (m != 0) | (lam != 0.0)
    return m, live, quadratic_mode_root(2j * np.pi * m[live] / period, lam)


def _series_mode_roots(lam: float, side_length: float, period: float, m_max: int):
    """``_mode_roots`` for the series maps, which take the m = 0 mode as at
    lambda = 0 also once its w = mu(alpha_bar k_0) l/2 = sqrt(3 lambda) l/2
    falls below RESONANCE_RTOL: its denominator, 2 sinh(w), is then a
    removable zero, and the coefficient has reached its lambda = 0 value to
    within that threshold."""
    # No other mode denominator vanishes: at the outer root k of k + lambda/k
    # = iy, Re mu(alpha_bar k) = sign(y) (sqrt(3)/2) sqrt(y^2 + 4 lambda) (+ at
    # y = 0), so |Re w| >= pi/(2 sqrt 3) for m != 0, where the general maps'
    # alpha_bar^m e(alpha_bar k) - e(-alpha_bar k) is at least 0.83 of its
    # scale and the symmetric map's sinh(w) at least 0.49.
    m, live, k = _mode_roots(lam, period, m_max)
    if math.sqrt(3.0 * lam) * (side_length / 2.0) < RESONANCE_RTOL:
        k, live = k[m[live] != 0], live & (m != 0)
    return m, live, k


def symmetric_dirichlet_dtn(
    data, lam: float, side_length: float, n_max: int = 64
) -> ExponentialSumTrace:
    """Neumann trace for identical Dirichlet data on all three sides.

    ``data`` is the common Dirichlet trace f(s) (must be continuous across
    the corners, f(-l/2) = f(l/2)).  Returns the common Neumann trace as a
    period-l Fourier series (modes are multiples of three in the shared
    period-3l labelling).
    """
    check_lam(lam)
    sampler = SideSampler(data, Kind.PHI, lam, side_length)
    # at lambda = 0 the mean of the Neumann trace vanishes by the divergence
    # theorem: the n = 0 coefficient is zero
    n, live, s_n = _series_mode_roots(lam, side_length, side_length, n_max)
    w = mu(ALPHA_BAR * s_n, lam) * (side_length / 2.0)
    plus, minus = Scaled.exp_pair(w)
    sinh, cosh = 0.5 * (plus - minus), 0.5 * (plus + minus)
    f_k, f_ab, f_a = sampler.eval_scaled(_rotations(s_n))
    g = 2.0 * cosh * f_k + (2.0 * np.exp(1j * np.pi * n[live])) * f_ab + 2.0 * f_a
    coeffs = np.zeros(n.shape, dtype=complex)
    coeffs[live] = ((1j / side_length) * g / sinh).to_complex()
    return _finalize(1, side_length, 3 * n, coeffs)


def _chain_series(problem: ProblemSpec, m_max: int):
    """The three traces of the period-3l coefficient sequence that the sides
    share through CHAIN_WEIGHTS: at each live mode, the moment of the
    unknowns (``relations.mode_moment``), after the flux check for Neumann
    data; a mode without a root keeps 0."""
    lam, l, dirichlet = problem.lam, problem.side_length, problem.is_dirichlet
    m, live, k = _series_mode_roots(lam, l, 3.0 * l, m_max)
    if not dirichlet:
        _check_flux([side.data for side in problem.sides], lam, l, at_zero=not live[m_max])
    moments = np.zeros(m.shape, dtype=complex)
    moments[live] = mode_moment(problem, k).to_complex()
    out = []
    for side in (1, 2, 3):
        c1, c2 = CHAIN_WEIGHTS[side]
        weight = np.where(m % 3 == 0, 1.0, np.where(m % 3 == 2, c1, c2))
        out.append(_finalize(side, l, m, weight * moments / (3.0 * l)))
    return tuple(out)


def general_dirichlet_dtn(
    data, lam: float, side_length: float, m_max: int = 96
):
    """Neumann traces for arbitrary Dirichlet data on the three sides.

    ``data`` is a triple of Dirichlet traces (f_1, f_2, f_3), continuous at
    the vertices.  Returns the three Neumann traces as period-3l Fourier
    series.  At lambda = 0, and where ``_series_mode_roots`` takes the
    m = 0 mode at lambda = 0, the m = 0 coefficient, the total Neumann flux,
    is zero.
    """
    if len(data) != 3:
        raise ParameterError("expected one Dirichlet trace per side")
    return _chain_series(dirichlet_problem(lam, TriangleGeometry(side_length), data), m_max)


def neumann_to_dirichlet(
    data, lam: float, side_length: float, m_max: int = 96
):
    """Dirichlet traces for Neumann data on the three sides.

    ``data`` is a triple of Neumann traces (f_1, f_2, f_3).  At lambda = 0
    the data must satisfy the zero-total-flux compatibility condition and
    the result is gauged to zero mean over the whole boundary (the m = 0
    coefficient, the free boundary mean, is zero).  The same holds at a
    lambda > 0 so small that ``_series_mode_roots`` takes the m = 0 mode
    at lambda = 0, where the mean, of order flux / lambda, would be set by
    the rounding of the flux; just above it, ``_check_flux`` raises
    ``AccuracyError`` while that rounding still moves the mean.
    """
    if len(data) != 3:
        raise ParameterError("expected one Neumann trace per side")
    return _chain_series(neumann_problem(lam, TriangleGeometry(side_length), data), m_max)


def _check_flux(data, lam: float, side_length: float, at_zero: bool):
    """The total flux of the Neumann ``data`` sets the boundary mean,
    flux / (4 lambda area).  With the m = 0 mode taken at lambda = 0
    (``at_zero``) the flux must vanish (SolvabilityError).  Above that, its
    rounding, FLUX_ULPS eps 3 l max|f_j|, moves the mean by ``share`` of
    l max|f_j|: AccuracyError once that move exceeds MEAN_RTOL of the larger
    of l max|f_j| and the mean.  The data are sampled only where
    share > MEAN_RTOL."""
    if not at_zero:
        four_lam_area = SQRT3 * lam * side_length * side_length
        share = 3.0 * FLUX_ULPS * np.finfo(float).eps / four_lam_area
        if share <= MEAN_RTOL:
            return
    rule = QuadratureRule.gauss(-side_length / 2.0, side_length / 2.0, 128)
    vals = [np.asarray(t.value(rule.nodes), dtype=float) for t in data]
    total = sum(rule.integrate(v) for v in vals)
    scale = side_length * max(np.max(np.abs(v)) for v in vals)
    if at_zero:
        if abs(total) > 1e-8 * max(1.0, scale):
            raise SolvabilityError(
                "lambda = 0 Neumann data violates the zero-total-flux condition"
            )
    elif share * scale > MEAN_RTOL * max(scale, abs(total) / four_lam_area):
        raise AccuracyError(
            f"Neumann-to-Dirichlet map: at lambda = {lam:.3g} the rounding of the total "
            f"flux moves the boundary mean, flux / (4 lambda area), by up to {share * scale:.1e}"
        )


# -- oblique Robin modes ---------------------------------------------------
def robin_mode_root(
    m: int,
    lam: float,
    side_length: float,
    beta: float,
    gamma: float,
) -> complex:
    """Root of e^2(k) P(alpha k)/P(alpha_bar k) = exp(2 pi i m / 3).

    Tracked by continuation in gamma, in 24 steps, from the closed-form
    gamma = 0 seed (where P is constant and the condition reduces to
    mu = 2 pi i m/(3l)), with analytic-derivative Newton refinement at every
    step.
    """
    if m == 0 and lam == 0.0:
        raise ParameterError("m = 0 mode degenerates at lambda = 0")
    k = quadratic_mode_root(2j * np.pi * m / (3.0 * side_length), lam)
    target = cmath.exp(2j * np.pi * m / 3.0)
    ell = side_length
    for g in np.linspace(0.0, gamma, 25)[1:] if gamma != 0.0 else (0.0,):
        sym = SideSymbol(lam, beta, float(g))

        def newton_step(kk):
            a, ab = ALPHA * kk, ALPHA_BAR * kk
            e2 = cmath.exp(mu(kk, lam) * ell)
            pa, pab = sym.p(a), sym.p(ab)
            val = e2 * pa / pab - target
            logderiv = (
                ell * (1.0 - lam / (kk * kk))
                + ALPHA * sym.dp(a) / pa
                - ALPHA_BAR * sym.dp(ab) / pab
            )
            return val / ((val + target) * logderiv)

        k, converged = _newton(newton_step, k, 80, 1e-13)
        if not converged:
            raise RootFindError(f"Robin mode root m={m} failed to converge")
    return k


def _newton(step, x, iterations: int, tol: float):
    """Newton iteration x <- x - step(x), elementwise over an array or on a
    scalar, until every step is below tol relative; returns x and whether
    that happened within ``iterations``."""
    for _ in range(iterations):
        dx = step(x)
        x = x - dx
        if np.all(np.abs(dx) < tol * np.maximum(1.0, np.abs(x))):
            return x, True
    return x, False


def robin_moment(
    m: int,
    data,
    lam: float,
    side_length: float,
    beta: float,
    gamma: float,
):
    """Generalized moment of the Dirichlet traces at a Robin mode.

    Returns (k_m, G) with

        int e^{mu(k_m) s} [q1 + w^{-1} q2 + w q3] ds = G,   w = e^{2 pi i m/3},

    where the q_j are the unknown Dirichlet traces of the oblique Robin
    problem with common (beta, gamma) and data triple ``data``.
    """
    if len(data) != 3:
        raise ParameterError("expected one data trace per side")
    sides = tuple(SideCondition(BCKind.POINCARE, t, beta=beta, gamma=gamma) for t in data)
    problem = ProblemSpec(lam, TriangleGeometry(side_length), sides)
    k = robin_mode_root(m, lam, side_length, beta, gamma)
    return k, mode_moment(problem, np.array([k]))[0].to_complex()
