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

All coefficient formulas are assembled in exponent-carrying (``Scaled``)
arithmetic, since the individual e/E factors overflow double precision long
before the coefficient ratios do.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import AccuracyError, ParameterError, ResonanceError, RootFindError, SolvabilityError
from .geometry import ALPHA, ALPHA_BAR, SQRT3, mu
from .scaledc import Scaled
from .quadrature import QuadratureRule
from .spectral import Kind, SideSampler, series_legendre, transforms
from .symbols import SideSymbol
from .traces import FourierSeriesTrace

#: relative threshold below which a mode denominator counts as resonant
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


def _check_resonance(resonant, labels, what: str):
    if np.any(resonant):
        raise ResonanceError(
            f"lambda sits at (or near) an interior {what} eigenvalue",
            modes=[int(m) for m in labels[resonant]],
        )


def _e_scaled(k, lam, side_length) -> Scaled:
    """e(k) = exp(mu(k) l / 2) as a Scaled value."""
    return Scaled.from_exp(mu(k, lam) * (side_length / 2.0))


def _big_e_scaled(k, lam, side_length) -> Scaled:
    """E(k) = exp(mu(k) l / (2 sqrt(3))) as a Scaled value."""
    return Scaled.from_exp(mu(k, lam) * (side_length / (2.0 * SQRT3)))


def _rotations(k):
    """The rotated arguments k, alpha_bar k, alpha k, stacked."""
    return np.stack([k, ALPHA_BAR * k, ALPHA * k])


def _transforms_by_argument(samplers, k):
    """The samplers' transforms at each of ``_rotations(k)``, in one call."""
    values = transforms(samplers, _rotations(np.asarray(k, dtype=complex)))
    return values[:, 0], values[:, 1], values[:, 2]


def _finalize(side, side_length, modes, coeffs) -> FourierSeriesTrace:
    """The series trace, with the imbalance bound sum_n |Im a_n| over the
    Legendre coefficients a_n of its complex synthesis: |P_n| <= 1 on the
    side, so it bounds the imaginary part of the synthesis there."""
    imbalance = float(np.sum(np.abs(series_legendre(modes, coeffs).imag)))
    return FourierSeriesTrace(side, side_length, modes, coeffs, imbalance)


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
    m, live, k = _mode_roots(lam, period, m_max)
    if math.sqrt(3.0 * lam) * (side_length / 2.0) < RESONANCE_RTOL:
        k, live = k[m[live] != 0], live & (m != 0)
    return m, live, k


def symmetric_dirichlet_dtn(
    data, lam: float, side_length: float, n_max: int = 64
) -> FourierSeriesTrace:
    """Neumann trace for identical Dirichlet data on all three sides.

    ``data`` is the common Dirichlet trace f(s) (must be continuous across
    the corners, f(-l/2) = f(l/2)).  Returns the common Neumann trace as a
    period-l Fourier series (modes are multiples of three in the shared
    period-3l labelling).
    """
    sampler = SideSampler(data, Kind.PHI, lam, side_length)
    # at lambda = 0 the mean of the Neumann trace vanishes by the divergence
    # theorem: the n = 0 coefficient is zero
    n, live, s_n = _series_mode_roots(lam, side_length, side_length, n_max)
    w = mu(ALPHA_BAR * s_n, lam) * (side_length / 2.0)
    sinh = 0.5 * (Scaled.from_exp(w) - Scaled.from_exp(-w))
    cosh = 0.5 * (Scaled.from_exp(w) + Scaled.from_exp(-w))
    resonant = sinh.abs_log() < math.log(RESONANCE_RTOL) + np.abs(w.real)
    _check_resonance(resonant, n[live], "Dirichlet")
    f_k, f_ab, f_a = sampler.eval_scaled(_rotations(s_n))
    g = 2.0 * cosh * f_k + (2.0 * np.exp(1j * np.pi * n[live])) * f_ab + 2.0 * f_a
    coeffs = np.zeros(n.shape, dtype=complex)
    coeffs[live] = ((1j / side_length) * g / sinh).to_complex()
    return _finalize(1, side_length, 3 * n, coeffs)


def _chain_traces(side_length, modes, m_coeffs):
    """Distribute the shared coefficient sequence to the three sides."""
    modes = np.asarray(modes, dtype=int)
    m_coeffs = np.asarray(m_coeffs, dtype=complex)
    out = []
    for side in (1, 2, 3):
        c1, c2 = CHAIN_WEIGHTS[side]
        weight = np.where(
            modes % 3 == 0, 1.0, np.where(modes % 3 == 2, c1, c2)
        ).astype(complex)
        out.append(
            _finalize(side, side_length, modes, weight * m_coeffs / (3.0 * side_length))
        )
    return tuple(out)


def _mode_denominator(m, k, lam, side_length):
    """alpha_bar^m e(alpha_bar k) - e(-alpha_bar k), Scaled, with resonance test."""
    e_plus = _e_scaled(ALPHA_BAR * k, lam, side_length)
    e_minus = _e_scaled(-ALPHA_BAR * k, lam, side_length)
    den = (ALPHA_BAR**m) * e_plus - e_minus
    scale = np.maximum(e_plus.abs_log(), e_minus.abs_log())
    return den, den.abs_log() < math.log(RESONANCE_RTOL) + scale


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
    f = [SideSampler(t, Kind.PHI, lam, side_length) for t in data]
    m, live, k = _series_mode_roots(lam, side_length, 3.0 * side_length, m_max)
    den, resonant = _mode_denominator(m[live], k, lam, side_length)
    _check_resonance(resonant, m[live], "Dirichlet")
    a, ab = ALPHA * k, ALPHA_BAR * k
    ep = _e_scaled(k, lam, side_length)
    em = _e_scaled(-k, lam, side_length)
    ep_ab = _e_scaled(ab, lam, side_length)
    em_ab = _e_scaled(-ab, lam, side_length)
    f_k, f_ab, f_a = _transforms_by_argument(f, k)
    x = (em * em * ep_ab + em_ab) * (f_k[0] + ep * ep * f_k[2])
    x = x + em * em * (em * em * ep_ab * ep**6 + em_ab) * f_k[1]
    x = x + 2.0 * ep * ep * f_a[0] + 2.0 * f_a[1] + 2.0 * em * em * f_a[2]
    x = x + em**3 * (
        2.0 * ep * ep * f_ab[0]
        + (ep**6 + 1.0) * f_ab[1]
        + 2.0 * em * em * ep**6 * f_ab[2]
    )
    m_coeffs = np.zeros(m.shape, dtype=complex)
    m_coeffs[live] = (2j * x / den).to_complex()
    return _chain_traces(side_length, m, m_coeffs)


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
    f = [SideSampler(t, Kind.PSI, lam, side_length) for t in data]
    m, live, k = _series_mode_roots(lam, side_length, 3.0 * side_length, m_max)
    _check_flux(data, lam, side_length, at_zero=not live[m_max])
    den, resonant = _mode_denominator(m[live], k, lam, side_length)
    _check_resonance(resonant, m[live], "Neumann")
    a, ab = ALPHA * k, ALPHA_BAR * k
    ep = _e_scaled(k, lam, side_length)
    em = _e_scaled(-k, lam, side_length)
    e3a_m = _big_e_scaled(-1j * a, lam, side_length) ** 3
    e3a_p = _big_e_scaled(1j * a, lam, side_length) ** 3
    e3ab_m = _big_e_scaled(-1j * ab, lam, side_length) ** 3
    e3ab_p = _big_e_scaled(1j * ab, lam, side_length) ** 3
    f_k, f_ab, f_a = _transforms_by_argument(f, k)
    rhs = em * (e3a_m + e3a_p) * f_k[0]
    rhs = rhs + (e3ab_m + e3ab_p) * f_k[1]
    rhs = rhs + ep * (e3a_m + e3a_p) * f_k[2]
    rhs = rhs + 2.0 * ep * ep * f_a[0] + 2.0 * f_a[1] + 2.0 * em * em * f_a[2]
    rhs = rhs + 2.0 * em * f_ab[0] + (ep**3 + em**3) * f_ab[1] + 2.0 * ep * f_ab[2]
    # the Neumann data transforms F_j = PSI_j / (2 sin(pi/2)) = PSI_j / 2
    t_n = -0.5 * rhs / mu(1j * k, lam)
    n_coeffs = np.zeros(m.shape, dtype=complex)
    n_coeffs[live] = (2.0 * t_n / den).to_complex()
    return _chain_traces(side_length, m, n_coeffs)


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
    rule = QuadratureRule.side(side_length, 128)
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
    steps: int = 24,
    tol: float = 1e-13,
) -> complex:
    """Root of e^2(k) P(alpha k)/P(alpha_bar k) = exp(2 pi i m / 3).

    Tracked by continuation in gamma from the closed-form gamma = 0 seed
    (where P is constant and the condition reduces to mu = 2 pi i m/(3l)),
    with analytic-derivative Newton refinement at every step.
    """
    if m == 0 and lam == 0.0:
        raise ParameterError("m = 0 mode degenerates at lambda = 0")
    k = quadratic_mode_root(2j * np.pi * m / (3.0 * side_length), lam)
    target = cmath.exp(2j * np.pi * m / 3.0)
    ell = side_length
    for g in np.linspace(0.0, gamma, steps + 1)[1:] if gamma != 0.0 else (0.0,):
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

        k, converged = _newton(newton_step, k, 80, tol)
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


def oblique_robin_t(k, f_samplers, lam: float, side_length: float, beta: float, gamma: float):
    """The known forcing T(k) of the oblique Robin elimination, Scaled.

    ``f_samplers`` are the three PSI samplers of the Poincare data, whose
    transforms F_j are PSI_j/(2 sin beta); beta and gamma must be shared by
    the three sides.
    """
    sym = SideSymbol(lam, beta, gamma)
    a, ab = ALPHA * k, ALPHA_BAR * k
    pa, pab = sym.p(a), sym.p(ab)
    ep = _e_scaled(k, lam, side_length)
    em = _e_scaled(-k, lam, side_length)
    e3 = lambda kk: _big_e_scaled(kk, lam, side_length) ** 3
    f_k, f_ab, f_a = _transforms_by_argument(f_samplers, k)
    combo = em * (e3(-1j * a) - (pab / pa**2) * e3(1j * a)) * f_k[0]
    combo = combo + ((pab / pa) * e3(-1j * ab) - (1.0 / pab) * e3(1j * ab)) * f_k[1]
    combo = combo + ep * ((pa / pab) * e3(-1j * a) - (1.0 / pa) * e3(1j * a)) * f_k[2]
    combo = combo + ((pa - 1.0) / pab) * ep * ep * f_a[0]
    combo = combo + ((pa - 1.0) / pa) * f_a[1]
    combo = combo + (pab * (pa - 1.0) / pa**2) * em * em * f_a[2]
    combo = combo + ((pab - 1.0) / pa) * em * f_ab[0]
    combo = combo + ((pa / pab) * ep**3 - (pab / pa**2) * em**3) * f_ab[1]
    combo = combo + ((pab - 1.0) / pab) * ep * f_ab[2]
    return combo / (2.0 * math.sin(beta) * sym.hbar(k))


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
    if math.sin(beta) == 0.0:
        raise ParameterError("sin(beta) must be nonzero")
    k = robin_mode_root(m, lam, side_length, beta, gamma)
    sym = SideSymbol(lam, beta, gamma)
    f = [SideSampler(t, Kind.PSI, lam, side_length) for t in data]
    t_val = oblique_robin_t(k, f, lam, side_length, beta, gamma)
    den = (ALPHA_BAR**m) * (sym.p(k) / sym.p(ALPHA * k)) * _e_scaled(
        ALPHA_BAR * k, lam, side_length
    ) - _e_scaled(-ALPHA_BAR * k, lam, side_length)
    return k, (2.0 * math.sin(beta) * t_val / den).to_complex()