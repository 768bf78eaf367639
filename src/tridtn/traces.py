"""Boundary trace containers.

A trace is a real-valued function of the side arclength s in [-l/2, l/2]
together with its tangential derivative.  Series solvers return
``FourierSeriesTrace`` objects whose carriers exp(-2 pi i m s / (3 l)) are
integer powers of one exponential per point; the contour solvers return
``ContourResidueTrace`` objects, a generalized Fourier integral on the
lattice of its Gauss panels, whose carriers are powers of one exponential
per point times those of one panel, plus residue exponentials.  Both are
evaluated from those powers (``_powers``).  The plain ``BoundaryTrace``
wraps arbitrary callables (manufactured solutions, parsed expressions,
interpolated grid data).

The spectral transforms see a trace only through the Legendre series of
its ``value`` and ``derivative``.  The two exponential-sum traces give
theirs exactly, through ``exponentials``: the rates kappa_j and weights w_j
of Re sum_j w_j e^{kappa_j s}.  A ``BoundaryTrace`` is sampled on
Gauss-Legendre nodes of the side until its coefficients reach a plateau.  A
trace carries no resolution hint of its own, only the cache of those
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .scaledc import Scaled


@dataclass(frozen=True, eq=False)
class _Trace:
    """Base of the trace types.  ``legendre`` holds the chopped Legendre
    coefficients of ``value`` and ``derivative`` that ``spectral`` computes,
    keyed by column and side length, so they live as long as the trace, and
    ``spectra`` what ``interior`` keeps on it (documented there).
    Traces compare by identity (``eq=False`` here and on every subclass):
    their fields are arrays and callables."""

    legendre: dict = field(default_factory=dict, init=False, repr=False)
    spectra: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class BoundaryTrace(_Trace):
    """Real function on one side: ``value(s)`` and its derivative in s."""

    side: int
    value: Callable
    derivative: Callable

    def __call__(self, s):
        return self.value(s)

    def d(self, s):
        return self.derivative(s)

    @classmethod
    def constant(cls, side: int, c: float) -> "BoundaryTrace":
        return cls(
            side=side,
            value=lambda s, c=c: np.broadcast_to(float(c), np.shape(s)).copy()
            if np.ndim(s)
            else float(c),
            derivative=lambda s: np.zeros(np.shape(s)) if np.ndim(s) else 0.0,
        )

    @classmethod
    def zero(cls, side: int) -> "BoundaryTrace":
        return cls.constant(side, 0.0)


@dataclass(frozen=True, eq=False)
class FourierSeriesTrace(_Trace):
    """Real part of sum_m coeff[m] exp(-2 pi i m s / (3 l)).

    ``modes`` holds the integer labels m; for single-side (period-l) series
    all labels are multiples of three.  With g the gcd of the labels, each
    point s takes one exponential W = exp(-2 pi i g s / (3 l)), its phase
    formed in long double and split hi + lo so that the rounding of W, which
    W^k carries k-fold, is that of exp alone.  ``synthesis`` and
    ``derivative`` build W^0, ..., W^(max|m|/g) by one cumulative product
    from W^0 and sum the labels m >= 0 against these powers, the labels
    m < 0 against their conjugates.  ``imbalance`` is a bound on the
    modulus of the imaginary part of the complex synthesis over the side:
    sum_n |Im a_n| over its Legendre coefficients a_n, as |P_n| <= 1 there.
    For real data it should sit at roundoff level.
    """

    side: int
    side_length: float
    modes: np.ndarray
    coeffs: np.ndarray
    imbalance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=int))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.modes.shape != self.coeffs.shape:
            raise ValueError("modes and coeffs must have matching shapes")

    @property
    def carriers(self) -> np.ndarray:
        """Carrier rates kappa_m = -2 pi i m / (3 l)."""
        return -2j * np.pi * self.modes / (3.0 * self.side_length)

    def _power_sum(self, s, weights):
        """sum_m weights[m] W^(m/g), shaped like s (a complex for scalar s)."""
        s = np.asarray(s, dtype=float)
        g = int(np.gcd.reduce(self.modes)) or 1
        power, behind = np.abs(self.modes) // g, (self.modes < 0).astype(int)
        rate = -8 * np.arctan(np.longdouble(1)) * g / (3 * np.longdouble(self.side_length))
        table = _powers(s, rate, power.max(initial=0) + 1)
        split = np.zeros((2, table.shape[-1]), dtype=complex)
        np.add.at(split, (behind, power), np.where(behind, np.conj(weights), weights))
        both = table @ split.T
        out = both[..., 0] + np.conj(both[..., 1])
        return out if out.ndim else complex(out)

    def synthesis(self, s):
        """Complex mode sum before taking the real part."""
        return self._power_sum(s, self.coeffs)

    def value(self, s):
        return np.real(self.synthesis(s))

    def derivative(self, s):
        return np.real(self._power_sum(s, self.carriers * self.coeffs))

    def exponentials(self, column: str):
        """``column`` ("value" or "derivative") as Re sum_j w_j e^{kappa_j s}:
        one (kappa, w) piece, the carriers with weights coeffs, times the
        carriers for the derivative."""
        weights = self.coeffs if column == "value" else self.carriers * self.coeffs
        return ((self.carriers, weights),)

    def __call__(self, s):
        return self.value(s)


@dataclass(frozen=True, eq=False)
class ContourResidueTrace(_Trace):
    """Real part of sum_{p,j} weighted[p, j] e^{i t[p,j] s} + sum_r coeffs[r] e^{-rates[r] s}.

    The first sum is the quadrature of a Fourier integral over the truncated
    contour, folded onto the lattice t[p, j] = offsets[j] + p step of [0, T]
    (a node at -t is stored at t with its weight conjugated), with the
    weights and the 1/(2 pi) already in ``weighted`` (panels, order).  Each
    point s takes one carrier W = e^{i step s} and sums the panel sums
    sum_j weighted[p, j] e^{i offsets[j] s} against its powers W^p
    (``_powers``).  The second sum collects the residues at the mode roots,
    whose coefficients are ``Scaled`` because they may lie far outside the
    double range while each product with its exponential stays moderate.
    """

    side: int
    offsets: np.ndarray
    step: float
    weighted: np.ndarray
    rates: np.ndarray
    coeffs: Scaled

    @property
    def t(self):
        return self.offsets + self.step * np.arange(len(self.weighted))[:, None]

    def _synthesis(self, s, weighted, coeffs):
        s = np.asarray(s, dtype=float)
        panels = np.exp(1j * np.multiply.outer(s, self.offsets)) @ weighted.T
        out = np.sum(_powers(s, np.longdouble(self.step), len(weighted)) * panels, axis=-1).real
        residues = coeffs * Scaled.from_exp(-np.multiply.outer(s, self.rates))
        out = out + np.real(np.sum(residues.to_complex(), axis=-1))
        return out if out.ndim else float(out)

    def value(self, s):
        return self._synthesis(s, self.weighted, self.coeffs)

    def derivative(self, s):
        """Analytic d/ds: a factor i t on the contour, -rate on the residues."""
        return self._synthesis(s, 1j * self.t * self.weighted, -self.rates * self.coeffs)

    def exponentials(self, column: str):
        """``column`` ("value" or "derivative") as Re sum_j w_j e^{kappa_j s}:
        a contour piece (i t, weighted) over the lattice and a residue piece
        (-rates, coeffs), whose ``Scaled`` weights may lie outside the double
        range; the derivative multiplies each weight by its kappa."""
        pieces = ((1j * self.t.ravel(), self.weighted.ravel()), (-self.rates, self.coeffs))
        if column == "value":
            return pieces
        return tuple((kappa, kappa * w) for kappa, w in pieces)

    def __call__(self, s):
        return self.value(s)


def _powers(s, rate, count: int):
    """W^0, ..., W^(count - 1) of W = e^{i rate s} on a last axis, for a long
    double ``rate``: the phase is formed in long double and split hi + lo,
    so the rounding of W, which W^p carries p-fold, is that of exp alone."""
    theta = s * rate
    hi = theta.astype(float)
    table = np.empty(s.shape + (count,), dtype=complex)
    table[..., 0] = 1.0
    table[..., 1:] = (np.exp(1j * hi) * (1 + 1j * (theta - hi).astype(float)))[..., None]
    return np.cumprod(table, axis=-1, out=table)


def sample_grid(side_length: float, n: int = 512, corner_margin: float = 0.02):
    """Uniform s-grid excluding a relative margin at both corners."""
    half = side_length / 2.0 - corner_margin * side_length
    return np.linspace(-half, half, n)
