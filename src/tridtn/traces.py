"""Boundary trace containers.

A trace is a real-valued function of the side arclength s in [-l/2, l/2]
together with its tangential derivative.  The series and contour solvers
return an ``ExponentialSumTrace``: a lattice of exponentials e^{i t s},
t = offset + p step, whose carriers are powers of one exponential per
point times those of one panel (``_powers``), plus free exponentials.  A
contour solver's lattice holds the Gauss panels of a generalized Fourier
integral and its free piece the residues; a Fourier series is a lattice
with one offset, 0, one node per label and no free piece.  The plain
``BoundaryTrace`` wraps arbitrary callables (manufactured solutions,
parsed expressions, interpolated grid data).

The spectral transforms see a trace only through the Legendre series of
its ``value`` and ``derivative``, which every trace gets the same way: it
is sampled on Gauss-Legendre nodes of the side, at doubling node counts,
until its coefficients reach a plateau.  An exponential-sum trace only
starts higher, at a count that resolves its largest exponential to
rounding (``spectral._first_nodes``), so its first sampling is its last.
A trace carries no resolution hint of its own, only the cache of those
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError
from .scaledc import Scaled, collapse


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
class ExponentialSumTrace(_Trace):
    """Real part of sum_{p,j} weighted[p, j] e^{i t[p,j] s} + sum_r coeffs[r] e^{-rates[r] s}.

    The first sum runs over the lattice t[p, j] = offsets[j] + p step,
    ``weighted`` shaped (panels, offsets); each point s takes one carrier
    W = e^{i step s}, sums each offset's column of ``weighted`` against its
    powers W^p (``_powers``) in one matrix product, and those sums against
    the e^{i offsets[j] s}.  The second, free piece has ``Scaled``
    coefficients c, which may lie far outside the double range while each
    term stays moderate: a term is one ``scaledc.collapse`` of log c - s rate.

    A contour solver's trace is the quadrature of a Fourier integral over
    the truncated contour, folded onto the lattice of its Gauss panels in
    [0, T] (a node at -t is stored at t with its weight conjugated), with
    the weights and the 1/(2 pi) in ``weighted``, and the residues at the
    mode roots as its free piece.  A Fourier series (``series._finalize``)
    is a lattice with one offset, 0, one node per label, a long double
    ``step`` and no free piece.  Its ``imbalance`` (0 for a contour trace)
    bounds the modulus of the imaginary part of the complex series before
    the fold, on the whole line: sum_{p>0} |c_{-p} - conj(c_p)| + |Im c_0|
    over the coefficients c_m of labels m (``series._finalize``).  For real
    data it should sit at roundoff level.
    """

    side: int
    offsets: np.ndarray
    step: float
    weighted: np.ndarray
    rates: np.ndarray
    coeffs: Scaled
    imbalance: float = 0.0

    def __post_init__(self):
        if np.ndim(self.offsets) != 1 or np.shape(self.weighted)[1:] != np.shape(self.offsets):
            raise ParameterError("lattice weights must be shaped (panels, offsets)")
        if np.shape(self.rates) != np.broadcast(self.coeffs.m, self.coeffs.sigma).shape:
            raise ParameterError("free rates and coeffs must have matching shapes")

    @property
    def t(self):
        """The lattice nodes, shaped like ``weighted``, in double precision."""
        t = self.offsets + self.step * np.arange(len(self.weighted))[:, None]
        return np.asarray(t, dtype=float)

    def _sum(self, s, derivative: bool):
        s = np.asarray(s, dtype=float)
        weighted = 1j * self.t * self.weighted if derivative else self.weighted
        columns = _powers(s, np.longdouble(self.step), len(weighted)) @ weighted
        out = np.sum(columns * np.exp(1j * np.multiply.outer(s, self.offsets)), axis=-1).real
        if self.rates.size:
            coeffs = self.coeffs * -self.rates if derivative else self.coeffs
            out = out + np.sum(collapse(coeffs.log() - np.multiply.outer(s, self.rates)), axis=-1).real
        return out if out.ndim else float(out)

    def synthesis(self, s):
        """The sum at ``s``.  ``value`` calls it, so a span patched onto this
        name (``perfbench/spans.py``) times every value."""
        return self._sum(s, derivative=False)

    def value(self, s):
        return self.synthesis(s)

    def derivative(self, s):
        """Analytic d/ds: a factor i t on the lattice, -rate on the free piece."""
        return self._sum(s, derivative=True)

    def __call__(self, s):
        return self.value(s)


# kept only because perfbench/spans.py patches ``synthesis`` under this name
FourierSeriesTrace = ExponentialSumTrace


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
