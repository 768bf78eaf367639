"""Exponent-carrying complex arithmetic.

Contour integrands and residue terms in this package are ratios of products
of exponentials whose individual factors overflow double precision long
before the ratio does.  ``Scaled`` stores x = m * exp(sigma) with a complex
mantissa ``m`` and a real exponent ``sigma``; products add exponents, sums
rescale to the largest exponent, and only the final ratio is collapsed to a
plain complex number, by ``collapse``, the one guarded exponential.  All
operations broadcast over numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COLLAPSE_LIMIT = 700.0  # exp() overflow guard
_LN2 = np.log(2.0)


@dataclass(frozen=True)
class Scaled:
    """Value m * exp(sigma) with real sigma; broadcastable arrays allowed."""

    m: np.ndarray
    sigma: np.ndarray

    # numpy operands defer to the reflected Scaled operators
    __array_ufunc__ = None

    @classmethod
    def of(cls, value) -> "Scaled":
        value = np.asarray(value, dtype=complex)
        return cls(m=value, sigma=np.zeros(value.shape))

    @classmethod
    def from_exp(cls, w) -> "Scaled":
        """exp(w) for complex w of arbitrary magnitude."""
        w = np.asarray(w, dtype=complex)
        return cls(m=np.exp(1j * w.imag), sigma=np.asarray(w.real, dtype=float))

    @classmethod
    def exp_pair(cls, w):
        """exp(w) and exp(-w) from one exponential: conjugate mantissas."""
        plus = cls.from_exp(w)
        return plus, cls(m=np.conj(plus.m), sigma=-plus.sigma)

    def __getitem__(self, index) -> "Scaled":
        m, sigma = np.broadcast_arrays(self.m, self.sigma)
        return Scaled(m[index], sigma[index])

    def reshape(self, shape) -> "Scaled":
        m, sigma = np.broadcast_arrays(self.m, self.sigma)
        return Scaled(m.reshape(shape), sigma.reshape(shape))

    def __mul__(self, other):
        other = _coerce(other)
        return Scaled(self.m * other.m, self.sigma + other.sigma)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return Scaled(self.m / other.m, self.sigma - other.sigma)

    def __neg__(self):
        return Scaled(-self.m, self.sigma)

    def __add__(self, other):
        other = _coerce(other)
        sig = np.maximum(self.sigma, other.sigma)
        # exp arguments are <= 0 on both branches; 0*exp(-inf) guarded below.
        with np.errstate(over="ignore"):
            m = self.m * np.exp(np.minimum(self.sigma - sig, 0.0)) + other.m * np.exp(
                np.minimum(other.sigma - sig, 0.0)
            )
        return Scaled(m, sig)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def normalized(self) -> "Scaled":
        """Fold the mantissa magnitude into sigma by an exact power of two,
        leaving the larger mantissa component in [1/2, 1): subnormal
        mantissas stay finite where dividing by |m| would overflow."""
        m = np.asarray(self.m, dtype=complex)
        _, e = np.frexp(np.maximum(np.abs(m.real), np.abs(m.imag)))
        mant = np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e)
        return Scaled(mant, self.sigma + e * _LN2)

    def to_complex(self):
        """Collapse to complex; raises OverflowError if exp(sigma) overflows."""
        norm = self.normalized()
        out = norm.m * collapse(norm.sigma)
        return out if out.ndim else complex(out)

    def log(self):
        """log m + sigma, complex (elementwise; real part -inf at exact zeros)."""
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.m, dtype=complex)) + self.sigma

    def abs_log(self):
        """log |x| (elementwise, -inf for exact zeros)."""
        out = self.log().real
        return out if np.ndim(out) else float(out)


def collapse(logs):
    """exp(logs): OverflowError where a real part passes _COLLAPSE_LIMIT, quiet underflow."""
    if np.max(np.real(logs), initial=-np.inf) > _COLLAPSE_LIMIT:
        raise OverflowError("scaled value too large to collapse to complex")
    with np.errstate(under="ignore"):
        return np.exp(logs)


def _coerce(value) -> Scaled:
    return value if isinstance(value, Scaled) else Scaled.of(value)
