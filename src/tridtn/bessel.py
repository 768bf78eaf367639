"""Modified Bessel functions K_0 and K_1 for the Green's representation.

The interior Green's representation needs K_0 (the fundamental solution of
the modified Helmholtz operator) and its radial derivative -K_1.  Both are
``scipy.special.k0`` and ``k1``, imported on the first call so that
importing this module loads no scipy; this module adds the domain check
x > 0.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError


def _checked(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("modified Bessel K requires x > 0")
    return arr


def bessel_k0(x):
    """K_0(x) for x > 0; accepts scalars or arrays."""
    from scipy.special import k0

    out = k0(_checked(x))
    return out if np.ndim(out) else float(out)


def bessel_k1(x):
    """K_1(x) = -K_0'(x) for x > 0; accepts scalars or arrays."""
    from scipy.special import k1

    out = k1(_checked(x))
    return out if np.ndim(out) else float(out)
