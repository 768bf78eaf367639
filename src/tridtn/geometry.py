"""Equilateral-triangle geometry and the exponential kernels.

Conventions used throughout the package.  The triangle has centroid at the
origin and vertices

    z1 = (l/sqrt(3)) e^{i pi/3},   z2 = conj(z1),   z3 = -l/sqrt(3),

where ``l`` is the side length.  Side (1) is the segment from z2 to z1,
side (2) from z3 to z2 and side (3) from z1 to z3.  Each side is
parameterised by arclength s in [-l/2, l/2] via

    z(s) = (l/(2 sqrt(3)) + i s) * rot_j,

with rotation factors rot_1 = 1, rot_2 = e^{-2 i pi/3}, rot_3 = e^{2 i pi/3}.
The outward unit normal of side j is rot_j itself and the tangent (direction
of increasing s) is i * rot_j.

The spectral kernels are built from mu(k) = k + lambda/k:

    E(k) = exp(mu(k) l / (2 sqrt(3))),      e(k) = exp(mu(k) l / 2),

so that E(k) E(alpha k) E(alpha_bar k) = 1 and e(-k) = 1/e(k).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SQRT3 = math.sqrt(3.0)

#: Primitive cube root of unity used for the 120-degree rotations.
ALPHA = cmath.exp(2j * math.pi / 3)
ALPHA_BAR = ALPHA.conjugate()

#: Per-side rotation factors (index 0 unused; sides are 1-based).
SIDE_ROT = (None, 1.0 + 0.0j, ALPHA_BAR, ALPHA)
_CONJ_ROT = np.conj(SIDE_ROT[1:])


def mu(k, lam):
    """Spectral symbol mu(k) = k + lambda/k (vectorised in ``k``)."""
    k = np.asarray(k, dtype=complex)
    out = k + lam / k
    return out if out.ndim else complex(out)


def exp_E(k, lam, side_length):
    """Short kernel E(k) = exp(mu(k) l / (2 sqrt(3)))."""
    k = np.asarray(k, dtype=complex)
    out = np.exp(mu(k, lam) * (side_length / (2.0 * SQRT3)))
    return out if out.ndim else complex(out)


def exp_e(k, lam, side_length):
    """Long kernel e(k) = exp(mu(k) l / 2)."""
    k = np.asarray(k, dtype=complex)
    out = np.exp(mu(k, lam) * (side_length / 2.0))
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class TriangleGeometry:
    """Equilateral triangle of side ``side_length`` centred at the origin."""

    side_length: float = 1.0

    def __post_init__(self):
        if not (self.side_length > 0.0 and math.isfinite(self.side_length)):
            raise ParameterError(f"side_length must be finite and positive, got {self.side_length}")

    # -- vertices ---------------------------------------------------------
    @property
    def z1(self) -> complex:
        return (self.side_length / SQRT3) * cmath.exp(1j * math.pi / 3)

    @property
    def z2(self) -> complex:
        return self.z1.conjugate()

    @property
    def z3(self) -> complex:
        return complex(-self.side_length / SQRT3, 0.0)

    @property
    def vertices(self):
        return (self.z1, self.z2, self.z3)

    @property
    def inradius(self) -> float:
        return self.side_length / (2.0 * SQRT3)

    # -- sides ------------------------------------------------------------
    def side_point(self, side: int, s):
        """Point z(s) on side ``side`` (1, 2 or 3); vectorised in ``s``."""
        rot = _side_rot(side)
        s = np.asarray(s, dtype=float)
        out = (self.inradius + 1j * s) * rot
        return out if out.ndim else complex(out)

    def side_normal(self, side: int) -> complex:
        """Outward unit normal of the side, as a complex direction."""
        return _side_rot(side)

    def side_tangent(self, side: int) -> complex:
        """Unit tangent in the direction of increasing s."""
        return 1j * _side_rot(side)

    def side_endpoints(self, side: int):
        """(z(-l/2), z(l/2)) of the side; successive sides share a vertex."""
        half = self.side_length / 2.0
        return (self.side_point(side, -half), self.side_point(side, half))

    # -- point queries ----------------------------------------------------
    def side_distances(self, z):
        """Signed distances to sides 1, 2 and 3, stacked on a first axis."""
        return self.inradius - np.real(np.multiply.outer(_CONJ_ROT, np.asarray(z, dtype=complex)))

    def boundary_margin(self, z):
        """Signed distance to the nearest side (positive strictly inside)."""
        out = np.min(self.side_distances(z), axis=0)
        return out if out.ndim else float(out)

    def contains(self, z, margin: float = 0.0):
        """True where z lies inside with at least the given margin."""
        return self.boundary_margin(z) >= margin


def _side_rot(side: int) -> complex:
    if side not in (1, 2, 3):
        raise ParameterError(f"side index must be 1, 2 or 3, got {side}")
    return SIDE_ROT[side]
