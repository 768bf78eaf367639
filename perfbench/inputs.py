"""Seeded inputs: manufactured fields, their traces as CLI expressions, and
interior points.

Every field is an ``ExpAtomSolution`` (a real part of a sum of exponential
atoms), so its traces are known exactly.  On side j the atom
c exp(A z + B zbar) restricted to z(s) = (r + i s) rot_j is
c exp(alpha + beta s) with complex alpha, beta, whose real part is
|c| e^{Re alpha} e^{Re beta s} cos(arg c + Im alpha + Im beta s): one
``exp(linear) * cos(linear)`` term of the expression grammar per atom.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from tridtn.geometry import TriangleGeometry
from tridtn.oracle import (
    ExpAtomSolution,
    corner_smooth_solution,
    symmetric_corner_compatible,
)

SIDE_LENGTH = 1.0
#: interior points keep at least this share of l from every side
POINT_MARGIN = 0.1


def _num(x: float) -> str:
    text = repr(float(x))
    return f"({text})" if text.startswith("-") else text


def trace_expression(sol, side: int, kind: str, geom: TriangleGeometry) -> str:
    """The Dirichlet or Neumann trace of ``sol`` on ``side`` as an expression
    in s that ``tridtn.expressions`` parses."""
    rot = geom.side_normal(side)
    terms = []
    for c, a, b in zip(sol.coeffs, sol.a_rates, sol.b_rates):
        alpha = geom.inradius * (a * rot + b * rot.conjugate())
        beta = 1j * (a * rot - b * rot.conjugate())
        if kind == "neumann":
            c = c * (a * rot + b * rot.conjugate())
        amp = abs(c) * math.exp(alpha.real)
        if amp == 0.0:
            continue
        phase = cmath.phase(c) + alpha.imag
        term = f"{_num(amp)}*cos({_num(phase)} + {_num(beta.imag)}*s)"
        if beta.real != 0.0:
            term += f"*exp({_num(beta.real)}*s)"
        terms.append(term)
    return " + ".join(terms) if terms else "0"


def symmetric_family(rng, lam: float):
    """Symmetrized field whose three side traces coincide, corner-smooth."""
    cs = tuple(sorted(rng.uniform(0.6, 3.0, size=3)))
    return symmetric_corner_compatible(lam, SIDE_LENGTH, cs)


def general_family(rng, lam: float):
    """Twelve plane waves mixed so the chained traces are C^3 at the corners.

    |k0| scales with sqrt(lambda) so neither rate A = i k0 nor
    B = lambda / (i k0) grows large.
    """
    radii = rng.uniform(0.8, 1.6, size=12) * max(1.0, math.sqrt(lam))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=12)
    k0s = [complex(r * cmath.exp(1j * a)) for r, a in zip(radii, angles)]
    return corner_smooth_solution(lam, SIDE_LENGTH, k0s, smooth_order=3, rng=rng)


def wave_family(rng, lam: float):
    """A sum of three plane waves with random weights, the kind of field
    acceptance criterion 2 audits.

    The corner-compatible families above are, by construction, a small
    remainder of O(1) atoms: at lambda = 0 the symmetric family's Neumann
    trace can be 1e-8 of its atoms, and the general family's traces 1e-6.
    A global-relation residual relative to such a trace measures roundoff
    over cancellation, not the relation, so ``verify`` audits these instead.
    """
    coeffs, a_rates, b_rates = [], [], []
    for _ in range(3):
        k0 = rng.uniform(0.8, 1.6) * max(1.0, math.sqrt(lam)) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        atom = ExpAtomSolution.plane_wave(
            lam, k0, rng.uniform(0.5, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        )
        coeffs += atom.coeffs
        a_rates += atom.a_rates
        b_rates += atom.b_rates
    return ExpAtomSolution(lam, tuple(coeffs), tuple(a_rates), tuple(b_rates))


def stratified_margins(count: int, rng=None, geom=TriangleGeometry(SIDE_LENGTH)):
    """One boundary margin in each of ``count`` equal strata of
    [POINT_MARGIN l, 0.95 r]: drawn uniformly in its stratum, or its midpoint
    when ``rng`` is None.

    Interior evaluation costs grow as the margin shrinks, and the panel count
    of the Green's rule is a step function of it, so midpoints make a set of
    Green's ops cost the same for every seed.
    """
    lo, hi = POINT_MARGIN * geom.side_length, 0.95 * geom.inradius
    offsets = np.full(count, 0.5) if rng is None else rng.uniform(size=count)
    return lo + (np.arange(count) + offsets) * (hi - lo) / count


def interior_points(rng, margins, geom=TriangleGeometry(SIDE_LENGTH)):
    """A point at each margin, uniform on the curve of points with that margin
    (the boundary of the triangle shrunk by it)."""
    out = []
    for margin in margins:
        inner = geom.inradius - margin
        half = math.sqrt(3.0) * inner  # half the side of the shrunk triangle
        side = int(rng.integers(1, 4))
        z = (inner + 1j * rng.uniform(-half, half)) * geom.side_normal(side)
        out.append(complex(z))
    return out


def relative_error(got, exact) -> float:
    """max |got - exact| over max(1, max |exact|); inf for non-finite output."""
    got = np.asarray(got, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if not np.all(np.isfinite(got)):
        return math.inf
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(got - exact))) / scale
