"""Manufactured solutions and exact trace extraction.

Every manufactured field is a real part of a sum of exponential atoms

    q(z, zbar) = Re sum_t c_t exp(A_t z + B_t zbar),      A_t B_t = lambda,

which satisfies q_xx + q_yy = 4 lambda q identically.  The three families:

* plane wave:  A = i k0, B = lambda/(i k0);
* real exponential:  e^{a x} cos(b y + phase) with a^2 - b^2 = 4 lambda;
* symmetrized:  sum of any base field over the three 120-degree rotations,
  giving data invariant under the cyclic side permutation.

Traces (Dirichlet, Neumann, oblique Robin) and their tangential derivatives
are evaluated from the analytic directional derivatives of the atoms
(``ExpAtomSolution.derivative``), so oracle traces are exact up to roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import ALPHA, ALPHA_BAR, TriangleGeometry
from .traces import BoundaryTrace


@dataclass(frozen=True)
class ExpAtomSolution:
    """Re sum c_t exp(A_t z + B_t zbar) with A_t B_t = lambda."""

    lam: float
    coeffs: tuple
    a_rates: tuple
    b_rates: tuple

    def __post_init__(self):
        for a, b in zip(self.a_rates, self.b_rates):
            if abs(a * b - self.lam) > 1e-12 * max(1.0, abs(self.lam)):
                raise ParameterError("atom rates must satisfy A*B = lambda")

    # -- construction ------------------------------------------------------
    @classmethod
    def plane_wave(cls, lam: float, k0: complex, coeff: complex = 1.0) -> "ExpAtomSolution":
        if k0 == 0:
            raise ParameterError("plane-wave parameter k0 must be nonzero")
        a = 1j * k0
        return cls(lam=lam, coeffs=(coeff,), a_rates=(a,), b_rates=(lam / a,))

    @classmethod
    def real_exp(cls, lam: float, b: float, phase: float = 0.0, coeff: float = 1.0) -> "ExpAtomSolution":
        """e^{a x} cos(b y + phase) with a = sqrt(b^2 + 4 lambda)."""
        a2 = b * b + 4.0 * lam
        if a2 <= 0.0:
            raise ParameterError("need b^2 + 4*lambda > 0 for a real exponential")
        a = math.sqrt(a2)
        # a x + i b y = ((a + b)/2) z + ((a - b)/2) zbar
        big_a = 0.5 * (a + b)
        big_b = 0.5 * (a - b)
        return cls(
            lam=lam,
            coeffs=(coeff * np.exp(1j * phase),),
            a_rates=(big_a,),
            b_rates=(big_b,),
        )

    def symmetrized(self) -> "ExpAtomSolution":
        """Sum over the three 120-degree rotations of the field."""
        coeffs, a_rates, b_rates = [], [], []
        for rot_a, rot_b in ((1.0, 1.0), (ALPHA_BAR, ALPHA), (ALPHA, ALPHA_BAR)):
            coeffs.extend(self.coeffs)
            a_rates.extend(a * rot_a for a in self.a_rates)
            b_rates.extend(b * rot_b for b in self.b_rates)
        return ExpAtomSolution(
            lam=self.lam,
            coeffs=tuple(coeffs),
            a_rates=tuple(a_rates),
            b_rates=tuple(b_rates),
        )

    # -- evaluation --------------------------------------------------------
    def derivative(self, z, *directions):
        """The derivative of q along each unit complex direction in turn (q
        itself for none): d/dd e^{A z + B zbar} = (A d + B conj d) e^{A z + B zbar},
        so it is Re sum_t c_t prod_d (A_t d + B_t conj d) e^{A_t z + B_t zbar}."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=complex)
        for c, a, b in zip(self.coeffs, self.a_rates, self.b_rates):
            for d in directions:
                c = c * (a * d + b * d.conjugate())
            acc += c * np.exp(a * z + b * np.conj(z))
        out = np.real(acc)
        return out if out.ndim else float(out)

    def q(self, z):
        return self.derivative(z)

    def pde_residual(self, z):
        """q_xx + q_yy - 4 lambda q, from the analytic second derivatives."""
        return self.derivative(z, 1, 1) + self.derivative(z, 1j, 1j) - 4.0 * self.lam * self.q(z)


# -- trace extraction ------------------------------------------------------
def _side_trace(sol: ExpAtomSolution, geom: TriangleGeometry, side: int, terms) -> BoundaryTrace:
    """The trace sum_i w_i (derivative of q along the directions d_i) on one
    side, from ``terms`` = ((w_i, d_i), ...); its d/ds puts the side tangent
    in front of every term's directions."""
    tang = geom.side_tangent(side)

    def value(s, *lead):
        z = geom.side_point(side, s)
        return sum(w * sol.derivative(z, *lead, *dirs) for w, dirs in terms)

    return BoundaryTrace(side=side, value=value, derivative=lambda s: value(s, tang))


def dirichlet_trace(sol: ExpAtomSolution, geom: TriangleGeometry, side: int) -> BoundaryTrace:
    return _side_trace(sol, geom, side, ((1.0, ()),))


def neumann_trace(sol: ExpAtomSolution, geom: TriangleGeometry, side: int) -> BoundaryTrace:
    return _side_trace(sol, geom, side, ((1.0, (geom.side_normal(side),)),))


def poincare_trace(
    sol: ExpAtomSolution,
    geom: TriangleGeometry,
    side: int,
    beta: float,
    gamma: float,
) -> BoundaryTrace:
    """Data f = sin(beta) dq/dN + cos(beta) dq/dT + gamma q on one side."""
    norm, tang = geom.side_normal(side), geom.side_tangent(side)
    terms = ((math.sin(beta), (norm,)), (math.cos(beta), (tang,)), (gamma, ()))
    return _side_trace(sol, geom, side, terms)


def all_traces(sol: ExpAtomSolution, geom: TriangleGeometry):
    """(dirichlet, neumann) trace triples of the manufactured field."""
    dir_traces = tuple(dirichlet_trace(sol, geom, j) for j in (1, 2, 3))
    neu_traces = tuple(neumann_trace(sol, geom, j) for j in (1, 2, 3))
    return dir_traces, neu_traces


def corner_smooth_solution(
    lam: float,
    side_length: float,
    k0s,
    smooth_order: int = 3,
    rng=None,
) -> ExpAtomSolution:
    """Plane-wave combination with smooth chained boundary concatenations.

    The general series maps analyze the three side traces through one
    period-3l concatenation (side 2, side 1, side 3 in junction order), so
    their coefficients decay only as fast as that concatenation is smooth
    across the junctions.  This builder combines ``len(k0s)`` plane-wave
    atoms with complex weights chosen in the null space of the junction
    jump conditions of Dirichlet derivative orders 1..p and Neumann orders
    0..p, p = ``smooth_order``, which both concatenations then satisfy.
    Needs 2 * len(k0s) > 3 * (2 p + 1); the null vector is selected by the
    smallest singular values (optionally randomized via ``rng``).
    """
    geom = TriangleGeometry(side_length)
    n_atoms = len(k0s)
    n_cond = 3 * (2 * smooth_order + 1)
    if 2 * n_atoms <= n_cond:
        raise ParameterError("not enough atoms for the requested smoothness order")
    atoms = [ExpAtomSolution.plane_wave(lam, k0) for k0 in k0s]
    half = side_length / 2.0
    # junction pairs: (side at s=+l/2, side at s=-l/2) sharing a vertex
    pairs = ((1, 3), (2, 1), (3, 2))

    def trace_deriv(atom, side, s, p, neumann):
        """d^p/ds^p of the (Dirichlet or Neumann) trace, complex weight."""
        rot = geom.side_normal(side)
        tang = geom.side_tangent(side)
        z = geom.side_point(side, s)
        acc = 0.0 + 0.0j
        for c, a, b in zip(atom.coeffs, atom.a_rates, atom.b_rates):
            w = (a * tang + b * np.conj(tang)) ** p
            if neumann:
                w = w * (a * rot + b * np.conj(rot))
            acc += c * w * np.exp(a * z + b * np.conj(z))
        return acc

    rows = []
    for side_hi, side_lo in pairs:
        for p in range(1, smooth_order + 1):
            rows.append(
                [
                    trace_deriv(atom, side_hi, half, p, neumann=False)
                    - trace_deriv(atom, side_lo, -half, p, neumann=False)
                    for atom in atoms
                ]
            )
        for p in range(0, smooth_order + 1):
            rows.append(
                [
                    trace_deriv(atom, side_hi, half, p, neumann=True)
                    - trace_deriv(atom, side_lo, -half, p, neumann=True)
                    for atom in atoms
                ]
            )
    jumps = np.array(rows)
    # real coefficients for the (Re c, Im c) unknowns: Re[(x + i y) W]
    system = np.hstack([jumps.real, -jumps.imag])
    null = np.linalg.svd(system)[2][n_cond:]
    mix = np.ones(null.shape[0]) if rng is None else rng.normal(size=null.shape[0])
    vec = mix @ null
    vec = vec / np.max(np.abs(vec))
    coeffs = vec[:n_atoms] + 1j * vec[n_atoms:]
    return ExpAtomSolution(
        lam=lam,
        coeffs=tuple(coeffs),
        a_rates=tuple(a for atom in atoms for a in atom.a_rates),
        b_rates=tuple(b for atom in atoms for b in atom.b_rates),
    )


def symmetric_corner_compatible(
    lam: float, side_length: float, cs=(0.9, 1.7, 2.6)
) -> ExpAtomSolution:
    """Symmetrized field whose shared Neumann trace periodises smoothly.

    For a generic symmetrized field the Neumann trace has odd-derivative
    jumps at the corners, so its Fourier coefficients only decay
    algebraically.  Here three symmetrized even atoms (plane waves with
    imaginary parameter i*c) are combined with weights in the null space of
    the first- and third-derivative corner values, which removes the leading
    jumps and restores geometric coefficient decay.  The corner derivative
    values are evaluated exactly from the atom rates: on side 1 the Neumann
    trace is Re sum c_t (A_t + B_t) e^{(A_t + B_t) rho} e^{kappa_t s} with
    rho = l/(2 sqrt(3)) and kappa_t = i (A_t - B_t).
    """
    if len(cs) < 3:
        raise ParameterError("need at least three atom parameters")
    rho = side_length / (2.0 * math.sqrt(3.0))
    half = side_length / 2.0

    def corner_deriv(sol: ExpAtomSolution, p: int) -> float:
        acc = 0.0 + 0.0j
        for c, a, b in zip(sol.coeffs, sol.a_rates, sol.b_rates):
            kap = 1j * (a - b)
            acc += c * (a + b) * np.exp((a + b) * rho) * kap**p * np.exp(kap * half)
        return float(acc.real)

    candidates = [ExpAtomSolution.plane_wave(lam, 1j * c).symmetrized() for c in cs]
    rows = np.array([[corner_deriv(sol, p) for sol in candidates] for p in (1, 3)])
    weights = np.linalg.svd(rows)[2][-1]
    weights = weights / np.max(np.abs(weights))

    coeffs, a_rates, b_rates = [], [], []
    for w, sol in zip(weights, candidates):
        coeffs.extend(w * c for c in sol.coeffs)
        a_rates.extend(sol.a_rates)
        b_rates.extend(sol.b_rates)
    return ExpAtomSolution(
        lam=lam, coeffs=tuple(coeffs), a_rates=tuple(a_rates), b_rates=tuple(b_rates)
    )
