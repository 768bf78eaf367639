"""Verification mirrors: independent or dense forms of what the package
computes, which only the tests read.

* ``relation_system`` fills the 6x9 global-relation system at one k from
  ``relations.relation_rows``, and ``eliminate_second_side`` solves it
  densely: the reference for the cycle walk at moderate |k|;
* ``closed_form_elimination`` gives D(k) and Gamma_j(k) of the eliminated
  relation from the side symbols, the mirror of criterion 5 and of the
  mixed mode roots;
* ``scaled_sum`` sums ``Scaled`` values over their last axis (the
  trapezoid circles that the closed-form residues are tested against);
* ``scaled_free_piece`` evaluates the free piece of an
  ``ExponentialSumTrace`` in ``Scaled`` arithmetic, the form the trace
  used before it summed each term as one complex exponential.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from tridtn import relations
from tridtn.errors import DomainError, SolvabilityError
from tridtn.geometry import ALPHA, ALPHA_BAR, exp_E, exp_e
from tridtn.problems import ProblemSpec
from tridtn.scaledc import Scaled


# -- the 6x9 relation system ----------------------------------------------
@dataclass(frozen=True)
class RelationSystem:
    """Rows: base relation at (k, alpha k, alpha_bar k), then their Schwarz
    conjugates.  Columns: X_j(w) for j = 1..3 and w in (k, alpha k,
    alpha_bar k), in that order."""

    matrix: np.ndarray
    rhs: np.ndarray


def relation_system(problem: ProblemSpec, k: complex, corner_values=None) -> RelationSystem:
    """The 6x9 global-relation system at spectral point k, filled from
    ``relation_rows``.

    ``corner_values``: optional per-side (q(-l/2), q(l/2)) pairs for the
    corner terms of Poincare-type rows, which ``relation_rows`` leaves out:
    each row's side-j term at a = f k subtracts its prefactor E(-+i a)
    times C_j(a) = (e^{+-i beta_j}/(2 sin beta_j)) [e(-a) q_j(-l/2) -
    e(a) q_j(l/2)] (upper signs in the base rows).  When omitted, the corner
    terms are dropped, which is exact when the corner-cancellation
    condition holds and an error otherwise.
    """
    if k == 0:
        raise DomainError("relation system undefined at k = 0")
    if corner_values is None and not (problem.is_dirichlet or problem.admissibility().corner_cancelling):
        raise SolvabilityError("corner terms do not cancel; corner_values are required")
    samplers = relations.ProblemSamplers(problem)
    coeffs, rhs = relations.relation_rows(samplers, np.array([k], dtype=complex))
    matrix = np.zeros((6, 9), dtype=complex)
    # X_j(ARG_FACTORS[slot] k) is column 3 slot + j - 1
    matrix[np.arange(6)[:, None], 3 * relations._SLOTS + np.arange(3)] = coeffs.to_complex()[..., 0]
    rhs = rhs.to_complex()[:, 0]
    if corner_values is not None:
        lam, l = problem.lam, problem.side_length
        for r, row in enumerate(relations.RELATION_ROWS):
            s = 1j if row.conj else -1j
            for (_, f, _), side, (lo, hi) in zip(row.terms, problem.sides, corner_values):
                a = f * k
                c = cmath.exp(-s * side.beta) / (2.0 * math.sin(side.beta))
                rhs[r] -= exp_E(s * a, lam, l) * c * (exp_e(-a, lam, l) * lo - exp_e(a, lam, l) * hi)
    return RelationSystem(matrix=matrix, rhs=rhs)


@dataclass(frozen=True)
class Elimination:
    """X_2(abar k) = sum_j coeff[j] X_j(k) + inhom, from the 6x6 solve."""

    coeffs: np.ndarray
    inhom: complex
    condition: float


def eliminate_second_side(problem: ProblemSpec, k: complex, corner_values=None) -> Elimination:
    """Solve the six relations for the unknowns at alpha k / alpha_bar k and
    return the row expressing X_2(alpha_bar k) through the X_j(k): the dense
    reference for the cycle walk."""
    system = relation_system(problem, k, corner_values=corner_values)
    mat, rhs = system.matrix, system.rhs
    scale = np.max(np.abs(mat), axis=1)
    scale = np.where(scale > 0, scale, 1.0)
    mat = mat / scale[:, None]
    rhs = rhs / scale
    a = mat[:, 3:9]
    b = mat[:, 0:3]
    target = 4  # X_2(abar k), column 3 * 2 + 1 of the system
    sol_inhom = np.linalg.solve(a, rhs)
    sol_coupling = np.linalg.solve(a, b)
    return Elimination(
        coeffs=-sol_coupling[target, :],
        inhom=complex(sol_inhom[target]),
        condition=float(np.linalg.cond(a)),
    )


# -- closed-form elimination ----------------------------------------------
def closed_form_elimination(symbols, k, lam: float, side_length: float):
    """D(k) and Gamma_j(k) of the eliminated relation, from side symbols,
    at a scalar k or elementwise over an array of k:

        D(k) H_2(ab k) Y_2(ab k) = sum_j Gamma_j(k) H_j(k) Y_j(k) + T(k) + C(k).
    """
    a, ab = ALPHA * k, ALPHA_BAR * k
    e_k, e_mk, e_ab, e_mab = (exp_e(x, lam, side_length) for x in (k, -k, ab, -ab))
    pk = [sym.p(k) for sym in symbols]
    pa = [sym.p(a) for sym in symbols]
    pab = [sym.p(ab) for sym in symbols]
    d = (pab[0] / (pa[1] * pa[2])) * (
        e_mk**3 - e_k**3 * (pa[0] * pa[1] * pa[2]) / (pab[0] * pab[1] * pab[2])
    )
    g1 = (1.0 / pk[0]) * (e_mab - e_mk**2 * e_ab * pk[0] * pab[0] / (pa[1] * pa[2]))
    g2 = (e_mk**2 * pab[0] / (pk[1] * pa[1])) * (
        e_mab - e_k**4 * e_ab * pk[1] * pa[1] / (pab[0] * pab[2])
    )
    g3 = (e_k**2 * pa[0] / (pk[2] * pab[2])) * (
        e_mab - e_mk**2 * e_ab * pk[2] * pab[2] / (pa[0] * pa[1])
    )
    return d, (g1, g2, g3)


# -- Scaled sums ----------------------------------------------------------
def scaled_sum(x: Scaled) -> Scaled:
    """Sum over the last axis, rescaled to the largest exponent."""
    norm = x.normalized()
    top = np.max(norm.sigma, axis=-1)
    return Scaled(np.sum(norm.m * np.exp(norm.sigma - top[..., None]), axis=-1), top)


def scaled_free_piece(trace, s, derivative: bool = False):
    """Re sum_r c_r e^{-rates[r] s} (times -rates[r] for the derivative) of
    an ``ExponentialSumTrace`` at the 1-D array s, each term formed and
    collapsed in ``Scaled`` arithmetic."""
    coeffs = -trace.rates * trace.coeffs if derivative else trace.coeffs
    terms = coeffs * Scaled.from_exp(-np.multiply.outer(s, trace.rates))
    return np.real(np.sum(terms.to_complex(), axis=-1))
