"""Verification mirrors: independent or dense forms of what the package
computes, which only the tests read.

* ``relation_system`` fills the 6x9 global-relation system at one k from
  ``relations.relation_rows``, and ``eliminate_second_side`` solves it
  densely: the reference for the cycle walk at moderate |k|;
* ``side_h`` writes out the symbol H(k) of a side (beta, gamma) without
  ``tridtn.symbols``, and ``closed_form_elimination`` gives D(k) and
  Gamma_j(k) of the eliminated relation from it, the mirror of criterion 5,
  of the mixed mode roots and of the Robin mode roots;
* ``scaled_sum`` sums ``Scaled`` values over their last axis (the
  trapezoid circles that the closed-form residues are tested against);
* ``scaled_free_piece`` evaluates the free piece of an
  ``ExponentialSumTrace`` in ``Scaled`` arithmetic, the form the trace
  used before it summed each term as one complex exponential;
* ``rayleigh_columns`` gives the Legendre columns of an
  ``ExponentialSumTrace`` from its exponentials, by the Rayleigh expansion
  over a Miller table of i_n, where the package samples the trace.
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
def side_h(k, lam: float, beta: float, gamma: float):
    """H(k) = k e^{i beta} + lambda/(k e^{i beta}) - gamma; -beta gives Hbar(k)."""
    return k * np.exp(1j * beta) + lam / (k * np.exp(1j * beta)) - gamma


def side_p(k, lam: float, beta: float, gamma: float):
    """P(k) = H(k)/Hbar(k) of a side (beta, gamma)."""
    return side_h(k, lam, beta, gamma) / side_h(k, lam, -beta, gamma)


def closed_form_elimination(sides, k, lam: float, side_length: float):
    """D(k) and Gamma_j(k) of the eliminated relation, from the (beta_j,
    gamma_j) pairs ``sides``, at a scalar k or elementwise over an array of k:

        D(k) H_2(ab k) Y_2(ab k) = sum_j Gamma_j(k) H_j(k) Y_j(k) + T(k) + C(k).
    """
    a, ab = ALPHA * k, ALPHA_BAR * k
    e_k, e_mk, e_ab, e_mab = (exp_e(x, lam, side_length) for x in (k, -k, ab, -ab))
    pk, pa, pab = ([side_p(x, lam, *side) for side in sides] for x in (k, a, ab))
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


# -- Legendre columns of exponential sums -----------------------------------
def _miller_table(z):
    """Rows n = 0, 1, ... of e^{-|Re z|} i_n(z), one column per point of a
    1-D array z: the ratios i_n/i_{n-1} of Miller's backward recurrence,
    started past the turning point |z| and its Airy layer or, for large
    Re z, past the decay i_n/i_0 ~ exp(-n^2 Re z/(2|z|^2)) by e^-36, and
    multiplied up from the larger of i_0 and i_1 (i_0 vanishes at
    z = i pi m)."""
    az = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = np.sqrt(72.0 * az**2 / np.abs(z.real)) + 16.0
    top = int(np.ceil(np.max(np.fmin(az + 8.0 * np.cbrt(az) + 16.0, decay))))
    table = np.empty((top + 1, z.size), dtype=complex)
    ratio = np.zeros(z.shape, dtype=complex)
    for n in range(top, 0, -1):
        ratio = table[n] = z / ((2 * n + 1) + z * ratio)
    # e^{-|x|} (sinh z, cosh z), z = x + iy, from one expm1(-2|x|)
    em = np.expm1(-2.0 * np.abs(z.real))
    sh, ch = np.copysign(-0.5 * em, z.real), 1.0 + 0.5 * em
    sinh = sh * np.cos(z.imag) + 1j * ch * np.sin(z.imag)
    cosh = ch * np.cos(z.imag) + 1j * sh * np.sin(z.imag)
    inv = 1.0 / np.where(z == 0.0, 1.0, z)
    i0 = np.where(z == 0.0, 1.0, sinh * inv)
    i1 = (cosh - i0) * inv
    by_i1 = (np.abs(i1) > np.abs(i0)) & (az > 1.0)  # below 1, i_1 cancels
    table[1] = np.where(by_i1, i1, i0 * table[1])
    np.cumprod(table[1:], axis=0, out=table[1:])
    table[0] = i0
    return table


def rayleigh_columns(trace, column: str, side_length: float):
    """Legendre coefficients in s/(l/2), complex, of ``trace.<column>``
    ("value" or "derivative") for an ``ExponentialSumTrace``
    Re sum_j w_j e^{kappa_j s}, by the Rayleigh expansion
    e^{zx} = sum_n (2n + 1) i_n(z) P_n(x) (DLMF 10.60):
    a_n = (2n + 1) sum_j w_j i_n(kappa_j l/2).  The table carries
    e^{-|Re z|}, so the weights take e^{|Re z|}: 1 on the lattice, whose
    rates are i t.  The derivative multiplies each weight by its kappa."""
    kappa = np.concatenate([1j * trace.t.ravel(), -trace.rates])
    z = kappa * (side_length / 2.0)
    free = Scaled(trace.coeffs.m, trace.coeffs.sigma + np.abs(z[trace.t.size :].real))
    weights = np.concatenate([trace.weighted.ravel(), free.to_complex() * np.ones(trace.rates.shape)])
    if column == "derivative":
        weights = kappa * weights
    table = _miller_table(z)
    return (2 * np.arange(len(table)) + 1) * (table @ weights)
