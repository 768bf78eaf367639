"""The global relation: rho functions, residual audits and the 6x9
relation system with its numeric elimination.

For a side triple with spectral functions X_j (PSI for Dirichlet unknowns,
Y for Poincare-type unknowns) the base relation evaluated at k reads

    sum_j E(-i a_j k) [ c_j(a_j k) X_j(a_j k) + g_j(a_j k) ] = 0,

with rotation factors (a_1, a_2, a_3) = (1, alpha_bar, alpha), coefficients
c_j = i/2 (Dirichlet unknowns PSI_j) or c_j = H_j (Poincare unknowns Y_j),
and known parts g_j = PHI_j resp. F_j + C_j.  The Schwarz-conjugate relation
(valid for real data) replaces E(-i .) by E(+i .), H by Hbar, C by Cbar and
rotates with (1, alpha, alpha_bar).  Evaluating both families at k, alpha k,
alpha_bar k yields six equations in the nine unknowns X_j at the three
rotated arguments; eliminating the six unknowns at alpha k and alpha_bar k
expresses X_2(alpha_bar k) through the three X_j(k), which is the numeric
counterpart of the closed-form elimination identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolvabilityError
from .geometry import ALPHA, ALPHA_BAR, SIDE_ROT, SQRT3, exp_E, mu
from .problems import ProblemSpec
from .scaledc import Scaled
from .spectral import Kind, SideSampler, corner_term, transforms


# -- rho functions and the residual audit ----------------------------------
class GlobalRelation:
    """rho evaluators for a full (Dirichlet + Neumann) trace set."""

    def __init__(self, dirichlet, neumann, lam, side_length):
        self.lam = lam
        self.side_length = side_length
        self._psi = [
            SideSampler(t, Kind.PSI, lam, side_length) for t in neumann
        ]
        self._phi = [
            SideSampler(t, Kind.PHI, lam, side_length) for t in dirichlet
        ]

    def _rho(self, k, psi, phi) -> Scaled:
        env = Scaled.from_exp(mu(-1j * k, self.lam) * (self.side_length / (2.0 * SQRT3)))
        return env * (0.5j * psi + phi)

    def rho_scaled(self, side: int, k) -> Scaled:
        """rho_j(k) = E(-ik) [ (i/2) PSI_j(k) + PHI_j(k) ] as a 1-D Scaled array."""
        k = np.atleast_1d(np.asarray(k, dtype=complex))
        psi, phi = transforms([self._psi[side - 1], self._phi[side - 1]], k)
        return self._rho(k, psi, phi)

    def relative_residual(self, ks):
        """|sum_j rho~_j(k)| / max_j |rho~_j(k)| on a 1-D array of k (0 where
        every rho~_j vanishes)."""
        args = np.stack([SIDE_ROT[j] * np.asarray(ks, dtype=complex).ravel() for j in (1, 2, 3)])
        # every sampler at every side's arguments; side j reads its own
        values = transforms(self._psi + self._phi, args)
        vals = [self._rho(args[j], values[j, j], values[3 + j, j]) for j in range(3)]
        scale = np.maximum.reduce([v.abs_log() for v in vals])
        with np.errstate(invalid="ignore"):
            out = np.exp((vals[0] + vals[1] + vals[2]).abs_log() - scale)
        return np.where(scale == -np.inf, 0.0, out)

    def residual_audit(self, ks):
        """Max relative residual over a sample of spectral points; NaN when
        any residual is NaN."""
        return float(np.max(self.relative_residual(ks), initial=0.0))


# -- the six relation rows -------------------------------------------------
#: Argument factors alpha^n of the rotated unknowns X_j(alpha^n k), indexed
#: by the unknown slot n (k, alpha k, alpha_bar k).
ARG_FACTORS = (1.0 + 0.0j, ALPHA, ALPHA_BAR)
_ARG_NAMES = ("k", "alpha*k", "abar*k")


@dataclass(frozen=True)
class RelationRow:
    """One global-relation row: the base (``conj=False``) or Schwarz-conjugate
    relation evaluated at ARG_FACTORS[slot] k.  ``terms`` holds one
    (side j, factor f, unknown slot) triple per side: side j enters at
    argument f k = ARG_FACTORS[unknown slot] k."""

    conj: bool
    slot: int
    terms: tuple


def _relation_rows():
    rows = []
    # per-side rotations as powers of alpha: (1, abar, alpha) in the base
    # relation, (1, alpha, abar) in its Schwarz conjugate
    for conj, powers in ((False, (0, 2, 1)), (True, (0, 1, 2))):
        for slot in range(3):
            slots = [(slot + p) % 3 for p in powers]
            terms = tuple((j, ARG_FACTORS[u], u) for j, u in zip((1, 2, 3), slots))
            rows.append(RelationRow(conj=conj, slot=slot, terms=terms))
    return tuple(rows)


def _elimination_cycle(rows):
    """Back-substitution order (row, self term, next term) for Y_2(abar k).

    Each row couples exactly two of the six unknowns at alpha k and
    alpha_bar k, so the rows form a single 6-cycle; walking it from
    Y_2(abar k) expresses that unknown through the data alone.
    """
    unknowns = [
        {(j, u): i for i, (j, _, u) in enumerate(row.terms) if u} for row in rows
    ]
    start = u = (2, 2)
    row = next(r for r, us in enumerate(unknowns) if u in us)
    steps = []
    for _ in range(len(rows)):
        (u_next,) = [x for x in unknowns[row] if x != u]
        steps.append((row, unknowns[row][u], unknowns[row][u_next]))
        u = u_next
        row = next(r for r, us in enumerate(unknowns) if u in us and r != row)
    if u != start:
        raise RuntimeError("relation rows do not close into a 6-cycle")
    return tuple(steps)


RELATION_ROWS = _relation_rows()
ELIMINATION_CYCLE = _elimination_cycle(RELATION_ROWS)


# -- the 6x9 relation system ----------------------------------------------
@dataclass(frozen=True)
class RelationSystem:
    """Rows: base relation at (k, alpha k, alpha_bar k), then their Schwarz
    conjugates.  Columns: X_j(w) for j = 1..3 and w in (k, alpha k,
    alpha_bar k), in that order."""

    matrix: np.ndarray
    rhs: np.ndarray
    unknown_labels: tuple
    row_labels: tuple


def _column(side_j: int, arg_slot: int) -> int:
    return 3 * arg_slot + (side_j - 1)


class ProblemSamplers:
    """Cached data transforms of one problem's side data: PHI of Dirichlet
    data, or PSI of Poincare data, whose transform F_j is
    ``scale[j - 1]`` PSI_j with scale 1/(2 sin beta_j)."""

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        lam, l = problem.lam, problem.side_length
        sides = [problem.side(j) for j in (1, 2, 3)]
        self.kind = "dirichlet" if problem.is_dirichlet else "poincare"
        kind = Kind.PHI if problem.is_dirichlet else Kind.PSI
        self.data = [SideSampler(side.data, kind, lam, l) for side in sides]
        if not problem.is_dirichlet:
            self.scale = [1.0 / (2.0 * math.sin(side.beta)) for side in sides]
            self.symbols = [side.symbol(lam) for side in sides]


def relation_system(
    problem: ProblemSpec, k: complex, corner_values=None
) -> RelationSystem:
    """Assemble the 6x9 global-relation system at spectral point k.

    ``corner_values``: optional per-side (q(-l/2), q(l/2)) triples for the
    corner terms of Poincare-type rows.  When omitted, the corner terms are
    dropped, which is exact when the corner-cancellation condition holds and
    an error otherwise.
    """
    if k == 0:
        raise DomainError("relation system undefined at k = 0")
    samplers = ProblemSamplers(problem)
    lam, l = problem.lam, problem.side_length
    report = problem.admissibility()
    if samplers.kind == "poincare" and corner_values is None:
        if not report.corner_cancelling:
            raise SolvabilityError(
                "corner terms do not cancel; corner_values are required"
            )

    # data transforms per side j at every argument ARG_FACTORS[slot] k
    data = transforms(samplers.data, np.array(ARG_FACTORS) * k).to_complex()
    matrix = np.zeros((6, 9), dtype=complex)
    rhs = np.zeros(6, dtype=complex)
    for r, row in enumerate(RELATION_ROWS):
        for j, factor, slot in row.terms:
            arg = factor * k
            pref = exp_E((1j if row.conj else -1j) * arg, lam, l)
            known = data[j - 1, slot]
            if samplers.kind == "dirichlet":
                matrix[r, _column(j, slot)] += pref * (-0.5j if row.conj else 0.5j)
            else:
                sym = samplers.symbols[j - 1]
                matrix[r, _column(j, slot)] += pref * (sym.hbar(arg) if row.conj else sym.h(arg))
                known = samplers.scale[j - 1] * known
                if corner_values is not None:
                    q, beta = corner_values[j - 1], problem.side(j).beta
                    known += corner_term(*q, arg, lam, l, beta, conjugated=row.conj)
            rhs[r] -= pref * known
    labels = tuple(
        f"{'PSI' if samplers.kind == 'dirichlet' else 'Y'}{j}({_ARG_NAMES[slot]})"
        for slot in range(3)
        for j in (1, 2, 3)
    )
    row_labels = tuple(
        ("conj " if row.conj else "") + f"relation at {_ARG_NAMES[row.slot]}"
        for row in RELATION_ROWS
    )
    return RelationSystem(
        matrix=matrix, rhs=rhs, unknown_labels=labels, row_labels=row_labels
    )


# -- numeric elimination ---------------------------------------------------
@dataclass(frozen=True)
class Elimination:
    """X_2(abar k) = sum_j coeff[j] X_j(k) + inhom, from the 6x6 solve."""

    coeffs: np.ndarray
    inhom: complex
    condition: float


def eliminate_second_side(
    problem: ProblemSpec, k: complex, corner_values=None
) -> Elimination:
    """Solve the six relations for the unknowns at alpha k / alpha_bar k and
    return the row expressing X_2(alpha_bar k) through the X_j(k)."""
    system = relation_system(problem, k, corner_values=corner_values)
    mat, rhs = system.matrix, system.rhs
    scale = np.max(np.abs(mat), axis=1)
    scale = np.where(scale > 0, scale, 1.0)
    mat = mat / scale[:, None]
    rhs = rhs / scale
    a = mat[:, 3:9]
    b = mat[:, 0:3]
    target = _column(2, 2) - 3  # X_2(abar k) within the eliminated block
    sol_inhom = np.linalg.solve(a, rhs)
    sol_coupling = np.linalg.solve(a, b)
    cond = float(np.linalg.cond(a))
    return Elimination(
        coeffs=-sol_coupling[target, :],
        inhom=complex(sol_inhom[target]),
        condition=cond,
    )
