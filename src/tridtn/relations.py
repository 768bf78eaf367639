"""The global relation: rho functions, residual audits, and the one
assembly and one elimination of its six rows.

For a side triple with spectral functions X_j (PSI for Dirichlet unknowns,
Y for Poincare-type unknowns) the base relation evaluated at k reads

    sum_j E(-i a_j k) [ c_j(a_j k) X_j(a_j k) + g_j(a_j k) ] = 0,

with rotation factors (a_1, a_2, a_3) = (1, alpha_bar, alpha), coefficients
c_j = i/2 (Dirichlet unknowns PSI_j) or c_j = H_j (Poincare unknowns Y_j),
and known parts g_j = PHI_j resp. F_j + C_j, with the corner term
C_j(k) = (e^{i beta}/(2 sin beta)) [e(-k) q(-l/2) - e(k) q(l/2)].  The
Schwarz-conjugate relation (valid for real data) replaces E(-i .) by
E(+i .), i/2 by -i/2, H by Hbar, C by Cbar and rotates with (1, alpha,
alpha_bar).  Both families at k, alpha k, alpha_bar k are the six rows of
RELATION_ROWS, in the nine unknowns X_j at the three rotated arguments.
``relation_rows`` assembles them at arrays of k in ``Scaled`` arithmetic,
and ``walk_cycle`` eliminates the six unknowns at alpha k and alpha_bar k
along ELIMINATION_CYCLE, expressing X_2(alpha_bar k) through the three
X_j(k).  Every user reads these two: the inhomogeneity of the contour
solvers (``ScaledElimination``), the moments that the series maps and the
oblique Robin modes read at mode roots (``mode_moment``), and the 6x9
system (``relation_system``), whose dense solve (``eliminate_second_side``)
is the reference for the walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolvabilityError
from .geometry import ALPHA, ALPHA_BAR, SIDE_ROT, SQRT3, mu
from .problems import ProblemSpec, check_lam
from .scaledc import Scaled
from .spectral import Kind, SideSampler, transforms


# -- rho functions and the residual audit ----------------------------------
class GlobalRelation:
    """rho evaluators for a full (Dirichlet + Neumann) trace set."""

    def __init__(self, dirichlet, neumann, lam, side_length):
        check_lam(lam)
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

    def rhos(self, k, images=None) -> Scaled:
        """rho_j(k) = E(-ik) [ (i/2) PSI_j(k) + PHI_j(k) ] of the three sides
        at every point of k, shaped (3,) + k.shape, from one transform call;
        ``images`` names the points as in ``spectral.transforms``."""
        k = np.asarray(k, dtype=complex)
        values = transforms(self._psi + self._phi, k, images)
        return self._rho(k, values[:3], values[3:])

    def relative_residual(self, ks):
        """|sum_j rho~_j(k)| / max_j |rho~_j(k)| on a 1-D array of k (0 where
        every rho~_j vanishes)."""
        args = np.stack([SIDE_ROT[j] * np.asarray(ks, dtype=complex).ravel() for j in (1, 2, 3)])
        # every side at every side's arguments; side j reads its own
        rhos = self.rhos(args)
        vals = [rhos[j, j] for j in range(3)]
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


# -- one assembly of the six rows, one walk of their cycle ------------------
_CONJ = np.array([int(row.conj) for row in RELATION_ROWS])
#: the unknown slot of each row's side-j term, and where that slot is k itself
_SLOTS = np.array([[u for _, _, u in row.terms] for row in RELATION_ROWS])
_AT_K = _SLOTS == 0


class ProblemSamplers:
    """Cached data transforms of one problem's sides and the row coefficients
    of its unknowns: PHI of Dirichlet data, with the unknowns PSI_j at +-i/2,
    or PSI of Poincare data, whose transform F_j is ``scale[j - 1]`` PSI_j
    with scale 1/(2 sin beta_j), with the unknowns Y_j at H_j (Hbar_j in the
    conjugate rows).  ``symbols`` is None for a Dirichlet problem."""

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.lam, self.side_length = problem.lam, problem.side_length
        dirichlet = problem.is_dirichlet
        kind = Kind.PHI if dirichlet else Kind.PSI
        self.data = [SideSampler(side.data, kind, self.lam, self.side_length) for side in problem.sides]
        self.symbols = None if dirichlet else [side.symbol(self.lam) for side in problem.sides]
        self.scale = np.array(
            [1.0 if dirichlet else 0.5 / math.sin(side.beta) for side in problem.sides]
        )


def relation_rows(samplers: ProblemSamplers, k, corner_values=None, images=None):
    """The six global-relation rows at every point of the 1-D array ``k``,
    in exponent-carrying arithmetic: row r of RELATION_ROWS reads

        sum_j coeffs[r, j - 1] X_j(f_rj k) = rhs[r],

    f_rj the factor of its side-j term, with ``coeffs`` of shape (6, 3, N)
    and ``rhs`` of shape (6, N).  Each term carries the prefactor E(-i f_rj k)
    (E(+i f_rj k) in the conjugate rows); the right side holds minus the data
    transforms, plus the corner terms when ``corner_values`` gives each
    side's (q(-l/2), q(l/2)).  ``images`` names the points ARG_FACTORS k,
    in that order, as ``spectral.transforms`` does."""
    lam, l = samplers.lam, samplers.side_length
    args = np.multiply.outer(ARG_FACTORS, k)
    # the six prefactors, E(-i a) and E(+i a) at a = ARG_FACTORS[slot] k
    pref = Scaled.from_exp(mu(np.multiply.outer((-1j, 1j), args), lam) * (l / (2.0 * SQRT3)))
    known = transforms(samplers.data, args, images) * samplers.scale[:, None, None]
    conj, sides = _CONJ[:, None], np.arange(3)
    pref = pref[conj, _SLOTS]
    if samplers.symbols is None:
        coeffs = pref * np.where(_CONJ, -0.5j, 0.5j)[:, None, None]
    else:
        h = np.array(
            [[(sym.hbar if c else sym.h)(args) for sym in samplers.symbols] for c in (0, 1)]
        )
        coeffs = pref * h[conj, sides, _SLOTS]
    terms = pref * known[sides, _SLOTS]
    if corner_values is not None:
        # C_j(a) = (e^{+-i beta_j}/(2 sin beta_j)) [e(-a) q_j(-l/2) - e(a) q_j(l/2)]
        q = np.asarray(corner_values, dtype=float)[:, :, None, None]
        plus, minus = Scaled.exp_pair(mu(args, lam) * (l / 2.0))
        edges = minus * q[:, 0] - plus * q[:, 1]
        beta = np.array([side.beta for side in samplers.problem.sides])
        phase = np.exp(np.multiply.outer((1j, -1j), beta)) * samplers.scale
        terms = terms + pref * (phase[:, :, None, None] * edges)[conj, sides, _SLOTS]
    return coeffs, -(terms[:, 0] + terms[:, 1] + terms[:, 2])


def walk_cycle(coeffs, rhs):
    """Eliminate the six unknowns at alpha k and alpha_bar k from the rows
    (``relation_rows``) by walking ELIMINATION_CYCLE from X_2(abar k): each
    row gives its own unknown through the next one, so with ``prod`` the
    product of the six coupling ratios

        X_2(abar k) (1 - prod) = acc,

    the terms of the unknowns at k left in ``rhs``.  ``rhs`` stacks any
    number of right-hand sides, shape (6, ...) broadcasting against k."""
    prod, acc = Scaled.of(1.0), Scaled.of(0.0)
    for r, own, nxt in ELIMINATION_CYCLE:
        c_self = coeffs[r, own]
        acc = acc + prod * (rhs[r] / c_self)
        prod = prod * (-(coeffs[r, nxt] / c_self))
    return acc, prod


def cycle_log_derivative(samplers: ProblemSamplers, k):
    """d/dk log prod of ``walk_cycle`` at the 1-D array ``k``, the sum over
    ELIMINATION_CYCLE of d log c[r, nxt] - d log c[r, own]: a coefficient
    E(s f k) H_j(f k) (s = -i; s = +i and Hbar_j in the conjugate rows) has
    d log c = (l/(2 sqrt 3)) s f (1 - lambda/(s f k)^2) + f H_j'(f k)/H_j(f k)."""
    f, s = np.array(ARG_FACTORS)[:, None], np.array([-1j, 1j])[:, None, None, None]
    dlog = (samplers.side_length / (2.0 * SQRT3)) * s * f * (1.0 - samplers.lam / (s * f * k) ** 2)
    if samplers.symbols is not None:
        dlog = dlog + f * np.array(
            [[sym.dh(f * k) / sym.h(f * k) for sym in samplers.symbols],
             [sym.dhbar(f * k) / sym.hbar(f * k) for sym in samplers.symbols]]
        )
    dlog = np.broadcast_to(dlog, (2, 3, 3, k.size))[_CONJ[:, None], np.arange(3), _SLOTS]
    return sum(dlog[r, nxt] - dlog[r, own] for r, own, nxt in ELIMINATION_CYCLE)


def eliminate_rows(samplers: ProblemSamplers, k):
    """(acc, couplings, prod) with X_2(abar k)(1 - prod) = acc + sum_j
    couplings[j - 1] X_j(k) at every point of the 1-D array ``k``: the data
    and the three unknowns at k walk the cycle as four stacked right-hand
    sides, each unknown's column holding minus its coefficient in the two
    rows that read it at k and an exact zero (sigma = -inf) in the others."""
    coeffs, rhs = relation_rows(samplers, k)
    at_k = _AT_K[..., None]
    stacked = Scaled(
        np.concatenate([rhs.m[:, None], np.where(at_k, -coeffs.m, 0.0)], axis=1),
        np.concatenate([rhs.sigma[:, None], np.where(at_k, coeffs.sigma, -np.inf)], axis=1),
    )
    acc, prod = walk_cycle(coeffs, stacked)
    return acc[0], acc[1:], prod


def mode_moment(problem: ProblemSpec, k) -> Scaled:
    """The moment sum_j (A_j scale_j)/(A_1 scale_1) PSI_j(k) of the unknown
    traces (Neumann for a Dirichlet problem, Dirichlet for a Poincare one),
    X_j = scale_j PSI_j, at mode roots ``k`` (a 1-D array): there the loop
    product is 1, the eliminated relation leaves 0 = acc + sum_j A_j X_j(k),
    and the moment is -acc/(A_1 scale_1)."""
    samplers = ProblemSamplers(problem)
    acc, couplings, _ = eliminate_rows(samplers, k)
    return -acc / (couplings[0] * samplers.scale[0])


class ScaledElimination:
    """The inhomogeneity of the eliminated relation, X_2(abar k) at zero
    unknowns X_j(k), acc/(1 - prod) of the cycle walk over the data column;
    for a Poincare problem it is T(k)/(H_2(abar k) D(k)).

    Every intermediate of the walk is a ratio of well-scaled quantities,
    which keeps the result relatively accurate at arbitrarily large |k| (or
    near k = 0), where the plain double-precision solve of the assembled
    system (``eliminate_second_side``) loses all digits to its exponential
    dynamic range.
    """

    def __init__(self, problem: ProblemSpec):
        self._samplers = ProblemSamplers(problem)

    def inhom(self, k, images=None) -> Scaled:
        """The inhomogeneity at a scalar k or over an array of k; ``images`` as in relation_rows."""
        k = np.asarray(k, dtype=complex)
        acc, prod = walk_cycle(*relation_rows(self._samplers, k.ravel(), images=images))
        return (acc / (1.0 - prod)).reshape(k.shape)

    def residues(self, k) -> Scaled:
        """The residues -acc/(prod d log prod/dk) of the inhomogeneity at its
        simple poles ``k`` (a 1-D array), the zeros of 1 - prod."""
        k = np.asarray(k, dtype=complex)
        acc, prod = walk_cycle(*relation_rows(self._samplers, k))
        return -acc / (prod * cycle_log_derivative(self._samplers, k))


# -- the 6x9 relation system ----------------------------------------------
@dataclass(frozen=True)
class RelationSystem:
    """Rows: base relation at (k, alpha k, alpha_bar k), then their Schwarz
    conjugates.  Columns: X_j(w) for j = 1..3 and w in (k, alpha k,
    alpha_bar k), in that order."""

    matrix: np.ndarray
    rhs: np.ndarray


def relation_system(
    problem: ProblemSpec, k: complex, corner_values=None
) -> RelationSystem:
    """The 6x9 global-relation system at spectral point k, filled from
    ``relation_rows``.

    ``corner_values``: optional per-side (q(-l/2), q(l/2)) triples for the
    corner terms of Poincare-type rows.  When omitted, the corner terms are
    dropped, which is exact when the corner-cancellation condition holds and
    an error otherwise.
    """
    if k == 0:
        raise DomainError("relation system undefined at k = 0")
    samplers = ProblemSamplers(problem)
    if samplers.symbols is not None and corner_values is None:
        if not problem.admissibility().corner_cancelling:
            raise SolvabilityError(
                "corner terms do not cancel; corner_values are required"
            )
    coeffs, rhs = relation_rows(samplers, np.array([k], dtype=complex), corner_values)
    matrix = np.zeros((6, 9), dtype=complex)
    # X_j(ARG_FACTORS[slot] k) is column 3 slot + j - 1
    matrix[np.arange(6)[:, None], 3 * _SLOTS + np.arange(3)] = coeffs.to_complex()[..., 0]
    return RelationSystem(matrix=matrix, rhs=rhs.to_complex()[:, 0])


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
    cond = float(np.linalg.cond(a))
    return Elimination(
        coeffs=-sol_coupling[target, :],
        inhom=complex(sol_inhom[target]),
        condition=cond,
    )
