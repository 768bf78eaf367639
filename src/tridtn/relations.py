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
``relation_rows`` assembles them, without C_j, at arrays of k as
``Scaled`` rows, each exponent in closed form and each mantissa a plain
complex array, and ``walk_cycle`` eliminates the six unknowns at alpha k
and alpha_bar k along ELIMINATION_CYCLE, expressing X_2(alpha_bar k)
through the three X_j(k): a cumulative sum of exponents and a cumulative
product of mantissas over the cycle, and one rescaled sum of its six
terms.  Every user reads these two: the contour solvers' inhomogeneity
and its residues (``ScaledElimination``, one assembly and one walk for
the ray points and the poles together), and the moments that the series
maps and the oblique Robin modes read at mode roots (``mode_moment``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ALPHA, ALPHA_BAR, SIDE_ROT, SQRT3, mu
from .problems import ProblemSpec, check_lam
from .scaledc import Scaled
from .spectral import Kind, SideSampler, transforms
from .symbols import symbol_slopes, symbol_values


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
#: the unknown slot of each row's side-j term
_SLOTS = np.array([[u for _, _, u in row.terms] for row in RELATION_ROWS])


class ProblemSamplers:
    """Cached data transforms of one problem's sides and the row coefficients
    of its unknowns: PHI of Dirichlet data, with the unknowns PSI_j at +-i/2,
    or PSI of Poincare data, whose transform F_j is ``scale[j - 1]`` PSI_j
    with scale 1/(2 sin beta_j), with the unknowns Y_j at H_j (Hbar_j in the
    conjugate rows).  The coefficients are ``symbols.symbol_values`` of
    ``turns`` and ``gammas``, shaped for (family, side, slot, point): turns
    e^{i beta_j} (e^{-i beta_j} in the conjugate family) and gammas gamma_j,
    or for a Dirichlet problem turns 0 and gammas -+i/2."""

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.lam, self.side_length = problem.lam, problem.side_length
        dirichlet = problem.is_dirichlet
        kind = Kind.PHI if dirichlet else Kind.PSI
        self.data = [SideSampler(side.data, kind, self.lam, self.side_length) for side in problem.sides]
        beta, gamma = np.array([(side.beta, side.gamma) for side in problem.sides]).T
        self.scale = np.ones(3) if dirichlet else 0.5 / np.sin(beta)
        turn = np.zeros(3) if dirichlet else np.exp(1j * beta)
        self.turns = np.stack([turn, turn.conj()])[:, :, None, None]
        self.gammas = (np.array([[-0.5j], [0.5j]]) if dirichlet else gamma)[..., None, None]


#: the (family, side, slot) of each row's three terms: it gathers (2, 3, 3, N)
#: arrays, base and conjugate family by side and unknown slot, into rows
_PICK = (_CONJ[:, None], np.arange(3), _SLOTS)


def _prefactors(args, lam, side_length):
    """lambda/a at the arguments ``args`` = ARG_FACTORS k (conj(f) lambda/k,
    as |f| = 1), shaped (3, N), and the prefactors E(-i a) of the base rows
    and E(+i a) of the conjugate rows as unit phases and real exponents,
    shaped (2, 1, 3, N): with nu = (a - lambda/a) l/(2 sqrt 3),
    mu(-+i a) l/(2 sqrt 3) = -+i nu, so E(-i a) = e^{Im nu} e^{-i Re nu}
    and E(+i a) = 1/E(-i a)."""
    inv = np.conj(ARG_FACTORS)[:, None] * (lam / args[0])
    nu = (args - inv) * (side_length / (2.0 * SQRT3))
    phase = np.exp(-1j * nu.real)
    return inv, np.array([phase, phase.conj()])[:, None], np.array([nu.imag, -nu.imag])[:, None]


def _rescaled_sum(m, sigma, axis=0):
    """The sum of the terms m e^sigma along ``axis`` as the mantissa and
    exponent of one Scaled value, each term rescaled to the largest exponent
    at its point; ``m`` and ``sigma`` are overwritten."""
    top = sigma.max(axis=axis, keepdims=True)
    m *= np.exp(np.subtract(sigma, top, out=sigma), out=sigma)
    return m.sum(axis=axis), top.squeeze(axis)


def relation_rows(samplers: ProblemSamplers, k, images=None):
    """The six global-relation rows at every point of the 1-D array ``k``,
    in exponent-carrying form: row r of RELATION_ROWS reads

        sum_j coeffs[r, j - 1] X_j(f_rj k) = rhs[r],

    f_rj the factor of its side-j term, with ``coeffs`` of shape (6, 3, N)
    and ``rhs`` of shape (6, N), both ``Scaled``.  Each term carries the
    prefactor E(-i f_rj k) (E(+i f_rj k) in the conjugate rows), whose
    exponent, closed-form (``_prefactors``), is the coefficient's; a data
    term adds the transform's.  The right side holds minus the data
    transforms, summed at the largest of their exponents, and no corner
    term C_j: it cancels in Poincare rows whose betas differ by even
    multiples of pi/3, as on the Neumann and Robin sides that the solvers
    take.
    ``images`` names the points ARG_FACTORS k, in that order, as
    ``spectral.transforms`` does."""
    l = samplers.side_length
    args = np.multiply.outer(ARG_FACTORS, k)
    known = transforms(samplers.data, args, images)
    inv, phase, sigma = _prefactors(args, samplers.lam, l)
    coeffs = Scaled(
        (symbol_values(samplers.turns, samplers.gammas, args, inv) * phase)[_PICK],
        sigma[_CONJ[:, None], 0, _SLOTS],
    )
    m, s = phase * known.m * -samplers.scale[:, None, None], sigma + known.sigma
    return coeffs, Scaled(*_rescaled_sum(m[_PICK], s[_PICK], axis=1))


#: ELIMINATION_CYCLE as arrays: the rows, their own terms, their next terms
_ROWS, _OWN, _NEXT = np.array(ELIMINATION_CYCLE).T


def walk_cycle(coeffs, rhs):
    """Eliminate the six unknowns at alpha k and alpha_bar k from the rows
    (``relation_rows``) by walking ELIMINATION_CYCLE from X_2(abar k): each
    row gives its own unknown through the next one, so with ``prod`` the
    product of the six coupling ratios

        X_2(abar k) (1 - prod) = acc,

    the terms of the unknowns at k left in ``rhs``.  ``rhs`` stacks any
    number of right-hand sides, shape (6, ...) broadcasting against k.

    The walk is a cumulative product of the step ratios -c[r, nxt]/c[r, own],
    mantissas and exponents apart, and one rescaled sum of its six terms.
    The mantissas stay in the double range.  A coefficient is E(s a) H_j(a),
    a = f k (+-i/2 in place of H_j in Dirichlet rows), with |E| carried in
    the exponent, so its mantissa is a unit phase times H_j(a), and that of
    a step ratio is a unit phase times H_j(a)/H_i(a'), where every argument
    has the modulus |k|.  As H_j(w) = w e^{i beta_j} + (lambda/w)
    e^{-i beta_j} - gamma_j, each |H| is at most |k| + lambda/|k| + |gamma|,
    and a ratio tends to a unit phase for |k| >> sqrt(lambda) + |gamma| and
    for lambda/|k| >> |k| + |gamma|.  So a product of six
    ratios leaves [1e-300, 1e300] only where some |H_i(a')| falls to about
    1e-50 of that bound, within that relative distance of a zero of a
    symbol, where the row no longer determines its unknown.  A term of
    ``acc`` is a product of at most five ratios times a right-hand mantissa
    (a transform mantissa, at most the data's scale, times a unit phase)
    over a coefficient mantissa, and the sum rescales each term by
    e^{sigma - top} <= 1."""
    inv, c_s = 1.0 / coeffs.m[_ROWS, _OWN], coeffs.sigma[_ROWS, _OWN]
    # prod before each step and after the last
    prod_m = np.cumprod(np.concatenate([np.ones_like(inv[:1]), coeffs.m[_ROWS, _NEXT] * -inv]), axis=0)
    prod_s = np.cumsum(np.concatenate([np.zeros_like(c_s[:1]), coeffs.sigma[_ROWS, _NEXT] - c_s]), axis=0)
    # a row's term of acc: prod before its step times its right side over its own coefficient
    lead = (slice(None),) + (None,) * (np.ndim(rhs.m) - 2)
    step_m, step_s = (prod_m[:-1] * inv)[lead], (prod_s[:-1] - c_s)[lead]
    acc = Scaled(*_rescaled_sum(rhs.m[_ROWS] * step_m, rhs.sigma[_ROWS] + step_s))
    return acc, Scaled(prod_m[-1], prod_s[-1])


def cycle_log_derivative(samplers: ProblemSamplers, k):
    """d/dk log prod of ``walk_cycle`` at the 1-D array ``k``, the sum over
    ELIMINATION_CYCLE of d log c[r, nxt] - d log c[r, own]: a coefficient
    c = E(s a) H_j(a), a = f k (s = -i; s = +i and Hbar_j in the conjugate
    rows), has k d log c/dk = (l/(2 sqrt 3)) s mu(a) + a H_j'(a)/H_j(a),
    with a H_j'(a) from ``symbols.symbol_slopes``."""
    l = samplers.side_length
    args = np.multiply.outer(ARG_FACTORS, k)
    inv = _prefactors(args, samplers.lam, l)[0]
    e_slopes = np.array([-1j, 1j])[:, None, None, None] * ((l / (2.0 * SQRT3)) * (args + inv))
    h_slopes = symbol_slopes(samplers.turns, args, inv) / symbol_values(samplers.turns, samplers.gammas, args, inv)
    dlog = e_slopes[_CONJ[:, None], 0, _SLOTS] + h_slopes[_PICK]
    return (dlog[_ROWS, _NEXT] - dlog[_ROWS, _OWN]).sum(axis=0) / k


def eliminate_rows(samplers: ProblemSamplers, k):
    """(acc, couplings, prod) with X_2(abar k)(1 - prod) = acc + sum_j
    couplings[j - 1] X_j(k) at every point of the 1-D array ``k``: the data
    and the three unknowns at k walk the cycle as four stacked right-hand
    sides, each unknown's column holding minus its coefficient in the two
    rows that read it at k and an exact zero (sigma = -inf) in the others."""
    coeffs, rhs = relation_rows(samplers, k)
    at_k = (_SLOTS == 0)[..., None]
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


#: no points, for the one-sided views of ``ScaledElimination.inhom_and_residues``
_NONE = np.empty(0, dtype=complex)


class ScaledElimination:
    """The inhomogeneity of the eliminated relation, X_2(abar k) at zero
    unknowns X_j(k), acc/(1 - prod) of the cycle walk over the data column;
    for a Poincare problem it is T(k)/(H_2(abar k) D(k)).

    The walk keeps each exponent apart from its mantissa, and every mantissa
    is a product of H ratios and unit phases (``walk_cycle``), which keeps
    the result relatively accurate at arbitrarily large |k| (or near
    k = 0), where a plain double-precision solve of the assembled rows loses
    all digits to their exponential dynamic range.
    """

    def __init__(self, problem: ProblemSpec):
        self._samplers = ProblemSamplers(problem)

    def inhom_and_residues(self, k, poles, images=None):
        """The inhomogeneity at the 1-D array ``k`` and its residues
        -acc/(prod d log prod/dk) at its simple poles ``poles`` (a 1-D
        array), the zeros of 1 - prod, from one assembly and one walk of the
        rows at both; ``images`` names the points ARG_FACTORS k and
        ARG_FACTORS poles, slot by slot, as in relation_rows."""
        acc, prod = walk_cycle(*relation_rows(self._samplers, np.concatenate([k, poles]), images=images))
        n, dlog = k.size, cycle_log_derivative(self._samplers, poles)
        return acc[:n] / (1.0 - prod[:n]), -acc[n:] / (prod[n:] * dlog)

    def inhom(self, k, images=None) -> Scaled:
        """The inhomogeneity at a scalar k or over an array of k; ``images`` as in relation_rows."""
        k = np.asarray(k, dtype=complex)
        return self.inhom_and_residues(k.ravel(), _NONE, images)[0].reshape(k.shape)

    def residues(self, k) -> Scaled:
        """The residues of the inhomogeneity at its simple poles ``k`` (a 1-D array)."""
        return self.inhom_and_residues(_NONE, np.asarray(k, dtype=complex))[1]
