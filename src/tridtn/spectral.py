"""Spectral (half-Fourier) transforms of boundary traces.

The global relation couples two transforms per side: integrals over the
side of exp(mu(k) s), mu(k) = k + lambda/k, against the trace g,

    PSI(k) = int e^{mu s} g(s) ds                            (Neumann value)
    PHI(k) = int e^{mu s} [g'(s)/2 + (lambda/k) g(s)] ds     (Dirichlet value)

PSI depends on k only through mu(k) and is therefore invariant under
k -> lambda/k; PHI carries an explicit lambda/k term and is not.  The data
transform F_j of a Poincare-type side and the unknown Y_j are PSI/(2 sin
beta), a factor that the callers who know beta apply.

Both kinds are views of one Legendre series per trace, in x = s/(l/2):
one column for g and, the first time a PHI view asks for it, one for g'.
Every trace is sampled on Gauss-Legendre nodes of the side, doubling the
node count until the Legendre coefficients have decayed to a plateau, and
is cut by the standardChop test of Aurentz & Trefethen ("Chopping a
Chebyshev series", ACM TOMS 2017).  An ``ExponentialSumTrace``,
Re sum_j w_j e^{kappa_j s} (a Fourier series, or contour nodes plus
residues), only starts higher.  The Legendre coefficients of e^{zx} are
(2n + 1) i_n(z) (DLMF 10.60), which fall below rounding past the degree
``_top_degree`` of z = kappa l/2 (the turning point |z| and its Airy
layer, or a Gaussian decay for large Re z).  Its first node count
(``_first_nodes``) is the power of two past that degree over all kappa,
so its first sampling resolves it to rounding, with no aliasing.  Each
column is chopped on its own and cached on the trace (``trace.legendre``),
so every sampler of that trace object, whatever its kind or lambda, reuses
it.  With h = l/2 every transform of the chopped series is exact,

    int_{-h}^{h} e^{mu s} P_n(s/h) ds = 2 h i_n(mu h),

with i_n the modified spherical Bessel function of the first kind (the
transform scheme of Smitheman, Spence & Fokas, IMA J. Numer. Anal. 2010).
The i_n are carried as e^{-|Re z|} i_n(z), so no transform overflows; i_0
and i_1 are seeded from one expm1 of -2|Re z| and the cos and sin of Im z.
There is one three-term recurrence per transform set: ``transforms`` stacks
the columns of all its samplers, each sampler's normalised on its own, and
``SideSampler.eval_scaled`` and ``eval`` are one-sampler views of it.  A
caller may name its points as images of fewer base points under z -> -z
and z -> conj z; the recurrence then runs only at the base points, with the
even and the odd degrees of each column as columns of their own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import DomainError, NonFiniteError, ParameterError
from .geometry import mu
from .quadrature import _leggauss
from .scaledc import Scaled
from .traces import ExponentialSumTrace

#: standardChop tolerance: clean data are cut near CHOP_TOL^(7/6) (1e-14) of
#: their largest Legendre coefficient, and data whose samples lost digits
#: to cancellation (a small sum of large terms) still show a plateau up to
#: CHOP_TOL^(2/3) (1e-8); at 2^-52 such data never plateau
CHOP_TOL = 2.0**-40
#: largest number of samples per side and of Legendre coefficients per
#: column; a trace whose coefficients have not reached their plateau by then
#: is used with the coefficients it has
MAX_DEGREE = 2048
_FIRST_DEGREE = 32


class Kind(str, Enum):
    PSI = "psi"
    PHI = "phi"


# -- Legendre series of the samples ------------------------------------------
@lru_cache(maxsize=16)
def _analysis_matrix(n: int):
    """Rows (k + 1/2) w_j P_k(x_j) over the n Gauss nodes x_j of [-1, 1]:
    they map samples at the nodes to the Legendre coefficients of the
    polynomial of degree n - 1 that interpolates them."""
    nodes, weights = _leggauss(n)
    rows = np.ones((n, n))
    rows[1] = nodes
    for k in range(1, n - 1):
        rows[k + 1] = ((2 * k + 1) * nodes * rows[k] - k * rows[k - 1]) / (k + 1)
        rows[k - 1] *= (k - 0.5) * weights  # read for the last time above
    rows[-2:] *= (np.arange(n - 2, n) + 0.5)[:, None] * weights
    rows.setflags(write=False)
    return rows


def _chop(coeffs):
    """Number of leading coefficients to keep, or None if the series has not
    decayed to a plateau yet (Aurentz & Trefethen's standardChop)."""
    n, tol = len(coeffs), CHOP_TOL
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = envelope[j - 1], envelope[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (e2 > 3.0 * (1.0 - np.log(e1) / math.log(tol)) * e1)
    if not plateau.any():
        return None
    j2 = int(j2[np.argmax(plateau)])
    j3 = int(np.count_nonzero(envelope >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7.0 / 6.0)
    biased = np.log10(envelope[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


# -- sums against modified spherical Bessel functions --------------------------
def _i0_i1(z):
    """e^{-|Re z|} i_0(z) and e^{-|Re z|} i_1(z), from e^{-|x|} sinh z = sh cos y
    + i ch sin y and e^{-|x|} cosh z = ch cos y + i sh sin y, z = x + iy, with
    sh, ch = e^{-|x|} (sinh x, cosh x) from one expm1(-2|x|): no cancellation."""
    em = np.expm1(-2.0 * np.abs(z.real))
    sh, ch = np.copysign(-0.5 * em, z.real), 1.0 + 0.5 * em
    cos, sin = np.cos(z.imag), np.sin(z.imag)
    sinh, cosh = np.empty_like(z), np.empty_like(z)
    sinh.real, sinh.imag, cosh.real, cosh.imag = sh * cos, ch * sin, ch * cos, sh * sin
    zero = z == 0.0
    inv = 1.0 / np.where(zero, 1.0, z)
    i0 = np.where(zero, 1.0, sinh * inv)
    return i0, (cosh - i0) * inv


def _top_degree(z, degree: int) -> int:
    """A degree at which Miller's recurrence may start for every point of
    z so that its ratios i_n/i_{n-1} are accurate to rounding at n <= degree:
    past the turning point |z| and its Airy layer or, for large Re z, past
    the Gaussian decay i_n/i_0 ~ exp(-n^2 Re z/(2|z|^2)) by a factor e^-18
    beyond ``degree``."""
    az = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = np.sqrt(degree**2 + 36.0 * az**2 / np.abs(z.real)) + 8.0
    return int(np.ceil(np.max(np.fmin(az + 8.0 * np.cbrt(az) + 16.0, decay))))


def _forward_sum(coeffs, z, running):
    """sum_n coeffs[n] e^{-|Re z|} i_n(z) by the forward recurrence, shaped
    (columns, points); the first ``running[n]`` columns have terms at degree n."""
    inv = 1.0 / z
    f_prev, f = _i0_i1(z)
    acc = coeffs[0, :, None] * f_prev + coeffs[1, :, None] * f
    step, term = np.empty_like(f), np.empty_like(acc)
    for n in range(1, len(coeffs) - 1):
        np.multiply(2 * n + 1, inv, out=step)
        step *= f
        f_prev, f = f, np.subtract(f_prev, step, out=f_prev)
        cols = running[n + 1]
        np.multiply(coeffs[n + 1, :cols, None], f, out=term[:cols])
        acc[:cols] += term[:cols]
    return acc


def _miller_sum(coeffs, z, running):
    """sum_n coeffs[n] e^{-|Re z|} i_n(z) by Miller's backward recurrence,
    shaped (columns, points), as ``_forward_sum``.

    The ratios i_n/i_{n-1} run down from ``_top_degree``.  The sum is nested
    in the ratios (Horner form, so nothing overflows) and normalised by the
    larger of i_0 and i_1 (i_0 vanishes at z = i pi m).
    """
    top = _top_degree(z, len(coeffs))
    ratio, step = np.zeros(z.shape, dtype=complex), np.empty(z.shape, dtype=complex)
    acc = np.zeros((coeffs.shape[1], z.size), dtype=complex)
    acc += coeffs[top, :, None] if top < len(coeffs) else 0.0
    for n in range(top, 0, -1):
        np.multiply(z, ratio, out=step)
        np.add(2 * n + 1, step, out=step)
        np.divide(z, step, out=ratio)
        if n <= len(running):  # above the longest column, only the ratios run
            cols = running[n - 1]
            acc[:cols] *= ratio
            acc[:cols] += coeffs[n - 1, :cols, None]
    i0, i1 = _i0_i1(z)
    by_i1 = (np.abs(i1) > np.abs(i0)) & (np.abs(z) > 1.0)  # below 1, i_1 cancels
    return np.where(by_i1, i1 / np.where(by_i1, ratio, 1.0), i0) * acc


def _bessel_sums(coeffs, z):
    """sum_n coeffs[n] e^{-|Re z|} i_n(z) for a 1-D array z, one row per
    column of ``coeffs``.

    The forward recurrence amplifies rounding by about
    exp(N^2 |Re z| / (2 |z|^2)) over N degrees, so it serves only |z| > N
    with that factor below e^4; every other point takes Miller's recurrence.
    Each column's terms stop at its own last nonzero coefficient, so short
    columns stacked beside long ones cost only their own degrees.
    """
    # an all-zero column counts as full length, harmlessly
    lengths = len(coeffs) - np.argmax(coeffs[::-1] != 0.0, axis=0)
    order = np.argsort(-lengths, kind="stable")
    coeffs, lengths = coeffs[:, order], lengths[order]
    az, n_deg = np.abs(z), len(coeffs)
    running = np.count_nonzero(lengths > np.arange(n_deg)[:, None], axis=1).tolist()
    forward = (az > n_deg) & (n_deg**2 * np.abs(z.real) <= 8.0 * az**2)
    out = np.empty((coeffs.shape[1], z.size), dtype=complex)
    if forward.any():
        out[:, forward] = _forward_sum(coeffs, z[forward], running)
    if not forward.all():
        out[:, ~forward] = _miller_sum(coeffs, z[~forward], running)
    out[order] = out.copy()
    return out


# -- one Legendre series per trace --------------------------------------------
def _first_nodes(trace, side_length: float) -> int:
    """The node count at which ``_samplings`` starts: _FIRST_DEGREE, or for
    an ``ExponentialSumTrace`` the power of two past the degree where the
    Legendre coefficients (2n + 1) i_n(z) of each of its exponentials
    e^{kappa s}, z = kappa l/2, have decayed below rounding (``_top_degree``
    taken twice, past e^-18 and then about e^-36), MAX_DEGREE at most.  The
    first sampling then resolves the trace with no aliasing."""
    if not isinstance(trace, ExponentialSumTrace):
        return _FIRST_DEGREE
    z = np.append(-trace.rates, 1j * np.max(np.abs(trace.t))) * (side_length / 2.0)
    top = _top_degree(z, _top_degree(z, 0))
    return min(max(2 ** top.bit_length(), _FIRST_DEGREE), MAX_DEGREE)


def _samplings(trace, column: str, side_length: float):
    """Legendre coefficients of the interpolants of ``trace.<column>`` on
    n = _first_nodes, 2 n, ..., MAX_DEGREE Gauss nodes of the side."""
    n = _first_nodes(trace, side_length)
    while n <= MAX_DEGREE:
        nodes = _leggauss(n)[0] * (side_length / 2.0)
        samples = np.broadcast_to(getattr(trace, column)(nodes), nodes.shape)
        with np.errstate(all="ignore"):
            coeffs = _analysis_matrix(n) @ samples.astype(float)
        yield coeffs
        n *= 2


def _legendre(trace, column: str, side_length: float, kind: Kind):
    """Chopped Legendre coefficients in s/(l/2) of ``trace.value`` or
    ``trace.derivative`` (``column``) on a side of length l, sampled at
    doubling node counts until they plateau, computed once per trace object
    and side length and cached on the trace."""
    key = (column, side_length)
    if key in trace.legendre:
        return trace.legendre[key]
    for coeffs in _samplings(trace, column, side_length):
        if not np.all(np.isfinite(coeffs)):
            raise NonFiniteError(
                f"side {trace.side} trace is not finite "
                f"where the {kind.value} transform reads it"
            )
        keep = _chop(coeffs)
        if keep is not None:
            break
    trace.legendre[key] = coeffs if keep is None else coeffs[: max(2, keep)]
    return trace.legendre[key]


@dataclass
class SideSampler:
    """The PSI or PHI view of one trace's Legendre series, for batched
    transforms."""

    trace: object
    kind: Kind
    lam: float
    side_length: float

    def __post_init__(self):
        self.kind = Kind(self.kind)

    @cached_property
    def _columns(self):
        """The integrand columns g, and g'/2 for PHI, as Legendre
        coefficients in s/(l/2) times 2 (l/2) divided by their largest
        modulus, and the log of that divisor."""
        names = ("value", "derivative")[: 1 + (self.kind is Kind.PHI)]
        columns = [
            _legendre(self.trace, name, self.side_length, self.kind) * (self.side_length * w)
            for name, w in zip(names, (1.0, 0.5))
        ]
        scale = max(np.max(np.abs(column)) for column in columns) or 1.0
        return [column / scale for column in columns], math.log(scale)

    def eval(self, k):
        """Transform at spectral points ``k`` as plain complex values."""
        return self.eval_scaled(k).to_complex()

    def eval_scaled(self, k) -> Scaled:
        """Transform at spectral points ``k`` as a Scaled value shaped like k,
        stable for large |Re mu|."""
        return transforms([self], k)[0]


def _unfold(sums, z, bases, blocks):
    """Sums at every point of the image ``blocks`` of the ``bases``, and its
    |Re z|, from the even- and odd-degree ``sums`` at the base points z."""
    if blocks == ((0, 0, 0),):  # every point its own base
        return sums[0], np.abs(z.real)
    starts = list(accumulate(map(len, bases), initial=0))
    spans = [slice(starts[family], starts[family + 1]) for family, _, _ in blocks]
    ends = list(accumulate(span.stop - span.start for span in spans))
    out = np.empty((sums.shape[1], ends[-1]), dtype=complex)
    for span, end, (_, negate, conjugate) in zip(spans, ends, blocks):
        here = out[:, end - (span.stop - span.start) : end]
        (np.subtract if negate else np.add).reduce(sums[:, :, span], axis=0, out=here)
        if conjugate:
            np.conjugate(here, out=here)
    return out, np.concatenate([np.abs(z.real[span]) for span in spans])


def transforms(samplers, k, images=None) -> Scaled:
    """Transforms of every sampler at every point of ``k``, a Scaled value of
    shape ``(len(samplers),) + k.shape``, from one Bessel recurrence over
    the samplers' stacked columns; the samplers must share lam and side
    length.

    The recurrence runs only at the points of ``images`` = (bases, blocks),
    by default ((mu(k),), ((0, 0, 0),)): ``bases`` are 1-D arrays of mu,
    and k.ravel() is, in order, the blocks (family, negate, conjugate), each
    len(bases[family]) points at that family's mu, negated and/or
    conjugated.  Real Legendre columns give S(conj z) = conj S(z), and
    i_n(-z) = (-1)^n i_n(z) (DLMF 10.47) gives S(-z) = S_even(z) - S_odd(z).
    """
    lam, side_length = samplers[0].lam, samplers[0].side_length
    if any(s.lam != lam or s.side_length != side_length for s in samplers):
        raise ParameterError("batched transforms need one lam and one side length")
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise DomainError("spectral transforms are undefined at k = 0")
    ks = k.ravel()
    bases, blocks = images or ((mu(ks, lam),), ((0, 0, 0),))
    z = np.concatenate(bases) * (side_length / 2.0)
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(
            f"mu(k) l/2 is not finite at lam {lam}, side length {side_length}"
        )
    series = [s._columns for s in samplers]
    columns = [column for sampler_columns, _ in series for column in sampler_columns]
    stacked = np.zeros((max(map(len, columns)), len(columns)))
    for j, column in enumerate(columns):
        stacked[: len(column), j] = column
    # each sampler's g column, followed by its g'/2 column for PHI
    first = np.cumsum([0] + [len(sampler_columns) for sampler_columns, _ in series[:-1]])
    if any(negate for _, negate, _ in blocks):
        # the even and the odd degrees of each column as columns of their own
        odd = (np.arange(len(stacked)) % 2 == 1)[:, None]
        stacked = np.concatenate([np.where(odd, 0.0, stacked), np.where(odd, stacked, 0.0)], axis=1)
    sums = _bessel_sums(stacked, z).reshape(-1, len(columns), z.size)
    sums, abs_re = _unfold(sums, z, bases, blocks)
    m = sums[first]
    phi = np.array([s.kind is Kind.PHI for s in samplers])
    m[phi] = sums[first[phi] + 1] + (lam / ks) * m[phi]
    sigma = abs_re + np.array([log_scale for _, log_scale in series])[:, None]
    shape = (len(samplers),) + k.shape
    return Scaled(m.reshape(shape), sigma.reshape(shape))
