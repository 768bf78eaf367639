"""Spectral (half-Fourier) transforms of boundary traces.

All transforms are integrals over one side of exp(mu(k) s) times a local
combination of the trace and its derivative, with mu(k) = k + lambda/k:

    PSI(k)       = int e^{mu s} g(s) ds                    (g: Neumann trace)
    PHI(k)       = int e^{mu s} [g'(s)/2 + (lambda/k) g(s)] ds   (g: Dirichlet)
    F_DIRICHLET  = same kernel as PHI applied to Dirichlet data
    F_ROBIN(k)   = (1/(2 sin beta)) int e^{mu s} g(s) ds   (g: Poincare data)
    Y(k)         = (1/(2 sin beta)) int e^{mu s} g(s) ds   (g: Dirichlet trace)

PSI, F_ROBIN and Y depend on k only through mu(k) and are therefore
invariant under k -> lambda/k; PHI carries an explicit lambda/k term and is
not.  The corner term of a Poincare-type side is

    C(k) = (e^{i beta}/(2 sin beta)) [e(-k) q(-l/2) - e(k) q(l/2)].

``SideSampler`` caches quadrature samples of one trace so that batches of
spectral points reuse them; the inner sums are one ``exp_weighted_sum``
per quadrature rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError
from .geometry import exp_e, mu
from .quadrature import QuadratureRule, order_for_mu
from .scaledc import Scaled


class Kind(str, Enum):
    PSI = "psi"
    PHI = "phi"
    F_DIRICHLET = "f_dirichlet"
    F_ROBIN = "f_robin"
    Y = "y"


_NEEDS_DERIVATIVE = {Kind.PHI, Kind.F_DIRICHLET}
_NEEDS_BETA = {Kind.F_ROBIN, Kind.Y}

#: kinds whose evaluator depends on k only through mu(k)
MU_INVARIANT_KINDS = (Kind.PSI, Kind.F_ROBIN, Kind.Y)


def _check_k(k):
    if k == 0:
        raise DomainError("spectral transforms are undefined at k = 0")


def exp_weighted_sum(mu, s, fw, shift=None):
    """sum_j fw[j] exp(mu[i] (s[j] - shift[i])) over j, for 1-D arrays
    (``shift`` defaults to zeros); one entry per ``mu``."""
    arg = np.multiply.outer(mu, s)
    if shift is not None:
        arg -= (mu * shift)[:, None]
    return np.exp(arg) @ fw


@dataclass
class SideSampler:
    """Cached quadrature samples of one trace for batched transforms."""

    trace: object
    kind: Kind
    lam: float
    side_length: float
    beta: float | None = None

    def __post_init__(self):
        self.kind = Kind(self.kind)
        if self.kind in _NEEDS_BETA:
            if self.beta is None:
                raise ParameterError(f"kind {self.kind.value} requires beta")
            if math.sin(self.beta) == 0.0:
                raise ParameterError("sin(beta) must be nonzero")
        self._cache = {}

    def _samples(self, order: int):
        got = self._cache.get(order)
        if got is None:
            rule = QuadratureRule.side(self.side_length, order)
            got = self._sample_rule(rule)
            self._cache[order] = got
        return got

    def _sample_rule(self, rule):
        g = np.asarray(self.trace.value(rule.nodes), dtype=float)
        if self.kind in _NEEDS_DERIVATIVE:
            dg = np.asarray(self.trace.derivative(rule.nodes), dtype=float)
        else:
            dg = None
        return (rule, g, dg)

    def _layer_samples(self, level: int, end: int, order: int):
        """Samples on the dyadic endpoint window [end(l/2 - w), end l/2].

        For |Re mu| l >> 1 the integrand exp(mu s) f(s) lives in a boundary
        layer at the dominant endpoint; integrating only that window keeps
        the node count bounded while the dropped remainder is below
        exp(-|Re mu| w) relative.
        """
        key = (level, end, order)
        got = self._cache.get(key)
        if got is None:
            half = self.side_length / 2.0
            w = self.side_length / (2.0**level)
            a, b = (half - w, half) if end > 0 else (-half, -half + w)
            rule = QuadratureRule.gauss(a, b, order)
            got = self._sample_rule(rule)
            self._cache[key] = got
        return got

    def _rule_keys(self, mus, order, shift):
        """Per point (layer level, end, order); level 0 is the full side.

        A point whose shift sits at its dominant endpoint and whose
        |Re mu| l exceeds 360 is integrated over a dyadic endpoint window
        only (see ``_layer_samples``).
        """
        zeros = np.zeros(mus.shape, dtype=int)
        if order is not None:
            return zeros, zeros, zeros + int(order)
        hint = int(getattr(self.trace, "quadrature_hint", 0) or 0)
        re = np.abs(mus.real) * self.side_length
        end = np.where(mus.real > 0, 1, -1)
        orders = np.maximum(order_for_mu(mus, self.side_length), hint)
        if shift is None:
            return zeros, zeros, orders
        layer = (re > 360.0) & (shift == end * (self.side_length / 2.0))
        level = np.where(layer, np.floor(np.log2(np.maximum(re, 360.0) / 180.0)), 0).astype(int)
        layer_orders = np.maximum(
            order_for_mu(mus, self.side_length / 2.0**level), (hint >> level) + 8
        )
        return level, np.where(layer, end, 0), np.where(layer, layer_orders, orders)

    def eval(self, k, order: int | None = None, shift=None):
        """Transform at spectral points ``k`` (scalar or 1-D array).

        With ``shift`` given (array matching k), returns the shifted value
        int e^{mu (s - shift)} (...) ds = e^{-mu shift} * transform.
        """
        k_arr = np.atleast_1d(np.asarray(k, dtype=complex))
        if np.any(k_arr == 0):
            raise DomainError("spectral transforms are undefined at k = 0")
        mus = mu(k_arr, self.lam)
        shift_arr = None if shift is None else np.atleast_1d(np.asarray(shift, dtype=float))
        keys, group = np.unique(
            np.stack(self._rule_keys(mus, order, shift_arr)), axis=1, return_inverse=True
        )
        group = group.ravel()
        out = np.empty(mus.shape, dtype=complex)
        for i, (level, end, o) in enumerate(keys.T.tolist()):
            sel = group == i
            if level:
                rule, g, dg = self._layer_samples(level, end, o)
            else:
                rule, g, dg = self._samples(o)
            sh = None if shift_arr is None else shift_arr[sel]
            if self.kind in _NEEDS_DERIVATIVE:
                # fw depends on k through lambda/k; fold the k-independent part
                out[sel] = exp_weighted_sum(mus[sel], rule.nodes, rule.weights * (0.5 * dg), sh)
                corr = exp_weighted_sum(mus[sel], rule.nodes, rule.weights * g, sh)
                out[sel] += (self.lam / k_arr[sel]) * corr
            else:
                fw = rule.weights * g
                if self.kind in _NEEDS_BETA:
                    fw = fw / (2.0 * math.sin(self.beta))
                out[sel] = exp_weighted_sum(mus[sel], rule.nodes, fw, sh)
        return out if np.ndim(k) else complex(out[0])

    def eval_scaled(self, k, order: int | None = None):
        """Transform as a Scaled value, stable for large |Re mu|."""
        k_arr = np.atleast_1d(np.asarray(k, dtype=complex))
        mus = np.atleast_1d(mu(k_arr, self.lam))
        half = self.side_length / 2.0
        shift = np.where(mus.real > 0.0, half, np.where(mus.real < 0.0, -half, 0.0))
        vals = np.atleast_1d(self.eval(k_arr, order=order, shift=shift))
        out = Scaled(
            m=vals * np.exp(1j * (mus * shift).imag), sigma=(mus * shift).real
        )
        return out


def spectral_transform(trace, kind, k, lam, side_length, beta=None, order=None):
    """One-off transform evaluation (see module docstring for kinds)."""
    sampler = SideSampler(
        trace=trace, kind=Kind(kind), lam=lam, side_length=side_length, beta=beta
    )
    return sampler.eval(k, order=order)


def corner_term(trace, k, lam, side_length, beta, conjugated: bool = False):
    """Corner term C(k) of a Poincare-type side.

    ``trace`` must be the Dirichlet trace of the side.  With
    ``conjugated=True`` the Schwarz-conjugate variant (e^{-i beta} prefactor)
    is returned, as needed in the conjugated relation rows for real data.
    """
    _check_k(k)
    sb = math.sin(beta)
    if sb == 0.0:
        raise ParameterError("sin(beta) must be nonzero")
    half = side_length / 2.0
    q_lo = float(trace.value(-half))
    q_hi = float(trace.value(half))
    phase = np.exp(-1j * beta) if conjugated else np.exp(1j * beta)
    return (phase / (2.0 * sb)) * (
        exp_e(-k, lam, side_length) * q_lo - exp_e(k, lam, side_length) * q_hi
    )
