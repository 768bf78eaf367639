"""Boundary-condition symbols of Poincare-type sides.

A side condition  sin(beta) dq/dN + cos(beta) dq/dT + gamma q = f  enters the
global relation through

    H(k)    = k e^{i beta} + lambda/(k e^{i beta}) - gamma,
    Hbar(k) = k e^{-i beta} + lambda/(k e^{-i beta}) - gamma,
    P(k)    = H(k) / Hbar(k),

where Hbar is the Schwarz conjugate, Hbar(k) = conj(H(conj(k))) for real
parameters.  H, Hbar, P and their analytic k-derivatives accept scalars
or arrays of k; the residues of the mixed solver read the derivatives.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _reject_zero(k, what: str):
    if np.any(k == 0):
        raise DomainError(f"{what} undefined at k = 0")


@dataclass(frozen=True)
class SideSymbol:
    """H/P evaluator for one side condition (lambda, beta, gamma)."""

    lam: float
    beta: float
    gamma: float

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.beta)

    def h(self, k):
        _reject_zero(k, "H(k)")
        w = k * self.phase
        return w + self.lam / w - self.gamma

    def hbar(self, k):
        _reject_zero(k, "Hbar(k)")
        w = k / self.phase
        return w + self.lam / w - self.gamma

    def dh(self, k):
        w = k * self.phase
        return self.phase * (1.0 - self.lam / (w * w))

    def dhbar(self, k):
        w = k / self.phase
        return (1.0 - self.lam / (w * w)) / self.phase

    def p(self, k):
        return self.h(k) / self.hbar(k)

    def dp(self, k):
        hb = self.hbar(k)
        return (self.dh(k) * hb - self.h(k) * self.dhbar(k)) / (hb * hb)
