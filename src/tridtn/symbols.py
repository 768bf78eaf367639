"""Boundary-condition symbols of Poincare-type sides.

A side condition  sin(beta) dq/dN + cos(beta) dq/dT + gamma q = f  enters the
global relation through

    H(k)    = k e^{i beta} + lambda/(k e^{i beta}) - gamma,
    Hbar(k) = k e^{-i beta} + lambda/(k e^{-i beta}) - gamma,
    P(k)    = H(k) / Hbar(k),

where Hbar is the Schwarz conjugate, Hbar(k) = conj(H(conj(k))) for real
parameters.  H, Hbar, P and their analytic k-derivatives accept scalars
or arrays of k.  ``symbol_values`` and ``symbol_slopes`` own the formulas
for H and k H' (Hbar and k Hbar' with e^{-i beta}); given lambda/k they
evaluate all sides of a problem at once, as the relation rows and the
residues of the mixed solver do.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _reject_zero(k, what: str):
    if np.any(k == 0):
        raise DomainError(f"{what} undefined at k = 0")


def symbol_values(turn, gamma, k, inv):
    """H(k) = k e^{i beta} + (lambda/k) e^{-i beta} - gamma from ``turn`` =
    e^{i beta} and ``inv`` = lambda/k, elementwise; turn = e^{-i beta} gives
    Hbar(k).  Arrays of turn and gamma evaluate several sides at once."""
    return k * turn + inv * np.conj(turn) - gamma


def symbol_slopes(turn, k, inv):
    """k H'(k) = k e^{i beta} - (lambda/k) e^{-i beta}, as ``symbol_values``."""
    return k * turn - inv * np.conj(turn)


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
        return symbol_values(self.phase, self.gamma, k, self.lam / k)

    def hbar(self, k):
        _reject_zero(k, "Hbar(k)")
        return symbol_values(self.phase.conjugate(), self.gamma, k, self.lam / k)

    def dh(self, k):
        return symbol_slopes(self.phase, k, self.lam / k) / k

    def dhbar(self, k):
        return symbol_slopes(self.phase.conjugate(), k, self.lam / k) / k

    def p(self, k):
        return self.h(k) / self.hbar(k)

    def dp(self, k):
        hb = self.hbar(k)
        return (self.dh(k) * hb - self.h(k) * self.dhbar(k)) / (hb * hb)
