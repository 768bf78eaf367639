"""Boundary-condition symbols of Poincare-type sides.

A side condition  sin(beta) dq/dN + cos(beta) dq/dT + gamma q = f  enters the
global relation through

    H(k)    = k e^{i beta} + lambda/(k e^{i beta}) - gamma,
    Hbar(k) = k e^{-i beta} + lambda/(k e^{-i beta}) - gamma,
    P(k)    = H(k) / Hbar(k),

where Hbar is the Schwarz conjugate, Hbar(k) = conj(H(conj(k))) for real
parameters.  ``symbol_values`` and ``symbol_slopes`` are the only
evaluators of H and k H' (Hbar and k Hbar' with e^{-i beta}), elementwise
over broadcast arrays of k, lambda/k, turns and gammas: the relation rows
and ``relations.cycle_log_derivative`` evaluate all sides of a problem at
once, the mixed problem's mode function and residues its Robin side, and
``series.robin_mode_root`` reads P and d log P/dk = (k H'/H - k Hbar'/Hbar)/k
from one call each.
"""
from __future__ import annotations

import numpy as np


def symbol_values(turn, gamma, k, inv):
    """H(k) = k e^{i beta} + (lambda/k) e^{-i beta} - gamma from ``turn`` =
    e^{i beta} and ``inv`` = lambda/k, elementwise; turn = e^{-i beta} gives
    Hbar(k).  Arrays of turn and gamma evaluate several sides at once."""
    return k * turn + inv * np.conj(turn) - gamma


def symbol_slopes(turn, k, inv):
    """k H'(k) = k e^{i beta} - (lambda/k) e^{-i beta}, as ``symbol_values``."""
    return k * turn - inv * np.conj(turn)
