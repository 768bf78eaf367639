"""Gauss-Legendre quadrature on a side interval [-l/2, l/2].

The transform integrands are exp(mu s) times smooth data, so the rule order
is scaled with |mu| l: the oscillatory part needs roughly four nodes per
period and the rule also has to track the exponential boundary layer of the
real part.  ``order_for_mu`` encodes that policy; doubling its answer must
leave transform values unchanged to roundoff (checked in the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_ORDER = 64
MAX_ORDER = 8192
_PANEL_ORDER = 256


@lru_cache(maxsize=256)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [a, b]; weights sum to the interval length."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def panels(cls, edges, order: int) -> "QuadratureRule":
        """Composite rule: one Gauss-Legendre panel of ``order`` nodes
        between each pair of consecutive ``edges``."""
        x, w = _leggauss(order)
        edges = np.asarray(edges, dtype=float)
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        return cls(nodes=(mid + half * x).ravel(), weights=(half * w).ravel())

    @classmethod
    def gauss(cls, a: float, b: float, order: int) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        order = min(order, MAX_ORDER)
        if order > 4 * _PANEL_ORDER:
            # composite panels: same node count, linear setup cost
            n_panels = (order + _PANEL_ORDER - 1) // _PANEL_ORDER
            return cls.panels(np.linspace(a, b, n_panels + 1), _PANEL_ORDER)
        return cls.panels((a, b), order)

    @classmethod
    def side(cls, side_length: float, order: int) -> "QuadratureRule":
        half = side_length / 2.0
        return cls.gauss(-half, half, order)

    def integrate(self, values: np.ndarray):
        return self.weights @ values


def order_for_mu(mu_value, side_length: float, base: int = DEFAULT_ORDER):
    """Quadrature order for an integrand exp(mu s) * (smooth data), elementwise."""
    theta = np.abs(mu_value) * side_length
    raw = np.maximum(base, np.ceil(0.6 * theta) + 16)
    # quantize upward so batched evaluations share cached rules
    out = np.minimum(MAX_ORDER, 64 * np.ceil(raw / 64)).astype(int)
    return out if out.ndim else int(out)
