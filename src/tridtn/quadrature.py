"""Gauss-Legendre quadrature rules.

``QuadratureRule.gauss`` gives one rule on an interval; ``panels`` builds
composite rules for the Green's-function sides, the contour rays and the
interior rays.  The spectral transforms sample each side trace at the
nodes of ``_leggauss`` of doubling order.  Nodes and weights are computed
by Newton's method on the Legendre recurrence and cached per order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _legendre_and_derivative(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=256)
def _leggauss(order: int):
    """Nodes and weights on [-1, 1]: Tricomi's asymptotic nodes after three
    Newton steps on the recurrence, and weights 2 / ((1 - x^2) P_n'(x)^2)
    at those nodes.  The cost grows as order^2, and the weights keep their
    relative accuracy at high order (numpy's and scipy's lose digits there:
    1e-10 and 1e-9 relative at order 512)."""
    theta = np.pi * (4.0 * np.arange(order, 0, -1) - 1.0) / (4.0 * order + 2.0)
    x = np.cos(theta) * (1.0 - (order - 1.0) / (8.0 * order**3))
    for _ in range(3):
        p, dp = _legendre_and_derivative(order, x)
        x = x - p / dp
    dp = _legendre_and_derivative(order, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
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
        return cls.panels((a, b), order)

    def integrate(self, values: np.ndarray):
        return self.weights @ values
