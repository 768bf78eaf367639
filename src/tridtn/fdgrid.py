"""Finite-difference reference solver on an equilateral triangular lattice.

The lattice P(i, j) = z3 + (i (z2 - z3) + j (z1 - z3)) / M, i, j >= 0,
i + j <= M, is aligned with the triangle so boundary nodes sit exactly on
the sides.  Interior nodes carry the 6-neighbor stencil

    (2 / (3 h^2)) (sum of 6 neighbors - 6 u0) - 4 lam u0 = 0,

which is the triangular-lattice Laplacian.  Boundary rows for Neumann and
Robin sides are assembled in the variational (P1) form; away from the
corners this coincides with reflecting ghost nodes through the side and
eliminating them symmetrically, and at the corners it supplies the
consistent corner equation that plain ghost reflection leaves ambiguous.
The system is symmetric positive definite for lam > 0 (or gamma > 0) and
is solved by diagonally preconditioned conjugate gradients.  The sparse
matrices and the solver come from ``scipy.sparse`` and
``scipy.sparse.linalg``, imported on the first solve, so importing this
module loads no scipy.

Index-to-side bookkeeping: i + j = M is side (1) with s = l/2 - i h,
j = 0 is side (2) with s = -l/2 + i h, and i = 0 is side (3) with
s = l/2 - j h.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SolvabilityError
from .geometry import SQRT3, TriangleGeometry
from .problems import BCKind, ProblemSpec

#: the finest lattice: m = 1024 has half a million nodes, 8x finer than
#: the acceptance spacing l/128
MAX_DIVISIONS = 1024

_NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

#: the lattice edges leaving a node towards later nodes
_EDGE_STEPS = ((1, 0), (0, 1), (1, -1))

#: the two inward lattice directions of each side, at +-60 degrees to it
_INWARD_STEPS = {1: ((-1, 0), (0, -1)), 2: ((0, 1), (-1, 1)), 3: ((1, 0), (1, -1))}


@dataclass(frozen=True)
class TriangularGrid:
    """Lattice bookkeeping for divisions ``m`` of a side of length ``l``."""

    side_length: float
    m: int

    @property
    def h(self) -> float:
        return self.side_length / self.m

    def nodes(self):
        """Index arrays (i, j) of the lattice nodes inside the closed
        triangle, i outer and j inner."""
        i, j = np.indices((self.m + 1, self.m + 1))
        inside = i + j <= self.m
        return i[inside], j[inside]

    def point(self, i, j):
        """Lattice points P(i, j) (vectorised in i and j)."""
        geom = TriangleGeometry(self.side_length)
        step = i * (geom.z2 - geom.z3) + j * (geom.z1 - geom.z3)
        return geom.z3 + (step.real / self.m + 1j * (step.imag / self.m))

    def on_sides(self, i, j):
        """Boolean array (3, ...): row ``side - 1`` marks the nodes on a side."""
        return np.array([i + j == self.m, j == 0, i == 0])

    def side_nodes(self, side: int):
        """Index arrays (i, j) and arclengths s of a side's nodes, ordered by
        increasing s, corners included."""
        half, h, t = self.side_length / 2.0, self.h, np.arange(self.m + 1)
        if side == 1:
            i = self.m - t
            return i, t, half - i * h
        if side == 2:
            return t, np.zeros_like(t), -half + t * h
        if side == 3:
            j = self.m - t
            return np.zeros_like(t), j, half - j * h
        raise ValueError(f"side index must be 1, 2 or 3, got {side}")


@dataclass
class GridSolution:
    """FD solution plus the extracted complementary boundary traces."""

    grid: TriangularGrid
    values: np.ndarray  # (m + 1) x (m + 1) node values, NaN where i + j > m
    traces: dict  # side -> (s array, trace array)
    gauge_fixed: bool = False
    cg_residual: float = 0.0


def _check_spacing(side_length: float, h: float) -> int:
    """m = l / h; DomainError unless h > 0 divides l into 4 to MAX_DIVISIONS
    steps."""
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"grid spacing {h} must be a finite number > 0")
    steps = side_length / h
    m = round(steps) if steps <= MAX_DIVISIONS else 0
    if m < 4 or abs(side_length / m - h) > 1e-9 * h:
        raise DomainError(
            f"grid spacing {h} does not divide the side length {side_length} "
            f"into 4 to {MAX_DIVISIONS} steps"
        )
    return m


def _numbering(grid: TriangularGrid, i, j):
    """Index array of the (m + 3) x (m + 3) lattice padded by one node: entry
    [i + 1, j + 1] numbers the given nodes in order, -1 everywhere else."""
    number = np.full((grid.m + 3, grid.m + 3), -1)
    number[i + 1, j + 1] = np.arange(i.size)
    return number


def _side_data(spec: ProblemSpec, grid: TriangularGrid, side: int):
    """A side's node indices and data, by increasing s: one data call."""
    i, j, s = grid.side_nodes(side)
    return i, j, np.broadcast_to(np.asarray(spec.side(side).data(s), dtype=float), s.shape)


def fd_solve(spec: ProblemSpec, h: float) -> GridSolution:
    """Solve the lattice system for ``spec`` and extract the unknown traces.

    Dirichlet problems return the Neumann traces (one-sided second-order
    normal differences through the lattice layers); derivative problems
    return the Dirichlet traces (the boundary node values themselves).
    """
    for side in spec.sides:
        if side.kind == BCKind.POINCARE:
            raise ParameterError("the FD oracle supports beta = pi/2 sides only")
    grid = TriangularGrid(spec.side_length, _check_spacing(spec.side_length, h))
    if spec.is_dirichlet:
        return _solve_dirichlet(spec, grid)
    return _solve_flux(spec, grid)


# -- Dirichlet --------------------------------------------------------------
def _solve_dirichlet(spec: ProblemSpec, grid: TriangularGrid) -> GridSolution:
    m, h, lam = grid.m, grid.h, spec.lam
    # boundary data on the lattice; a corner takes the data of its first side
    values = np.full((m + 1, m + 1), np.nan)
    for side in (3, 2, 1):
        i, j, data = _side_data(spec, grid, side)
        values[i, j] = data
    i, j = grid.nodes()
    interior = (i > 0) & (j > 0) & (i + j < m)
    i, j = i[interior], j[interior]
    number = _numbering(grid, i, j)
    n = i.size
    rows, cols = [np.arange(n)], [np.arange(n)]
    vals = [np.full(n, 6.0 + 6.0 * lam * h * h)]
    b = np.zeros(n)
    for di, dj in _NEIGHBOR_STEPS:
        col = number[i + di + 1, j + dj + 1]
        inner = col >= 0
        rows.append(np.flatnonzero(inner))
        cols.append(col[inner])
        vals.append(np.full(rows[-1].size, -1.0))
        b += np.where(inner, 0.0, values[i + di, j + dj])
    from scipy import sparse

    a_mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    u, residual = _cg_solve(a_mat, b)
    values[i, j] = u
    traces = {side: _extract_neumann(grid, values, side) for side in (1, 2, 3)}
    return GridSolution(grid=grid, values=values, traces=traces, cg_residual=residual)


def _extract_neumann(grid: TriangularGrid, values, side: int):
    """One-sided second-order normal derivative at the side nodes.

    The two inward lattice directions of a side node make +-60 degrees
    with the side, so the sum of their directional derivatives is
    sqrt(3) d/dn(inward).  Each directional derivative uses the 3-point
    one-sided difference along its (exact) lattice line; the corners and
    the nodes next to them, whose second-step neighbors leave the
    triangle, are skipped.
    """
    i, j, s = (a[2:-2] for a in grid.side_nodes(side))
    acc = 0.0
    for di, dj in _INWARD_STEPS[side]:
        acc = acc + (
            -3.0 * values[i, j]
            + 4.0 * values[i + di, j + dj]
            - values[i + 2 * di, j + 2 * dj]
        )
    return s, -acc / (2.0 * SQRT3 * grid.h)


# -- Neumann / Robin --------------------------------------------------------
def _solve_flux(spec: ProblemSpec, grid: TriangularGrid) -> GridSolution:
    m, h, lam = grid.m, grid.h, spec.lam
    i, j = grid.nodes()
    number = _numbering(grid, i, j)
    n = i.size
    sides = grid.on_sides(i, j)

    # stiffness: 1/sqrt(3) per interior lattice edge, 1/(2 sqrt(3)) per
    # boundary edge (one adjacent triangle only); edges[step] holds the
    # weight of the edge leaving each node along step, 0 where there is none
    edges, rows, cols, vals = {}, [], [], []
    for di, dj in _EDGE_STEPS:
        col = number[i + di + 1, j + dj + 1]
        exists = col >= 0
        on_boundary = np.any(sides & grid.on_sides(i + di, j + dj), axis=0)
        edges[di, dj] = np.where(exists, np.where(on_boundary, 0.5, 1.0) / SQRT3, 0.0)
        w = edges[di, dj][exists]
        rows += [np.flatnonzero(exists), col[exists]]
        cols += [col[exists], np.flatnonzero(exists)]
        vals += [-w, -w]
    # each diagonal adds its edges in the lattice order of their first
    # nodes, the order in which a loop over nodes and their edges adds them
    diag = np.zeros(n)
    for di, dj in ((1, 0), (1, -1), (0, 1)):
        first = number[i - di + 1, j - dj + 1]
        diag += np.where(first >= 0, edges[di, dj][first], 0.0)
    for step in _EDGE_STEPS:
        diag += edges[step]

    # lumped mass: one third of each adjacent triangle; six lattice triangles
    # meet at an interior node, three at a side node and one at a corner
    tri_area = SQRT3 / 4.0 * h * h
    mass = np.array([6, 3, 1])[np.sum(sides, axis=0)] * tri_area / 3.0
    diag += 4.0 * lam * mass

    # boundary data and Robin terms, lumped per boundary edge
    b = np.zeros(n)
    weight = np.full(m + 1, h)
    weight[[0, -1]] = h / 2.0
    for side_no in (1, 2, 3):
        cond = spec.side(side_no)
        gamma = cond.gamma if cond.kind == BCKind.ROBIN else 0.0
        si, sj, data = _side_data(spec, grid, side_no)
        row = number[si + 1, sj + 1]
        b[row] += weight * data
        if gamma:
            diag[row] += gamma * weight
    from scipy import sparse

    lhs = sparse.csr_matrix(
        (
            np.concatenate([diag, *vals]),
            (np.concatenate([np.arange(n), *rows]), np.concatenate([np.arange(n), *cols])),
        ),
        shape=(n, n),
    )

    gauge_fixed = lam == 0.0 and all(s.gamma == 0.0 for s in spec.sides)
    if gauge_fixed:
        # pure Neumann at lam = 0: kernel is the constant vector
        total = float(np.sum(b))
        scale = float(np.sum(np.abs(b))) if n else 1.0
        # the lumped boundary quadrature leaves an O(h^2) flux imbalance even
        # for exactly compatible data, so the rejection threshold must sit
        # above that; genuinely incompatible data violates it at O(1)
        if abs(total) > max(1e-8, 100.0 * h * h) * max(scale, 1.0):
            raise SolvabilityError(
                "pure-Neumann data at lam = 0 violates the zero-mean "
                f"compatibility condition (sum {total:.3e})"
            )
        b -= total / n
    u, residual = _cg_solve(lhs, b)
    if gauge_fixed:
        u -= np.mean(u)

    values = np.full((m + 1, m + 1), np.nan)
    values[i, j] = u
    traces = {}
    for side_no in (1, 2, 3):
        si, sj, s = grid.side_nodes(side_no)
        traces[side_no] = (s, values[si, sj])
    return GridSolution(
        grid=grid,
        values=values,
        traces=traces,
        gauge_fixed=gauge_fixed,
        cg_residual=residual,
    )


def cg(*args, **kwargs):
    """``scipy.sparse.linalg.cg``, imported on the first solve.  Every solve
    calls it through this module-level name."""
    from scipy.sparse.linalg import cg as scipy_cg

    return scipy_cg(*args, **kwargs)


def _cg_solve(a_mat, b):
    from scipy import sparse

    diag = a_mat.diagonal()
    precond = sparse.diags(1.0 / diag)
    u, info = cg(a_mat, b, rtol=1e-12, atol=0.0, M=precond, maxiter=20 * len(b))
    if info != 0:
        raise SolvabilityError(f"conjugate gradients failed to converge (info {info})")
    residual = float(np.linalg.norm(a_mat @ u - b) / max(np.linalg.norm(b), 1e-300))
    return u, residual
