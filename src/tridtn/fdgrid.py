"""Finite-difference reference solver on an equilateral triangular lattice.

The lattice P(i, j) = z3 + (i (z2 - z3) + j (z1 - z3)) / M, i, j >= 0,
i + j <= M, is aligned with the triangle so boundary nodes sit exactly on
the sides.  Every problem assembles one operator on all the lattice nodes,
the lumped P1 (piecewise-linear) form of -Laplacian + 4 lam: the stiffness,
1/sqrt(3) per lattice edge and half that on a boundary edge, plus 4 lam
times a third of the area of each adjacent lattice triangle, plus gamma ds
on the diagonal at the nodes of a Robin side.  An interior row is the
6-neighbor stencil of the triangular-lattice Laplacian times the area
sqrt(3) h^2 / 2 of the node's hexagonal cell:

    (1 / sqrt(3)) (6 u0 - sum of 6 neighbors) + 2 sqrt(3) lam h^2 u0.

Neumann and Robin problems solve the whole system against the load
h * data (h/2 at a corner), and return the boundary node values as the
Dirichlet traces.  Away from the corners their boundary rows coincide with
reflecting ghost nodes through the side and eliminating them
symmetrically, and at the corners they supply the consistent corner
equation that plain ghost reflection leaves ambiguous.  Dirichlet problems
solve the interior block against the boundary values and read the Neumann
trace at each side node between the corners as the operator's residual
there over h: the variational flux, the counterpart of the Neumann load.
The systems are symmetric positive definite for lam > 0 (or gamma > 0, or
on the interior block) and are solved by Jacobi-preconditioned conjugate
gradients (``cg``).  The sparse matrices and the solver come from
``scipy.sparse`` and ``scipy.sparse.linalg``, imported on the first solve,
so importing this module loads no scipy.

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

#: the lattice edges leaving a node towards later nodes
_EDGE_STEPS = ((1, 0), (0, 1), (1, -1))


@dataclass(frozen=True)
class TriangularGrid:
    """Lattice bookkeeping for divisions ``m`` of a side of length ``l``."""

    side_length: float
    m: int

    @property
    def h(self) -> float:
        return self.side_length / self.m

    @property
    def ds(self):
        """Arclength lumped onto a side's nodes: h, and h/2 at the corners."""
        weight = np.full(self.m + 1, self.h)
        weight[[0, -1]] = self.h / 2.0
        return weight

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


def _operator(spec: ProblemSpec, grid: TriangularGrid, i, j):
    """The numbering of the nodes (i, j) and the lumped P1 operator on them:
    stiffness, 4 lam times the lumped mass, and gamma ds on the diagonal at
    the nodes of the Robin sides.  Entry [i + 1, j + 1] of the numbering, an
    (m + 3) x (m + 3) lattice padded by one node, numbers the nodes in
    order; it is -1 everywhere else."""
    n = i.size
    number = np.full((grid.m + 3, grid.m + 3), -1)
    number[i + 1, j + 1] = np.arange(n)
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
    tri_area = SQRT3 / 4.0 * grid.h * grid.h
    mass = np.array([6, 3, 1])[np.sum(sides, axis=0)] * tri_area / 3.0
    diag += 4.0 * spec.lam * mass

    for side_no in (1, 2, 3):
        cond = spec.side(side_no)
        if cond.kind == BCKind.ROBIN and cond.gamma:
            si, sj, _ = grid.side_nodes(side_no)
            diag[number[si + 1, sj + 1]] += cond.gamma * grid.ds
    from scipy import sparse

    lhs = sparse.csr_matrix(
        (
            np.concatenate([diag, *vals]),
            (np.concatenate([np.arange(n), *rows]), np.concatenate([np.arange(n), *cols])),
        ),
        shape=(n, n),
    )
    return number, lhs


def fd_solve(spec: ProblemSpec, h: float) -> GridSolution:
    """Solve the lattice system for ``spec`` and extract the unknown traces.

    Dirichlet problems return the Neumann traces at the side nodes between
    the corners (the operator's residual there over h); derivative problems
    return the Dirichlet traces (the boundary node values themselves).
    """
    for side in spec.sides:
        if side.kind == BCKind.POINCARE:
            raise ParameterError("the FD oracle supports beta = pi/2 sides only")
    grid = TriangularGrid(spec.side_length, _check_spacing(spec.side_length, h))
    i, j = grid.nodes()
    number, lhs = _operator(spec, grid, i, j)
    sides = {}  # side -> node numbers, arclengths and data, by increasing s
    for side_no in (1, 2, 3):
        si, sj, s = grid.side_nodes(side_no)
        data = np.asarray(spec.side(side_no).data(s), dtype=float)
        sides[side_no] = number[si + 1, sj + 1], s, np.broadcast_to(data, s.shape)
    gauge_fixed = False
    if spec.is_dirichlet:
        # boundary values; a corner takes the data of its first side
        u = np.zeros(i.size)
        for row, _, data in reversed(sides.values()):
            u[row] = data
        inner = ~np.any(grid.on_sides(i, j), axis=0)
        u[inner], residual = _cg_solve(lhs[inner][:, inner], -(lhs @ u)[inner])
        flux = lhs @ u / grid.h
        traces = {side: (s[1:-1], flux[row[1:-1]]) for side, (row, s, _) in sides.items()}
    else:
        # the Neumann data, lumped per boundary edge
        b = np.zeros(i.size)
        for row, _, data in sides.values():
            b[row] += grid.ds * data
        gauge_fixed = spec.lam == 0.0 and all(cond.gamma == 0.0 for cond in spec.sides)
        if gauge_fixed:
            # pure Neumann at lam = 0: kernel is the constant vector
            total = float(np.sum(b))
            scale = float(np.sum(np.abs(b)))
            # the lumped boundary quadrature leaves an O(h^2) flux imbalance
            # even for exactly compatible data, so the rejection threshold
            # must sit above that; incompatible data violates it at O(1)
            if abs(total) > max(1e-8, 100.0 * grid.h * grid.h) * max(scale, 1.0):
                raise SolvabilityError(
                    "pure-Neumann data at lam = 0 violates the zero-mean "
                    f"compatibility condition (sum {total:.3e})"
                )
            b -= total / b.size
        u, residual = _cg_solve(lhs, b)
        if gauge_fixed:
            u -= np.mean(u)
        traces = {side: (s, u[row]) for side, (row, s, _) in sides.items()}
    values = np.full((grid.m + 1, grid.m + 1), np.nan)
    values[i, j] = u
    return GridSolution(
        grid=grid, values=values, traces=traces, gauge_fixed=gauge_fixed, cg_residual=residual
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
