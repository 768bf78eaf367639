"""Problem descriptions: one boundary condition per side.

The general side condition is the Poincare form

    sin(beta) dq/dN + cos(beta) dq/dT + gamma q = f,

with Neumann (beta = pi/2, gamma = 0) and Robin (beta = pi/2, gamma != 0) as
special cases; Dirichlet sides prescribe q itself.  A problem is admissible
when the three (beta, gamma) pairs satisfy the solvability constraints

    beta_2 - beta_1 = n pi/3,   beta_3 - beta_1 = m pi/3,  n, m integers,
    sin(3 beta_1) [gamma_2 (3 lam - gamma_2^2) - e^{i n pi} gamma_1 (3 lam - gamma_1^2)] = 0,
    sin(3 beta_1) [gamma_3 (3 lam - gamma_3^2) - e^{i m pi} gamma_1 (3 lam - gamma_1^2)] = 0,

and the corner terms cancel out of the global relation exactly when
e^{2 i beta_1} = e^{2 i beta_2} = e^{2 i beta_3}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParameterError
from .geometry import TriangleGeometry
from .symbols import SideSymbol
from .traces import BoundaryTrace


#: tolerance of the beta offsets in units of pi/3 and of the gamma constraints
ADMISSIBILITY_TOL = 1e-10


class BCKind(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN = "robin"
    POINCARE = "poincare"


@dataclass(frozen=True)
class SideCondition:
    kind: BCKind
    data: BoundaryTrace
    beta: float = math.pi / 2.0
    gamma: float = 0.0

    def __post_init__(self):
        kind = BCKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind == BCKind.NEUMANN and self.gamma != 0.0:
            raise ParameterError("Neumann side must have gamma = 0")
        if kind in (BCKind.NEUMANN, BCKind.ROBIN) and self.beta != math.pi / 2.0:
            raise ParameterError("Neumann/Robin sides fix beta = pi/2")
        if kind == BCKind.POINCARE and math.sin(self.beta) == 0.0:
            raise ParameterError("Poincare side needs sin(beta) != 0")

    def symbol(self, lam: float) -> SideSymbol:
        if self.kind == BCKind.DIRICHLET:
            raise ParameterError("Dirichlet sides have no H symbol")
        return SideSymbol(lam=lam, beta=self.beta, gamma=self.gamma)


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    corner_cancelling: bool
    n_step: int | None
    m_step: int | None
    violations: tuple


def check_lam(lam: float, positive: bool = False):
    """ParameterError unless ``lam`` is finite and >= 0 (> 0 if ``positive``)."""
    if not (math.isfinite(lam) and (lam > 0.0 if positive else lam >= 0.0)):
        raise ParameterError(f"lambda must be finite and {'>' if positive else '>='} 0, got {lam}")


@dataclass(frozen=True)
class ProblemSpec:
    lam: float
    geometry: TriangleGeometry
    sides: tuple

    def __post_init__(self):
        if len(self.sides) != 3:
            raise ParameterError("exactly three side conditions are required")
        check_lam(self.lam)
        kinds = {side.kind for side in self.sides}
        if BCKind.DIRICHLET in kinds and len(kinds) > 1:
            raise ParameterError(
                "mixed Dirichlet/derivative side conditions are not supported"
            )

    @property
    def side_length(self) -> float:
        return self.geometry.side_length

    @property
    def is_dirichlet(self) -> bool:
        return self.sides[0].kind == BCKind.DIRICHLET

    def side(self, j: int) -> SideCondition:
        return self.sides[j - 1]

    def admissibility(self) -> AdmissibilityReport:
        """Check the solvability and corner-cancellation conditions."""
        if self.is_dirichlet:
            return AdmissibilityReport(True, True, 0, 0, ())
        b1, b2, b3 = (side.beta for side in self.sides)
        g1, g2, g3 = (side.gamma for side in self.sides)
        violations = []

        def step(delta, label):
            ratio = delta / (math.pi / 3.0)
            nearest = round(ratio)
            if abs(ratio - nearest) > ADMISSIBILITY_TOL:
                violations.append(f"{label}: beta offset {delta} is not a multiple of pi/3")
                return None
            return nearest

        n_step = step(b2 - b1, "beta_2 - beta_1")
        m_step = step(b3 - b1, "beta_3 - beta_1")
        scale = max(1.0, abs(self.lam)) ** 1.5

        def cubic(g):
            return g * (3.0 * self.lam - g * g)

        if n_step is not None:
            lhs = math.sin(3.0 * b1) * (cubic(g2) - (-1.0) ** n_step * cubic(g1))
            if abs(lhs) > ADMISSIBILITY_TOL * scale:
                violations.append(f"gamma constraint on sides 1/2 violated ({lhs:.3e})")
        if m_step is not None:
            lhs = math.sin(3.0 * b1) * (cubic(g3) - (-1.0) ** m_step * cubic(g1))
            if abs(lhs) > ADMISSIBILITY_TOL * scale:
                violations.append(f"gamma constraint on sides 1/3 violated ({lhs:.3e})")

        corner = (
            n_step is not None
            and m_step is not None
            and n_step % 2 == 0
            and m_step % 2 == 0
        )
        return AdmissibilityReport(
            admissible=not violations,
            corner_cancelling=corner,
            n_step=n_step,
            m_step=m_step,
            violations=tuple(violations),
        )


def dirichlet_problem(lam, geometry, traces) -> ProblemSpec:
    sides = tuple(SideCondition(BCKind.DIRICHLET, t) for t in traces)
    return ProblemSpec(lam=lam, geometry=geometry, sides=sides)


def neumann_problem(lam, geometry, traces) -> ProblemSpec:
    sides = tuple(SideCondition(BCKind.NEUMANN, t) for t in traces)
    return ProblemSpec(lam=lam, geometry=geometry, sides=sides)


def mixed_nr_problem(lam, geometry, robin_data, neumann_data_2, neumann_data_3) -> ProblemSpec:
    """Robin side 1 with gamma = sqrt(3 lambda), Neumann sides 2 and 3."""
    check_lam(lam, positive=True)
    gamma = math.sqrt(3.0 * lam)
    sides = (
        SideCondition(BCKind.ROBIN, robin_data, gamma=gamma),
        SideCondition(BCKind.NEUMANN, neumann_data_2),
        SideCondition(BCKind.NEUMANN, neumann_data_3),
    )
    return ProblemSpec(lam=lam, geometry=geometry, sides=sides)
