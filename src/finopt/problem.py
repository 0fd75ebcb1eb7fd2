"""Problem definition for the one-dimensional convecting fin.

A fin of local full thickness t(x) conducts heat along x and sheds it from
both exposed sides, so the excess temperature theta = T - T_inf satisfies

    -k d/dx(t dtheta/dx) + 2 h theta = 0   on (0, L),

with a prescribed heat input per unit width at the root and an insulated
tip.  The design questions (what thickness distribution, what length) are
posed under a fixed profile area budget: integral of t over [0, L] = area.
Four parameters fix the problem: k, h, area and q0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class FinProblem:
    """Physical configuration of a single fin design problem.

    k        thermal conductivity of the fin material, W/(m K)
    h        convection coefficient on the exposed faces, W/(m^2 K)
    area     profile area budget (integral of thickness over length), m^2
    q0       heat input per unit width at the root, W/m

    Everything is per unit width and in excess temperature theta = T - T_inf,
    so neither the width nor the ambient temperature enters any result.
    """

    k: float
    h: float
    area: float
    q0: float

    def __post_init__(self) -> None:
        for name in ("k", "h", "area", "q0"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.k <= 0.0:
            raise DomainError(f"conductivity k must be positive, got {self.k}")
        if self.h <= 0.0:
            raise DomainError(f"convection coefficient h must be positive, got {self.h}")
        if self.area <= 0.0:
            raise DomainError(f"profile area budget must be positive, got {self.area}")
        if self.q0 < 0.0:
            raise DomainError(f"root heat input q0 must be nonnegative, got {self.q0}")
