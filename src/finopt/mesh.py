"""Mesh and field containers for the finite-volume fin model.

The grid is staggered: temperatures live on nodes x_i = i*dx (including
both ends of the fin), thickness lives on the faces halfway between
adjacent nodes, where the conductive flux between the two nodes is
evaluated.  One thickness value per internode link keeps the compliance
sensitivity diagonal in the face index.

All containers are immutable; functions operating on them are pure, so
everything here can be shared freely across threads.  A container keeps a
read-only float64 array that owns its data as is and copies any other
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Mesh:
    """Uniform 1D mesh over a fin of the given length."""

    n_cells: int
    length: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 4:
            raise DomainError(f"n_cells must be an integer >= 4, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length)):
            raise DomainError(f"length must be a finite number, got {self.length!r}")
        if self.length <= 0.0:
            raise DomainError(f"length must be positive, got {self.length}")
        object.__setattr__(self, "length", float(self.length))

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        """Node positions, 0 through length inclusive."""
        x = np.arange(self.n_nodes, dtype=np.float64) * self.dx
        x.flags.writeable = False
        return x

    @property
    def faces(self) -> np.ndarray:
        """Face (internode midpoint) positions, length n_cells."""
        x = (np.arange(self.n_cells, dtype=np.float64) + 0.5) * self.dx
        x.flags.writeable = False
        return x

    @property
    def node_weights(self) -> np.ndarray:
        """Control-volume widths per node: trapezoid weights on the nodes."""
        w = np.full(self.n_nodes, self.dx, dtype=np.float64)
        w[0] = 0.5 * self.dx
        w[-1] = 0.5 * self.dx
        w.flags.writeable = False
        return w


def _frozen_array(values, expected_len: int, what: str) -> np.ndarray:
    # A read-only float64 array that owns its data cannot change under the
    # container, so it is kept as is; anything else is copied.  The solver
    # and optimizer hand over their fresh results this way, which spares an
    # n-long copy per field.
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.base is None
        and not values.flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != expected_len:
        raise DomainError(f"{what} must be a 1D array of length {expected_len}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ThicknessProfile:
    """Fin thickness sampled at mesh faces.

    Values must be finite and nonnegative.  A zero face carries no heat:
    the solver admits it, and the nodes it cuts off from the root get
    theta = 0, as past the support of an optimal profile.
    """

    mesh: Mesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _frozen_array(self.values, self.mesh.n_cells, "thickness values")
        if np.any(arr < 0.0):
            raise DomainError("thickness values must be nonnegative")
        object.__setattr__(self, "values", arr)

    @property
    def area(self) -> float:
        """Midpoint-rule integral of the face values: sum(t) * dx.

        Faces sit at cell midpoints, so this is the quadrature consistent
        with the discretization, and it is the discrete area functional the
        optimizer constrains; simulation and constraint always agree on
        what "area" means.
        """
        return float(np.sum(self.values)) * self.mesh.dx

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "ThicknessProfile":
        return cls(mesh, np.full(mesh.n_cells, float(value)))

    @classmethod
    def from_callable(
        cls,
        mesh: Mesh,
        thickness: Callable[[np.ndarray], np.ndarray],
        floor: float = 0.0,
    ) -> "ThicknessProfile":
        """Sample t(x) at the face positions, clipped from below at floor."""
        values = np.maximum(np.asarray(thickness(mesh.faces), dtype=np.float64), floor)
        values.flags.writeable = False  # fresh: the profile keeps it without a copy
        return cls(mesh, values)

    def with_values(self, values) -> "ThicknessProfile":
        return ThicknessProfile(self.mesh, values)

    def _tip_first(self) -> "ThicknessProfile":
        """The faces numbered from the tip, for the reversed-order solve.

        Its values are a reversed view of this profile's checked, read-only
        array, which cannot change under it: nothing is copied or checked
        again.
        """
        profile = object.__new__(ThicknessProfile)
        object.__setattr__(profile, "mesh", self.mesh)
        object.__setattr__(profile, "values", self.values[::-1])
        return profile


@dataclass(frozen=True, eq=False)
class TemperatureField:
    """Excess temperature theta = T - T_inf at the mesh nodes."""

    mesh: Mesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _frozen_array(self.values, self.mesh.n_nodes, "temperature values")
        object.__setattr__(self, "values", arr)

    @property
    def root_value(self) -> float:
        return float(self.values[0])

    @property
    def tip_value(self) -> float:
        return float(self.values[-1])
