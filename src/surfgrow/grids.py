"""Grids and the per-step record of a run (``StepRecord``).

The through-thickness grid is one-dimensional in the coordinate ``x2``,
with cell-centered field storage.  A growth run marches on one fixed
Eulerian grid, sized so that its ``n_cells`` cells fill the final body
``[0, H(t_end)]``; the growing boundary moves through it, and at each
level only the active prefix is solved and stored: the cells whose
centers the body height ``H(t)`` has reached.  A record's ``Grid1D`` is
that prefix.  A record owns two scalars per cell, the shear ``F_e12`` and
the shear rate ``g``; the rest of a level is a view of per-run constants
or is assembled on request.  A small periodic-in-``x1`` strip grid
supports the two-dimensional verification transports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Grid1D:
    """The first ``n_cells`` cells, of width ``dx``, of a uniform
    cell-centered grid on ``x2 >= 0``, holding a body of height ``height``.

    ``dx`` defaults to ``height / n_cells``: cells that fill ``[0, height]``.
    The active prefix of a growth run keeps the run's fixed ``dx``; its top
    center lies at or below ``height`` and the next center above it, so
    the top face may lie up to half a cell above or below ``height``.
    """

    n_cells: int
    height: float
    dx: float | None = None

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValidationError(f"n_cells must be >= 1, got {self.n_cells}")
        if not (math.isfinite(self.height) and self.height > 0):
            raise ValidationError(f"height must be positive, got {self.height}")
        if self.dx is None:
            object.__setattr__(self, "dx", self.height / self.n_cells)
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ValidationError(f"dx must be positive, got {self.dx}")

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dx


@dataclass
class StepRecord:
    """One time level of a run: geometry, solved velocity, and fields.

    ``step`` is the march step ``k`` of the level, at ``t = k dt``.  In the
    through-thickness reduction only the shear ``F_e12`` of the elastic
    deformation evolves: ``F_e11``, ``F_e21`` and ``F_e22`` keep the values
    a cell had when it entered the run.  A record owns two arrays over the
    level's active cells, ``F_e12`` and the cell-centered shear rate
    ``g = v1'`` used by the transport step.  Everything else per cell is a
    view of a read-only array shared by all records of the run:

    ``F_e0``
        each cell's ``(2, 2)`` elastic deformation when it entered the run
        (on attachment, or at ``t = 0`` for the initial body); ``F_e``
        differs from it only in the ``(0, 1)`` entry, which is ``F_e12``;
    ``p``
        the pressure ``G S22 - tau2``, fixed per cell by the constant
        ``F_e22`` and the applied normal traction;
    ``rho``
        the uniform density.

    ``v_surf`` is the velocity of the top face.  ``v_nodes``, ``grad_v`` and
    ``F_e`` are assembled on request; ``F_e`` is built once and then kept,
    so an edit to it persists.
    """

    t: float
    step: int
    grid: Grid1D
    F_e12: np.ndarray
    g: np.ndarray
    F_e0: np.ndarray
    p: np.ndarray
    rho: np.ndarray
    v_surf: float
    metrics: dict = field(default_factory=dict)

    @property
    def v_nodes(self) -> np.ndarray:
        """Tangential velocity at the ``n+1`` cell faces (node 0 is the
        clamped base): the running sum of ``dx g``, as the solve computes it."""
        return np.concatenate([[0.0], (self.grid.dx * self.g).cumsum()])

    @property
    def grad_v(self) -> np.ndarray:
        """The ``(n, 2, 2)`` velocity gradient ``g e1 (x) e2``, built afresh."""
        grad_v = np.zeros((len(self.g), 2, 2))
        grad_v[:, 0, 1] = self.g
        return grad_v

    @cached_property
    def F_e(self) -> np.ndarray:
        """The ``(n, 2, 2)`` elastic deformation, built on first access."""
        F_e = self.F_e0.copy()
        F_e[:, 0, 1] = self.F_e12
        return F_e

    def F_e_columns(self) -> tuple[np.ndarray, ...]:
        """The components ``(F_e11, F_e12, F_e21, F_e22)`` as ``(n,)`` arrays,
        without assembling ``F_e``."""
        F_e0 = self.F_e0
        return F_e0[:, 0, 0], self.F_e12, F_e0[:, 1, 0], F_e0[:, 1, 1]


def interp_columns(xq: np.ndarray, xp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Linear interpolation of each trailing component of ``values`` at ``xq``.

    Outside ``xp`` the end values are held constant (first-order
    extrapolation at outflow boundaries).
    """
    values = np.asarray(values, dtype=float)
    flat = values.reshape(values.shape[0], -1)
    cols = [np.interp(xq, xp, flat[:, j]) for j in range(flat.shape[1])]
    out = np.stack(cols, axis=1)
    return out.reshape((len(xq),) + values.shape[1:])


@dataclass(frozen=True)
class PeriodicStrip:
    """2-D verification grid: periodic in ``x1``, walls at ``x2 = 0, height``."""

    n1: int
    n2: int
    length: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValidationError("strip needs at least 4 cells per direction")

    @property
    def dx1(self) -> float:
        return self.length / self.n1

    @property
    def dx2(self) -> float:
        return self.height / self.n2

    @property
    def centers(self):
        x1 = (np.arange(self.n1) + 0.5) * self.dx1
        x2 = (np.arange(self.n2) + 0.5) * self.dx2
        return np.meshgrid(x1, x2, indexing="ij")
