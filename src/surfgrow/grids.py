"""Grids and the per-step record of a run (``StepRecord``).

The through-thickness grid is one-dimensional in the coordinate ``x2``,
with cell-centered field storage.  A growth run marches on one fixed
Eulerian grid, sized so that its ``n_cells`` cells fill the final body
``[0, H(t_end)]``; the growing boundary moves through it, and at each
level only the active prefix is solved and stored: the cells whose
centers the body height ``H(t)`` has reached.  A record's ``Grid1D`` is
that prefix.  A record stores the velocity gradient as its one scalar per
cell, the shear rate ``g``.  A small periodic-in-``x1`` strip grid
supports the two-dimensional verification transports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    ``v_nodes`` holds the tangential velocity at the ``n+1`` cell faces
    (node 0 is the clamped base); ``g`` is the cell-centered shear rate
    ``v1'`` actually used by the transport step.  With ``v = v1(x2) e1`` it
    is the only nonzero component ``(0, 1)`` of the velocity gradient, which
    ``grad_v`` assembles on demand.  A growth march owns its arrays:
    ``F_e``, ``p``, ``v_nodes`` and ``g`` are fresh every step and cover
    the level's active cells, and the uniform density ``rho`` is a view of
    one read-only array shared by all records of the run.
    """

    t: float
    grid: Grid1D
    v_nodes: np.ndarray
    g: np.ndarray
    F_e: np.ndarray
    p: np.ndarray
    rho: np.ndarray
    metrics: dict = field(default_factory=dict)

    @property
    def grad_v(self) -> np.ndarray:
        """The ``(n, 2, 2)`` velocity gradient ``g e1 (x) e2``, built afresh."""
        grad_v = np.zeros((len(self.g), 2, 2))
        grad_v[:, 0, 1] = self.g
        return grad_v


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
