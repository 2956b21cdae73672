"""Grids and the stored levels of a run (``History``, ``StepRecord``).

A growth run marches on one fixed cell-centered grid in ``x2``
(``Grid1D``) and stores each level's active prefix as columns read
through one map (``History``), as the README's Scenarios section
describes.  ``PeriodicStrip`` is the two-dimensional verification grid.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
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
    """One stored level, built by ``History`` on first access and kept.

    ``step`` is the march step ``k`` of the level, at ``t = k dt``.
    ``F_e12`` and the shear rate ``g`` are the level's values, gathered
    from the run's sources when the record is built (``History.columns``).
    ``F_e0`` (each cell's entry state, from which ``F_e`` differs only in
    its ``(0, 1)`` entry), ``p`` and ``rho`` are views of the run's
    read-only per-cell constants.  ``v_nodes``, ``grad_v`` and ``F_e`` are
    assembled on request; ``F_e`` is built once and then kept, so an edit
    to it persists.
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


class History(Sequence):
    """The stored levels of a run, as columns; a read-only sequence of
    ``StepRecord``.

    Per level: ``t``, ``step``, the height ``H``, the active cell count
    ``m``, ``start``, ``v_surf`` and one array per metric in ``metrics``.
    The levels' ``F_e12`` and ``g`` are the two rows of ``source``, the
    run's age tables (per entry state, ``L`` zeros and then the ages ``0 ..
    L - 1``, the one layout ``scenarios.level_v1`` reads), through one map:
    cell ``j`` of level ``k`` is entry ``start[k] + col[j]``, with ``start``
    the level's index in the run and ``col`` each cell's entry offset.
    ``source``, ``col``, ``F_e0``, ``p``, ``rho``, ``dx`` and the march's
    step ``dt`` (a level sits at ``t = step dt``) are shared by all levels.
    Indexing builds a level's record on first access and keeps it, and a
    slice is a ``History`` over the same columns and kept records.  ``columns``,
    ``grid``, ``v_nodes`` and ``F_e_columns`` read a level without building
    a record; ``centers`` and ``faces`` are the run's grid, of which every
    level holds a prefix.
    """

    LEVEL_COLUMNS = ("t", "step", "H", "m", "start", "v_surf")

    def __init__(self, *, t, step, H, m, start, v_surf, metrics: dict,
                 source: np.ndarray, col: np.ndarray, F_e0: np.ndarray, p: np.ndarray,
                 rho: np.ndarray, dx: float, dt: float):
        self.t, self.step, self.H = t, step, H
        self.m, self.start, self.v_surf = m, start, v_surf
        self.metrics = metrics
        self.source, self.col = source, col
        self.F_e0, self.p, self.rho, self.dx, self.dt = F_e0, p, rho, dx, dt
        self._levels = range(len(m))
        self._records: dict[int, StepRecord] = {}

    def __len__(self) -> int:
        return len(self._levels)

    def __getitem__(self, k):
        if isinstance(k, slice):
            view = copy.copy(self)  # shares the columns and the kept records
            for name in self.LEVEL_COLUMNS:
                setattr(view, name, getattr(self, name)[k])
            view.metrics = {name: col[k] for name, col in self.metrics.items()}
            view._levels = self._levels[k]
            return view
        k = range(len(self))[k]  # a list's negative indices and IndexError
        level = self._levels[k]
        rec = self._records.get(level)
        if rec is None:
            mk = int(self.m[k])
            F_e12, g = self.columns(k)
            rec = self._records[level] = StepRecord(
                t=float(self.t[k]), step=int(self.step[k]), grid=self.grid(k),
                F_e12=F_e12, g=g, F_e0=self.F_e0[:mk], p=self.p[:mk],
                rho=self.rho[:mk], v_surf=float(self.v_surf[k]),
                metrics={name: float(col[k]) for name, col in self.metrics.items()})
        return rec

    def columns(self, k: int, rows=slice(None)) -> np.ndarray:
        """Level ``k``'s ``F_e12`` and ``g`` as the rows of a fresh ``(2, m)``
        array, gathered through the map; ``rows=0`` or ``1`` gathers one."""
        index = self.start[k] + self.col[:int(self.m[k])]  # in range: "clip" skips a check
        return np.take(self.source[rows], index, axis=-1, mode="clip")

    def grid(self, k: int) -> Grid1D:
        """Level ``k``'s active prefix of the run's grid."""
        return Grid1D(int(self.m[k]), float(self.H[k]), self.dx)

    @property
    def centers(self) -> np.ndarray:
        """The cell centers of the run's grid; a level's are the first ``m``."""
        return (np.arange(len(self.F_e0)) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        """The cell faces of the run's grid; a level's are the first ``m + 1``."""
        return np.arange(len(self.F_e0) + 1) * self.dx

    def v_nodes(self, k: int) -> np.ndarray:
        """Level ``k``'s face velocities, as its record computes them."""
        return np.concatenate([[0.0], (self.dx * self.columns(k, 1)).cumsum()])

    def F_e_columns(self, k: int) -> tuple[np.ndarray, ...]:
        """Level ``k``'s ``(F_e11, F_e12, F_e21, F_e22)`` as ``(m,)`` arrays."""
        F_e0 = self.F_e0[:int(self.m[k])]
        return F_e0[:, 0, 0], self.columns(k, 0), F_e0[:, 1, 0], F_e0[:, 1, 1]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the history holds: the sources of ``F_e12``
        and ``g``, the map (``start``, ``col``) and the shared ``F_e0``,
        ``p`` and ``rho``, each once."""
        return sum(a.nbytes for a in (self.source, self.start, self.col, self.F_e0,
                                      self.p, self.rho))


def interp_prefix(x: np.ndarray, xp: np.ndarray, n, fp: np.ndarray, start,
                  col: np.ndarray) -> np.ndarray:
    """``np.interp(x[i], xp[:n[i]], fp[start[i] + col[:n[i]]])`` for every
    point ``i`` at once, by gathers, bitwise for finite ``fp``.

    Each point interpolates on a prefix of the one increasing node array
    ``xp``, with its own values, node ``k``'s at ``fp[start[i] +
    col[k]]``.  The arithmetic is ``np.interp``'s: the bracket ``k`` with
    ``xp[k] <= x < xp[k + 1]``, then ``slope * (x - xp[k]) + f0`` with
    ``slope = (f1 - f0) / (xp[k + 1] - xp[k])`` for the node values
    ``f0``, ``f1``; ``f0`` when ``x == xp[k]``, and the end values at or
    beyond the ends.  A NaN ``x`` gives NaN.
    """
    x = np.asarray(x, dtype=float)
    k = np.minimum(np.searchsorted(xp, x, side="right") - 1, n - 1)
    out = fp[start + col[np.maximum(k, 0)]]
    inner = (k >= 0) & (k < n - 1)
    inner[inner] = x[inner] != xp[k[inner]]
    k, xi, f0 = k[inner], x[inner], out[inner]
    x0 = xp[k]
    out[inner] = (fp[start[inner] + col[k + 1]] - f0) / (xp[k + 1] - x0) * (xi - x0) + f0
    np.copyto(out, x, where=np.isnan(x))
    return out


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
