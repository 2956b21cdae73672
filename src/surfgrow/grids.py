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
    center lies at or below ``height`` plus a few ulps of the run's final
    height (``scenarios.FRONT_ULPS``) and the next center above that, so
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


class History(Sequence):
    """The stored levels of a run, as columns; a read-only sequence of
    ``StepRecord``.

    Per level: ``step``, ``t = step dt``, the height ``H``, the active cell
    count ``m`` (nondecreasing), ``v_surf`` and one array per metric in
    ``metrics``.  ``tables`` holds per entry state ``F_e12`` and ``g`` at
    the ages ``0 .. L - 1`` (``L = len(m)``); with two, the initial body's
    ``m0 = m[0]`` cells are in the first.  Cell ``j`` of level ``k`` holds
    its state's age ``k`` less its ``entry`` level: the history alone lays
    the tables out (``source``) and maps a level's cells into them
    (``index``).  Indexing builds a level's record on first access and
    keeps it; a slice shares the columns, map and records.  ``columns``,
    ``grid`` and ``v_nodes`` read a level without a record; each level
    holds a prefix of the run's ``centers``, ``faces`` and ``F_e0``.
    """

    LEVEL_COLUMNS = ("t", "step", "H", "m", "v_surf")

    def __init__(self, *, step, H, m, v_surf, metrics: dict, tables, F_e0: np.ndarray,
                 p: np.ndarray, rho: np.ndarray, dx: float, dt: float):
        tables, L = np.asarray(tables, dtype=float), len(m)  # (state, F_e12 or g, age)
        two = L and len(tables) == 2 and 0 < m[0] < len(F_e0)  # a cell in each state
        if not ((two or L and len(tables) == 1) and tables.shape[1:] == (2, L)
                and np.all(np.diff(m) >= 0)):
            raise ValidationError(f"History needs a nondecreasing m and the age tables of 1 "
                                  f"or 2 entry states, a cell in each, of ages 0 .. {L - 1}")
        source = np.zeros((2, len(tables), 2, L))  # per state, zeros for the ages -L .. -1
        source[:, :, 1] = tables.swapaxes(0, 1)
        self.source, self.L, self.m0 = source.reshape(2, -1), L, int(m[0]) if two else 0
        self.t, self.step, self.H, self.m, self.v_surf = step * dt, step, H, m, v_surf
        self.F_e0, self.p, self.rho, self.dx, self.dt = F_e0, p, rho, dx, dt
        cells, self.first, self.metrics = np.arange(len(F_e0)), int(step[0]), metrics
        self.col = self._ages_from(cells) - np.searchsorted(m, cells, side="right")
        self._records: dict[int, StepRecord] = {}

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, k):
        if isinstance(k, slice):
            view = copy.copy(self)  # shares the columns and the kept records
            for name in self.LEVEL_COLUMNS:
                setattr(view, name, getattr(self, name)[k])
            view.metrics = {name: col[k] for name, col in self.metrics.items()}
            return view
        k = range(len(self))[k]  # a list's negative indices and IndexError
        rec = self._records.get(int(self.step[k]))
        if rec is None:
            mk = int(self.m[k])
            F_e12, g = self.columns(k)
            rec = self._records[int(self.step[k])] = StepRecord(
                t=float(self.t[k]), step=int(self.step[k]), grid=self.grid(k),
                F_e12=F_e12, g=g, F_e0=self.F_e0[:mk], p=self.p[:mk],
                rho=self.rho[:mk], v_surf=float(self.v_surf[k]),
                metrics={name: float(col[k]) for name, col in self.metrics.items()})
        return rec

    def _ages_from(self, cells):
        """Where age 0 of ``cells``' entry states lies in ``source``."""
        return np.where(cells < self.m0, self.L, self.source.shape[1] - self.L)

    def index(self, k, cells=None) -> np.ndarray:
        """The entries of ``source`` that level ``k``'s cells (or ``cells``) read."""
        cells = slice(int(self.m[k])) if cells is None else cells
        return self.step[k] - self.first + self.col[cells]

    @property
    def entry(self) -> np.ndarray:
        """Each cell's entry level, the first of the run that holds it."""
        return self._ages_from(np.arange(len(self.col))) - self.col

    def table(self, state: int) -> np.ndarray:
        """Entry state ``state``'s ``F_e12`` and ``g`` at the ages ``0 .. L - 1``, a view."""
        return self.source.reshape(2, -1, 2, self.L)[:, state, 1]

    def at_ages(self, row: int, state: int, ages: np.ndarray) -> np.ndarray:
        """``F_e12`` (``row=0``) or ``g`` of ``table(state)`` at ``ages`` in ``-L
        .. L - 1``, zeros at the negative ones.  One row is contiguous, so the
        gather reads it without a copy."""
        return np.take(self.source.reshape(2, -1, 2 * self.L)[row, state], self.L + ages,
                       mode="clip")

    def age_rows(self) -> list[tuple[int, slice]]:
        """Per entry state that the last level holds, its first cell and the
        slice of a ``source`` row of its ages ``0`` to that cell's there."""
        return [(j, slice(int(self._ages_from(j)), int(self.index(-1, j)) + 1))
                for j in sorted({0, self.m0}) if j < self.m[-1]]

    def shear_since_entry(self) -> np.ndarray:
        """Each cell's shear ``F12`` of ``F = I + F12 e1 (x) e2`` since it
        entered, laid out like a row of ``source`` (``index`` gathers a
        level's): per state, the running sum from 0 of ``dt g`` over the ages
        before each one, in the order a march of ``F12 + dt g`` sums it."""
        F12 = np.zeros_like(self.source[1]).reshape(-1, 2, self.L)
        np.multiply(self.dt, self.source[1].reshape(F12.shape)[:, 1, :-1], out=F12[:, 1, 1:])
        np.cumsum(F12[:, 1], axis=1, out=F12[:, 1])
        return F12.reshape(-1)

    def columns(self, k: int, rows=slice(None)) -> np.ndarray:
        """Level ``k``'s ``F_e12`` and ``g`` as the rows of a fresh ``(2, m)``
        array, gathered through the map; ``rows=0`` or ``1`` gathers one.  The
        map is in range, so ``"clip"`` skips a check."""
        return np.take(self.source[rows], self.index(k), axis=-1, mode="clip")

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

    def interp(self, row: int, level: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """``F_e12`` (``row=0``) or ``g`` of the levels ``level`` at ``x2``."""
        return interp_prefix(x2, self.centers, self.m[level], self.source[row],
                             self.step[level] - self.first, self.col)

    def v_nodes(self, k: int) -> np.ndarray:
        """Level ``k``'s face velocities, as its record computes them."""
        return np.concatenate([[0.0], (self.dx * self.columns(k, 1)).cumsum()])

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the history holds: the sources of ``F_e12``
        and ``g``, the map ``col`` and the shared ``F_e0``, ``p`` and
        ``rho``, each once."""
        return sum(a.nbytes for a in (self.source, self.col, self.F_e0, self.p, self.rho))


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
    # (f1 - f0) / (x1 - x0) * (xi - x0) + f0, in place to hold fewer arrays
    k = k[inner]
    x0 = xp[k]
    k += 1
    dx = xp[k] - x0
    k = col[k]
    k += start[inner]
    f, f0 = fp[k], out[inner]
    del k
    f -= f0
    f /= dx
    f *= np.subtract(x[inner], x0, out=dx)
    f += f0
    out[inner] = f
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
