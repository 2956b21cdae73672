"""Grids and the stored levels of a run (``History``, ``StepRecord``).

The through-thickness grid is one-dimensional in the coordinate ``x2``,
with cell-centered field storage.  A growth run marches on one fixed
Eulerian grid, sized so that its ``n_cells`` cells fill the final body
``[0, H(t_end)]``; the growing boundary moves through it, and at each
level only the active prefix is solved and stored: the cells whose
centers the body height ``H(t)`` has reached.  A run's stored levels are
held as columns (``History``): a few scalars per level, one array per
metric, two run-wide buffers that hold the shear ``F_e12`` and the shear
rate ``g`` of every level, one level after another, and the per-run
constants of which each level holds a prefix.  A ``StepRecord`` is one
level built from them on request.  A small periodic-in-``x1`` strip grid
supports the two-dimensional verification transports.
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
    """One time level of a run: geometry, solved velocity, and fields.

    ``History`` builds a record from its columns when the level is first
    indexed and keeps it.  ``step`` is the march step ``k`` of the level, at
    ``t = k dt``.  In the through-thickness reduction only the shear
    ``F_e12`` of the elastic deformation evolves: ``F_e11``, ``F_e21`` and
    ``F_e22`` keep the values a cell had when it entered the run.  A record
    holds two arrays over the level's active cells, ``F_e12`` and the
    cell-centered shear rate ``g = v1'`` used by the transport step: views
    of the level's slice of the history's two buffers (so one record keeps
    both buffers alive).  Everything else per cell is a view of a read-only
    array shared by all records of the run:

    ``F_e0``
        each cell's ``(2, 2)`` elastic deformation when it entered the run
        (on attachment, or at ``t = 0`` for the initial body); ``F_e``
        differs from it only in the ``(0, 1)`` entry, which is ``F_e12``;
    ``p``
        the pressure ``G S22 - tau2``, fixed per cell by the constant
        ``F_e22`` and the applied normal traction;
    ``rho``
        the uniform density.

    ``v_surf`` is the velocity of the top face and ``metrics`` the level's
    row of the history's metric columns.  ``v_nodes``, ``grad_v`` and
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


class History(Sequence):
    """The stored levels of a run, as columns; a read-only sequence of
    ``StepRecord``.

    Per level: ``t``, the march step ``step``, the body height ``H``, the
    active cell count ``m``, the level's first cell ``offset`` in the two
    buffers and the top-face velocity ``v_surf``; ``metrics`` holds one
    float array per metric.  The buffers ``F_e12`` and ``g`` hold every
    level's cells, level ``k`` at ``[offset[k], offset[k] + m[k])``; the
    per-run constants ``F_e0``, ``p`` and ``rho`` (one entry per grid cell)
    and the spacing ``dx`` are shared by all levels, each holding a prefix.

    Indexing builds a level's ``StepRecord`` on first access and keeps it,
    so ``history[-1] is history[-1]`` and an edit to a record's ``F_e``
    persists.  A slice is a ``History`` over the same columns, buffers and
    kept records.  The post-processing passes read the columns through
    ``cells``, ``grid``, ``v_nodes`` and ``F_e_columns``, which take a
    level's position and build no record.
    """

    LEVEL_COLUMNS = ("t", "step", "H", "m", "offset", "v_surf")

    def __init__(self, *, t, step, H, m, offset, v_surf, metrics: dict,
                 F_e12: np.ndarray, g: np.ndarray, F_e0: np.ndarray, p: np.ndarray,
                 rho: np.ndarray, dx: float):
        self.t, self.step, self.H = t, step, H
        self.m, self.offset, self.v_surf = m, offset, v_surf
        self.metrics = metrics
        self.F_e12, self.g = F_e12, g
        self.F_e0, self.p, self.rho, self.dx = F_e0, p, rho, dx
        self._levels = range(len(m))
        self._records: dict[int, StepRecord] = {}

    @classmethod
    def from_records(cls, records) -> "History":
        """The columns of hand-built records: levels on one grid spacing,
        whose ``F_e0``, ``p`` and ``rho`` are (bitwise) prefixes of those of
        the widest level and whose ``metrics`` share their names."""
        records = list(records)
        m = np.array([rec.grid.n_cells for rec in records], dtype=int)
        if not records:
            return cls(t=np.empty(0), step=np.empty(0, dtype=int), H=np.empty(0), m=m,
                       offset=m.copy(), v_surf=np.empty(0), metrics={},
                       F_e12=np.empty(0), g=np.empty(0), F_e0=np.empty((0, 2, 2)),
                       p=np.empty(0), rho=np.empty(0), dx=1.0)
        widest = records[int(np.argmax(m))]
        dx, names = widest.grid.dx, list(records[0].metrics)
        for k, rec in enumerate(records):
            mk = rec.grid.n_cells
            if rec.grid.dx != dx:
                raise ValidationError(f"level {k} has dx = {rec.grid.dx}, not {dx}")
            if sorted(rec.metrics) != sorted(names):
                raise ValidationError(f"level {k} has metrics {sorted(rec.metrics)}, "
                                      f"not {sorted(names)}")
            for name in ("F_e0", "p", "rho"):
                if getattr(rec, name).tobytes() != getattr(widest, name)[:mk].tobytes():
                    raise ValidationError(f"level {k}'s {name} is not a prefix of "
                                          f"the run's")
        return cls(t=np.array([rec.t for rec in records], dtype=float),
                   step=np.array([rec.step for rec in records], dtype=int),
                   H=np.array([rec.grid.height for rec in records], dtype=float),
                   m=m, offset=np.cumsum(m) - m,
                   v_surf=np.array([rec.v_surf for rec in records], dtype=float),
                   metrics={name: np.array([rec.metrics[name] for rec in records],
                                           dtype=float) for name in names},
                   F_e12=np.concatenate([rec.F_e12 for rec in records]),
                   g=np.concatenate([rec.g for rec in records]),
                   F_e0=widest.F_e0, p=widest.p, rho=widest.rho, dx=dx)

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
            cells = self.cells(k)
            rec = self._records[level] = StepRecord(
                t=float(self.t[k]), step=int(self.step[k]), grid=self.grid(k),
                F_e12=self.F_e12[cells], g=self.g[cells], F_e0=self.F_e0[:mk],
                p=self.p[:mk], rho=self.rho[:mk], v_surf=float(self.v_surf[k]),
                metrics={name: float(col[k]) for name, col in self.metrics.items()})
        return rec

    def cells(self, k: int) -> slice:
        """Level ``k``'s slice of the buffers ``F_e12`` and ``g``."""
        o = int(self.offset[k])
        return slice(o, o + int(self.m[k]))

    def grid(self, k: int) -> Grid1D:
        """Level ``k``'s active prefix of the run's grid."""
        return Grid1D(int(self.m[k]), float(self.H[k]), self.dx)

    def v_nodes(self, k: int) -> np.ndarray:
        """Level ``k``'s face velocities, as its record computes them."""
        return np.concatenate([[0.0], (self.dx * self.g[self.cells(k)]).cumsum()])

    def F_e_columns(self, k: int) -> tuple[np.ndarray, ...]:
        """Level ``k``'s ``(F_e11, F_e12, F_e21, F_e22)`` as ``(m,)`` arrays."""
        F_e0 = self.F_e0[:int(self.m[k])]
        return F_e0[:, 0, 0], self.F_e12[self.cells(k)], F_e0[:, 1, 0], F_e0[:, 1, 1]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the levels hold: each level's cells of the two
        buffers, plus the shared ``F_e0``, ``p`` and ``rho`` once."""
        if not len(self):
            return 0
        owned = int(self.m.sum()) * (self.F_e12.itemsize + self.g.itemsize)
        return owned + sum(a.nbytes if a.base is None else a.base.nbytes
                           for a in (self.F_e0, self.p, self.rho))


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
