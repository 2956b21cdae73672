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
    count ``m`` (nondecreasing) and one array per metric in ``metrics``.
    ``tables`` holds per entry state ``F_e12`` and ``g`` at the ages ``0 ..
    L - 1`` (``L = len(m)``): first the initial body's, the ``m0 = m[0]``
    cells of a first level at step 0, then the deposit's, the cells that
    enter later.  Cell ``j`` of level ``k`` holds its state's age ``k`` less
    the first level that holds it: the history alone lays the tables out
    (``source``) and maps a level's cells into them (``index``).  The
    deposited cells fall into entry classes (``rows``), found once from
    ``advance``, the front's rise a level; with them ``P``, each level's
    ``g`` summed over its deposited cells, and the top face's velocity
    ``v_surf``.  Indexing builds a level's record on first access and keeps
    it; a slice shares the columns, map, classes and records.  ``columns``, ``grid`` and
    ``v_nodes`` read a level without a record; each level holds a prefix of
    the run's ``centers``, ``faces`` and ``F_e0``.
    """

    LEVEL_COLUMNS = ("t", "step", "H", "m")
    # Entries of the class rows formed at once (``chunks``): a chunk takes
    # classes while their count times the rows' length stays within it.
    CLASS_CELLS = 2 ** 14

    def __init__(self, *, step, H, m, metrics: dict, tables, F_e0: np.ndarray,
                 p: np.ndarray, rho: np.ndarray, dx: float, dt: float, advance: float):
        L = len(m)
        m0 = int(m[0]) if L and step[0] == 0 else 0  # the cells present at step 0
        states = (m0 > 0) + (m0 < len(F_e0))
        if not (L and len(tables) == states and np.all(np.diff(m) >= 0) and all(
                [np.shape(row) for row in rows] == [(L,)] * 2 for rows in tables)):
            raise ValidationError(f"History needs a nondecreasing m and the age tables of its "
                                  f"1 or 2 entry states (the cells at step 0, then the rest), "
                                  f"a cell in each, of ages 0 .. {L - 1}")
        source = np.zeros((2, states, L + 1))  # per state, a 0 for every negative age
        for state, (F_e12, g) in enumerate(tables):
            source[0, state, 1:], source[1, state, 1:] = F_e12, g
        self.source, self.L, self.m0 = source.reshape(2, -1), L, m0
        self.t, self.step, self.H, self.m = step * dt, step, H, m
        self.F_e0, self.p, self.rho, self.dx, self.dt = F_e0, p, rho, dx, dt
        cells, self.first, self.metrics = np.arange(len(F_e0)), int(step[0]), metrics
        entered = np.searchsorted(m, cells, side="right")  # each cell's first level
        self.col = self._ages_from(cells) - entered
        self.body = self.table(0) if m0 else np.broadcast_to(0.0, (2, L))
        self._classes(entered[m0:], advance)
        self._records: dict[int, StepRecord] = {}

    def _classes(self, a: np.ndarray, advance: float) -> None:
        """Find the entry classes of the deposited cells, which enter at the
        levels ``a``, and their level sums ``P``.  Cell ``m0 + c + u q`` enters
        at level ``e[c] + u p`` (``e[q] = e[0] + p``, ``p`` the ``period``), so
        at ``rho + u p`` it holds what cell ``m0 + c`` holds at ``rho``: ``q``
        is the least count with ``|q dx - p advance| <= 16 eps q dx``, ``p =
        rint(q dx / advance)`` the levels it spans.  The entries confirm the
        pair: cell ``j + q`` enters ``p`` levels after cell ``j``, and the cell
        above a class's last enters after the last level.  Failing that each
        deposited cell is a class (``p = L``); with none, ``e = [L]``."""
        L, dx = self.L, self.dx
        q, p = len(a), L
        # a deposited cell enters after step 0, so the front rose about dx / 2
        # or more: dx / advance is at most about 2 n_steps
        width = np.arange(1, len(a) + 1) * dx  # q dx for q = 1, 2, ...
        spans = np.rint(width / advance)
        fits = np.flatnonzero(np.abs(width - spans * advance) <= 16 * np.finfo(float).eps * width)
        if len(fits):
            k, span = int(fits[0]) + 1, int(spans[fits[0]])
            if np.all(a[k:] - a[:-k] == span) and np.all(a[-k:] >= L - span):
                q, p = k, span
        self.e, self.period, self.P = np.append(a[:q], p + (a[0] if q else 0)), p, np.zeros(L)
        # the deposit's g by age summed along each stride, after a 0 for the
        # ages below 0, gathered at each class's ages and summed class by class
        Q, levels = np.concatenate([[0.0], self.table(-1)[1]]), np.arange(L)
        with np.errstate(invalid="ignore"):  # both infinities on a stride or in a level: NaN
            _stride_accumulate(np.add, Q[None, 1:], p)
            for cs in self.chunks(L):
                for row in np.take(Q, 1 + levels - self.e[cs, None], mode="clip"):
                    self.P += row

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
                F_e12=F_e12, g=g, F_e0=self.F_e0[:mk], p=self.p[:mk], rho=self.rho[:mk],
                v_surf=float(self._top_velocity(int(self.step[k]) - self.first)),
                metrics={name: float(col[k]) for name, col in self.metrics.items()})
        return rec

    def _ages_from(self, cells):
        """Where age 0 of ``cells``' entry states lies in ``source``."""
        return np.where(cells < self.m0, 1, self.source.shape[1] - self.L)

    def index(self, k, cells=None) -> np.ndarray:
        """The entries of ``source`` that level ``k``'s cells (or ``cells``) read."""
        cells = slice(int(self.m[k])) if cells is None else cells
        return self.step[k] - self.first + self.col[cells]

    @property
    def v_surf(self) -> np.ndarray:
        """Each level's top-face velocity, a fresh array."""
        return self._top_velocity(self.step - self.first)

    def _top_velocity(self, at):
        """``dx (P + m0 g)``, ``g`` the body's rate, at the run's levels ``at``."""
        with np.errstate(invalid="ignore"):  # both infinities in a level: NaN
            return self.dx * (self.P[at] + self.m0 * self.body[1, at])

    def table(self, state: int) -> np.ndarray:
        """Entry state ``state``'s ``F_e12`` and ``g`` at the ages ``0 .. L - 1``, a view."""
        return self.source.reshape(2, -1, self.L + 1)[:, state, 1:]

    def at_ages(self, row: int, state: int, ages: np.ndarray) -> np.ndarray:
        """``F_e12`` (``row=0``) or ``g`` of ``table(state)`` at ``ages`` up to ``L
        - 1``, zeros at the negative ones.  One row is contiguous, so the
        gather reads it without a copy."""
        return np.take(self.source.reshape(2, -1, self.L + 1)[row, state], 1 + ages,
                       mode="clip")

    def age_rows(self, values=None) -> list[tuple[int, np.ndarray]]:
        """Per entry state that the last level holds, its first cell and its
        ``F_e12`` and ``g`` (or ``values``, laid out like a row of the tables
        as ``shear_since_entry``'s) at the ages ``0`` to that cell's there,
        as views."""
        values = self.source if values is None else values
        return [(j, values[..., int(self._ages_from(j)):int(self.index(-1, j)) + 1])
                for j in sorted({0, self.m0}) if j < self.m[-1]]

    def shear_since_entry(self) -> np.ndarray:
        """Each cell's shear ``F12`` of ``F = I + F12 e1 (x) e2`` since it
        entered, laid out like a row of the tables (``columns`` and
        ``age_rows`` read it): per state, the running sum from 0 of ``dt g``
        over the ages before each one, in the order a march of ``F12 + dt g``
        sums it."""
        F12 = np.zeros_like(self.source[1]).reshape(-1, self.L + 1)
        np.multiply(self.dt, self.source[1].reshape(F12.shape)[:, 1:-1], out=F12[:, 2:])
        return np.cumsum(F12, axis=1, out=F12).reshape(-1)

    def columns(self, k, rows=slice(None), cells=None, values=None) -> np.ndarray:
        """Level ``k``'s ``F_e12`` and ``g`` as the rows of a fresh ``(2, m)``
        array, gathered through the map; ``rows=0`` or ``1`` gathers one, and
        ``values`` (laid out like a row of the tables) is gathered in their
        place.  With ``cells``, those cells', and ``k`` may then be a slice of
        levels, one cell each.  The map is in range, so ``"clip"`` skips a
        check."""
        values = self.source[rows] if values is None else values
        return np.take(values, self.index(k, cells), axis=-1, mode="clip")

    def chunks(self, width: int, stop: int | None = None) -> list[slice]:
        """Slices of the classes below ``stop``, ``CLASS_CELLS`` entries each."""
        step = max(1, self.CLASS_CELLS // max(1, width))
        stop = len(self.e) - 1 if stop is None else stop
        return [slice(c0, min(stop, c0 + step)) for c0 in range(0, stop, step)]

    def rows(self, cols, stop: int | None = None):
        """Per chunk ``cs`` of the classes below ``stop``, yield ``(cs, ages,
        below, Z)``, a row per class ``c`` at the levels ``rho`` in ``cols`` (an
        array, or a slice of the levels, whose ``P`` is read as a view);
        ``ages`` are cell ``m0 + c``'s and then the cell above's (``at_ages``
        reads their ``F12`` and ``g``).  ``Z[c] = P - sum_{c' <= c} g(rho -
        e[c'])``, so the face above cell ``m0 + c + u q`` at level ``rho + u
        p`` moves at ``dx (Y - Z)``, ``Y`` that level's ``P`` plus the body's
        rates; ``below[c] = Z[c - 1]``.  Class sums run class by class in one
        buffer a chunk, which the consumer may overwrite."""
        P = self.P[cols]
        if isinstance(cols, slice):
            cols = np.arange(self.L)[cols]
        C = np.zeros(len(cols))
        for cs in self.chunks(len(cols), stop):
            ages = cols - self.e[cs.start:cs.stop + 1, None]
            sums = np.empty(ages.shape)
            sums[0], sums[1:] = C, self.at_ages(1, -1, ages[:-1])
            np.add.accumulate(sums, axis=0, out=sums)
            C = sums[-1].copy()
            np.subtract(P, sums, out=sums)
            yield cs, ages, sums[:-1], sums[1:]

    def deposit_maximum(self, of, out: np.ndarray) -> np.ndarray:
        """Fold into each row of ``out`` (a column per level ``0, 1, ...``) the
        maximum over the level's deposited cells of a function of their age:
        ``of(F12, g, values)`` writes one row per row of ``out`` into
        ``values`` from the deposit's ``F_e12`` and ``g`` by age.  Their
        running maximum along the period, -inf in one slot for the ages below
        0, gathered at a class's ages is the class's maximum at a level."""
        by_age = np.full((len(out), self.L + 1), -np.inf)
        _stride_accumulate(np.maximum, of(*self.table(-1), by_age[:, 1:]), self.period)
        cols = np.arange(out.shape[1])
        for cs in self.chunks(len(cols)):
            at = 1 + cols - self.e[cs, None]
            for row, by_age_row in zip(out, by_age):
                np.maximum(row, np.take(by_age_row, at, mode="clip").max(axis=0), out=row)
        return out

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
        """Bytes of the arrays the history holds, each once and by the memory
        it spans: the layout (the sources of ``F_e12`` and ``g`` and the map
        ``col``), the shared ``F_e0``, ``p`` and ``rho`` (the run's is one
        broadcast value), ``P``, the level columns and the metric columns
        (``t`` and ``H`` among them)."""
        arrays = {(a.__array_interface__["data"][0], a.shape, a.strides): a for a in (
            self.source, self.col, self.F_e0, self.p, self.rho, self.P,
            *(getattr(self, name) for name in self.LEVEL_COLUMNS), *self.metrics.values())}
        return sum(a.itemsize + sum((k - 1) * abs(s) for k, s in zip(a.shape, a.strides))
                   for a in arrays.values())


def _stride_accumulate(ufunc, values: np.ndarray, p: int) -> np.ndarray:
    """``ufunc.accumulate`` with stride ``p`` along each row of ``values``
    (each row contiguous), in place: entry ``r`` takes in ``r - p``'s."""
    full = values.shape[1] // p * p
    if full:
        view = values[:, :full].reshape(len(values), -1, p)
        ufunc.accumulate(view, axis=1, out=view)
        ufunc(values[:, full:], values[:, full - p:-p], out=values[:, full:])
    return values


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
