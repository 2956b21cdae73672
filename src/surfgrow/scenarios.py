"""End-to-end growth scenarios, their oracles, and convergence studies.

The three kinds (``non_normal``, ``fdm_shear``, ``thermal``) and the march
they share, ``_run_1d`` (the schedule known up front, ``F_e12`` and ``g``
from age tables, and the residual checks, metrics and oracle read from them
by entry class), are described in the README's Scenarios section.
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .balance import (advance_domain, boundary_normal_velocity, growth_traction,
                      normal_pressure, require_reduced)
from .constitutive import (AttachmentSpec, MaterialParams, attach_elastic_deformation,
                           check_scalar_fields)
from .errors import (IncompatibleAnsatz, OutOfBody, OutOfDomain, SingularSystem,
                     SingularTensor, SurfgrowError, ValidationError)
from .grids import Grid1D, History, StepRecord, interp_prefix
from .kinematics import HistoryPathline
from .tensors import EPS_DET, identity, require_finite

KINDS = ("non_normal", "fdm_shear", "thermal")

# Residual levels beyond which the through-thickness reduction is deemed
# inconsistent rather than merely inaccurate.
ANSATZ_RESIDUAL_LIMIT = 1e-6
# Entries of the class rows formed at once (``_Classes.chunks``): a chunk
# takes classes while their count times the rows' length stays within it.
CLASS_CELLS = 2 ** 14
# The activation slack in ulps of the final height (``_run_1d``): a cell
# whose center ties with a level's front in exact arithmetic is active.
FRONT_ULPS = 8
# The largest (n_steps + 1) * n_cells a configuration may ask for: it bounds
# the schedule (a few floats a step) and the cell-levels a run's checks
# read, so a step count that cannot be marched is refused before anything
# is allocated.
MAX_CELL_STEPS = 2 ** 28
# The metric columns of a run, in the order of a metrics.jsonl header.
METRIC_FIELDS = ("t", "H", "mass_residual", "momentum_residual",
                 "traction_residual", "system_residual", "det_drift", "max_p_dev")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one scenario run.

    ``alpha`` is the attachment shear for ``non_normal`` and the
    contraction ratio for ``thermal``.  ``h``, ``v0``, ``L`` define the
    deposition rate of ``fdm_shear`` (mass rate ``rho h v0 / L``).  Units
    are whatever consistent system the caller adopts; the defaults form
    the canonical nondimensional setup G = rho = V_G = 1.
    """

    kind: str
    params: MaterialParams = field(default_factory=MaterialParams)
    alpha: float = 0.5
    H0: float | None = None
    V_G: float = 1.0
    h: float = 0.1
    v0: float = 1.0
    L: float = 1.0
    n_cells: int = 200
    dt: float | None = None
    t_end: float = 1.0
    n_snapshots: int = 11

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        check_scalar_fields(self)
        if not self.t_end > 0:
            raise ValidationError(f"t_end must be positive, got {self.t_end}")
        if self.n_cells < 16:
            raise ValidationError(f"n_cells must be >= 16, got {self.n_cells}")
        if self.dt is not None and not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if not self.params.mu > 0:
            raise ValidationError(f"mu must be positive, got {self.params.mu}")
        if self.kind == "fdm_shear":
            if not self.height0 > 0:
                raise ValidationError("H0 must be positive for fdm_shear")
            if not self.h > 0:
                raise ValidationError(f"h must be positive for fdm_shear, got {self.h}")
            if not self.L > 0:
                raise ValidationError(f"L must be positive for fdm_shear, got {self.L}")
            if not self.v0 >= 0:
                # a negative feed would ablate the body, which is not supported
                raise ValidationError(f"v0 must be nonnegative for fdm_shear, got {self.v0}")
        if self.kind != "fdm_shear" and not self.V_G > 0:
            raise ValidationError(f"V_G must be positive, got {self.V_G}")
        if self.kind == "thermal":
            if not self.alpha > 0:
                raise ValidationError(f"alpha must be positive for thermal, got {self.alpha}")
            F22 = 1.0 / self.alpha  # the deposit's, at the pressure G F22^2
            if not math.isfinite(self.params.G * (F22 * F22)):
                raise ValidationError(f"alpha = {self.alpha:g} is too small for thermal: "
                                      f"G alpha^-2 overflows")
        if self.kind == "non_normal" and not math.isfinite(
                self.params.G * (1.0 + self.alpha * self.alpha)):
            # the entry stress sigma11 + p, which the gate would read as NaN
            raise ValidationError(f"alpha = {self.alpha:g} and G = {self.params.G:g} are too "
                                  f"large for non_normal: G (1 + alpha^2) overflows")
        if self.height0 < 0:
            raise ValidationError(f"H0 must be nonnegative, got {self.H0}")
        if self.n_snapshots < 1:
            raise ValidationError("n_snapshots must be >= 1")
        if self.kind == "non_normal" and self.height0 > 0:
            raise ValidationError("H0 must be 0 for non_normal: its closed-form "
                                  "oracle assumes a body grown from nothing")
        dt, n_steps = self.resolve_dt()
        if dt > self.relaxation_bound:
            raise ValidationError(
                f"dt = {dt:g} exceeds the explicit relaxation bound "
                f"mu / G = {self.relaxation_bound:g}")
        if (n_steps + 1) * self.n_cells > MAX_CELL_STEPS:
            raise ValidationError(
                f"n_steps = {n_steps:.3g} (dt = {dt:g}) on n_cells = {self.n_cells} "
                f"exceeds the budget (n_steps + 1) n_cells <= {MAX_CELL_STEPS}")

    @property
    def height0(self) -> float:
        if self.H0 is not None:
            return self.H0
        return {"non_normal": 0.0, "fdm_shear": 1.0, "thermal": 0.5}[self.kind]

    @property
    def relaxation_bound(self) -> float:
        """Largest step ``mu / G`` whose explicit relaxation factor ``1 - G dt
        F_e22^2 / mu`` on a nonzero F_e12 is nonnegative: ``F_e22 = 1`` but in
        ``thermal``'s deposit, which keeps ``F_e12 = 0``."""
        return self.params.mu / self.params.G

    @property
    def mass_rate(self) -> float:
        if self.kind == "fdm_shear":
            return self.params.rho * self.h * self.v0 / self.L
        return self.params.rho * self.V_G

    @property
    def boundary_rate(self) -> float:
        """Normal boundary speed V_b . n = v . n + M / rho (v . n = 0 here)."""
        return boundary_normal_velocity(self.mass_rate, self.params.rho,
                                        np.zeros(2), np.array([0.0, 1.0]))

    @property
    def attachment_traction(self) -> float:
        """The shear traction ``tau1`` that arriving material sets on a body
        at rest: ``growth_traction``'s ``M (v_a - 0)`` with no ambient
        traction, ``M v0`` for ``fdm_shear`` and 0 for the kinds that attach
        at the body's velocity.  It is the one traction the age tables are
        marched under (``shear_by_age``)."""
        if self.kind != "fdm_shear":
            return 0.0
        return float(growth_traction(self.mass_rate, np.array([self.v0, 0.0]),
                                     np.zeros(2), np.zeros(2))[0])

    def attachment_deformation(self) -> np.ndarray:
        if self.kind == "non_normal":
            return np.array([[1.0, -self.alpha], [0.0, 1.0]])
        if self.kind == "thermal":
            return np.eye(2) / self.alpha
        F_att, _ = attach_elastic_deformation(
            AttachmentSpec.from_traction((self.attachment_traction, 0.0), self.params),
            self.params)
        return F_att

    def initial_deformation(self) -> np.ndarray:
        """The entry state of the initial body: at rest, or for fdm_shear the
        attachment state, the shear consistent with the momentum flux of
        arriving material at ``t = 0+``."""
        if self.kind == "fdm_shear":
            return self.attachment_deformation()
        return np.eye(2)

    def eulerian_grid(self) -> Grid1D:
        """The run's fixed grid: ``n_cells`` cells filling the final body
        ``[0, H(t_end)]``, with ``H(t_end)`` as the march computes it."""
        dt, n_steps = self.resolve_dt()
        return Grid1D(self.n_cells, advance_domain(self.height0, self.boundary_rate,
                                                   dt, n_steps=n_steps))

    def resolve_dt(self) -> tuple[float, int]:
        """Step size and count; dt is snapped so the steps tile [0, t_end]."""
        if self.dt is not None:
            base = self.dt
        else:
            # half the relaxation bound keeps the per-step factor in [1/2, 1]
            base = min(self.t_end / (4.0 * self.n_cells),
                       0.5 * self.relaxation_bound)
        if not (base > 0 and math.isfinite(self.t_end / base)):
            raise ValidationError(f"t_end / dt = {self.t_end:g} / {base:g} is not a "
                                  f"finite step count")
        n_steps = max(1, int(math.ceil(self.t_end / base - 1e-12)))
        return self.t_end / n_steps, n_steps


@dataclass
class ConvergenceRow:
    n_cells: int
    dt: float
    linf: float
    l2: float
    order: float | None


@dataclass
class RunResult:
    """Full-resolution history of one run plus derived diagnostics.

    ``history`` holds every stored level as columns (``grids.History``).
    ``oracle_errors`` maps each oracle error to its per-level column.
    ``timings`` holds wall times in seconds, ``march_s`` (the age tables,
    entry classes and top velocities) and ``check_s``, the sum of ``solve_s``
    (the face velocities' extremes and the solve's residuals), ``metrics_s``
    (jump residuals and the gate) and ``oracle_s``, and counts the stored
    ``levels``, the entry ``classes`` and their ``period`` in levels, both
    read from the configuration (``_entry_classes``), and the
    ``cell_levels``.
    """

    config: ScenarioConfig
    history: History
    oracle_errors: dict[str, np.ndarray] = field(default_factory=dict)
    pathlines: list[HistoryPathline] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @cached_property
    def classes(self) -> _Classes:  # the run's entry classes
        return _entry_classes(self.history, self.config.boundary_rate * self.history.dt)

    @property
    def final(self) -> StepRecord:
        return self.history[-1]

    def max_metric(self, name: str) -> float:
        """The largest value of a metric over the stored levels; NaN if any
        level's value is NaN."""
        return float(np.max(self.history.metrics[name]))

    def probe(self, x2: float) -> dict:
        """Interpolated final field values at one finite height (clamped to
        the body)."""
        _require_finite_height(x2, "x2")
        history = self.history
        level, xq = _final_level(history, x2)
        return {"F_e": level_F_e(history, level, xq)[0],
                "p": float(level_interp(history, level, xq, history.p)[0]),
                "v1": float(level_v1(history, level, xq, self.classes)[0])}


def _require_finite_height(x2: float, name: str) -> None:
    if not math.isfinite(x2):
        raise ValidationError(f"{name} must be a finite height, got {x2}")


def _final_level(history: History, x2: float) -> tuple[np.ndarray, np.ndarray]:
    """The last stored level and the height ``x2`` clamped to its body, as
    one-entry arrays."""
    return np.array([len(history) - 1]), np.array([min(max(x2, 0.0), float(history.H[-1]))])


def analytic_non_normal(x2, t, alpha: float, G: float, mu: float, V_G: float):
    """Closed-form (v1, F_e12, p) for the sheared-attachment scenario.

    Valid for ``0 <= x2 <= V_G t``; above the growth front raises
    ``OutOfBody``.  Requires ``mu > 0``; the inviscid limit is reached as
    ``mu -> 0`` with fields relaxing immediately after attachment.  ``x2``
    and ``t`` broadcast against each other, so one call scores a stack of
    levels; a scalar ``x2`` and ``t`` return floats.
    """
    if not mu > 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    x2a = np.asarray(x2, dtype=float)
    _require_in_body(x2a, t, V_G)
    lam = G / mu
    arg = np.asarray(-lam * (t - x2a / V_G))
    # exp(-lam age) is +0.0 below -746, which numpy returns too, but off its
    # vector path, an order of magnitude slower
    keep = arg > -746.0
    decay = np.exp(arg, out=np.zeros(arg.shape), where=keep)
    v1 = (decay - np.exp(-lam * t)) * (V_G * alpha)
    F_e12 = -alpha * decay
    if np.ndim(v1) == 0:
        return float(v1), float(F_e12), float(G)
    return v1, F_e12, np.full_like(v1, float(G))


def _require_in_body(x2: np.ndarray, t, V_G: float) -> None:
    # the front V_G t with its slack, formed in one buffer
    bound = np.multiply(V_G, t, out=np.empty(np.shape(t)))
    bound *= 1 + 1e-12
    bound += 1e-15
    if np.any(x2 < -1e-12) or np.any(x2 > bound):
        raise OutOfBody(f"x2 outside [0, V_G t] = [0, {np.max(V_G * np.asarray(t)):g}]")


def _stride_accumulate(ufunc, values: np.ndarray, p: int) -> np.ndarray:
    """``ufunc.accumulate`` with stride ``p`` along each row of ``values``
    (each row contiguous), in place: entry ``r`` takes in ``r - p``'s."""
    full = values.shape[1] // p * p
    if full:
        view = values[:, :full].reshape(len(values), -1, p)
        ufunc.accumulate(view, axis=1, out=view)
        ufunc(values[:, full:], values[:, full - p:-p], out=values[:, full:])
    return values


def _level_extreme(ufunc, values: np.ndarray, active: np.ndarray, p: int) -> np.ndarray:
    """The ``ufunc`` extreme of ``values`` (a row per class) over each level's
    cells, the entries ``rho, rho - p, ...`` where ``active``; or infinite.
    ``values`` is overwritten."""
    np.copyto(values, -np.inf if ufunc is np.maximum else np.inf, where=~active)
    return ufunc.reduce(_stride_accumulate(ufunc, values, p))


@dataclass(eq=False, repr=False)
class _Classes:
    """A run's cells by entry class (``_entry_classes``): the ``m0`` cells
    of the initial body hold age ``i`` at level ``i``, and accreted cell ``m0
    + c + u q`` enters at level ``e[c] + u p`` (``e[q] = e[0] + p``), so at
    ``rho + u p`` it holds what cell ``m0 + c`` holds at ``rho``.  The run's
    ``history`` holds the accreted state's ``F12`` and ``g`` by age
    (``at_ages``); ``body`` is the initial body's (zeros without one)."""

    e: np.ndarray
    p: int
    history: History
    body: np.ndarray

    def chunks(self, width: int, stop: int | None = None) -> list[slice]:
        """Slices of the classes below ``stop``, ``CLASS_CELLS`` entries each."""
        step = max(1, CLASS_CELLS // max(1, width))
        stop = len(self.e) - 1 if stop is None else stop
        return [slice(c0, min(stop, c0 + step)) for c0 in range(0, stop, step)]

    def stride_sums(self) -> np.ndarray:
        """``Q``, the accreted ``g`` by age summed along each stride, after a 0 for ages < 0."""
        Q = np.concatenate([[0.0], self.history.table(-1)[1]])
        with np.errstate(invalid="ignore"):  # both infinities on a stride: NaN
            _stride_accumulate(np.add, Q[None, 1:], self.p)
        return Q

    def level_sums(self, Q: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``P = sum_c Q(cols - e[c])``: ``g`` over each level's accreted cells."""
        P = np.zeros(len(cols))
        for cs in self.chunks(len(cols)):
            for row in np.take(Q, 1 + cols - self.e[cs, None], mode="clip"):
                P = P + row
        return P

    def rows(self, cols: np.ndarray, P: np.ndarray, stop: int | None = None):
        """Per chunk ``cs`` of the classes below ``stop``, yield ``(cs, ages,
        below, Z)``, a row per class ``c`` at the levels ``rho`` in ``cols``
        (``P`` there); ``ages`` are cell ``m0 + c``'s and then the cell
        above's (``History.at_ages`` reads their ``F12`` and ``g``).  ``Z[c] =
        P - sum_{c' <= c} g(rho - e[c'])``, so the face above cell ``m0 + c + u
        q`` at level ``rho + u p`` moves at ``dx (Y - Z)``, ``Y`` that level's
        ``P`` plus the body's rates; ``below[c] = Z[c - 1]``.  Class sums run
        class by class in one buffer a chunk, which the consumer may overwrite."""
        C = np.zeros(len(cols))
        for cs in self.chunks(len(cols), stop):
            ages = cols - self.e[cs.start:cs.stop + 1, None]
            sums = np.empty(ages.shape)
            sums[0], sums[1:] = C, self.history.at_ages(1, -1, ages[:-1])
            np.add.accumulate(sums, axis=0, out=sums)
            C = sums[-1].copy()
            np.subtract(P, sums, out=sums)
            yield cs, ages, sums[:-1], sums[1:]


def _entry_classes(history: History, advance: float) -> _Classes:
    """The entry classes of a run's accreted cells (``History.entry``), read
    from the configuration: ``q`` the least count with ``|q dx - p advance|
    <= 16 eps q dx``, ``p = rint(q dx / advance)`` the levels it spans,
    ``advance`` the front's per level.  The entries confirm the pair: cell
    ``j + q`` enters ``p`` levels after cell ``j``, and the cell above a
    class's last enters after the last level.  Failing that, or when the
    front never passes the top center (no feed: no ratio is formed), each
    cell is a class (``p = L``)."""
    L, m0, dx = history.L, history.m0, history.dx
    a = history.entry[m0:]  # the accreted cells'
    q, p = len(a), L
    # the top cell entered after step 0, so the front rose about dx / 2 or
    # more: dx / advance is at most about 2 n_steps
    if history.first + a[-1] > 0:
        width = np.arange(1, len(a) + 1) * dx  # q dx for q = 1, 2, ...
        spans = np.rint(width / advance)
        fits = np.flatnonzero(np.abs(width - spans * advance) <= 16 * np.finfo(float).eps * width)
        if len(fits):
            k, span = int(fits[0]) + 1, int(spans[fits[0]])
            if np.all(a[k:] - a[:-k] == span) and np.all(a[-k:] >= L - span):
                q, p = k, span
    return _Classes(e=np.append(a[:q], a[0] + p), p=p, history=history,
                    body=history.table(0) if m0 else np.broadcast_to(0.0, (2, L)))


def _solve_checks(classes: _Classes, P: np.ndarray, scale: float):
    """Per level ``i < len(P)``, the face velocities' extremes ``(lo, hi)`` and
    the largest interior row ``(g' - g) dx + (S' - S) scale``, ``S = F12 F22``."""
    history, p, W = classes.history, classes.p, len(P)
    dx, m0, (F22_0, F22) = history.dx, history.m0, history.F_e0[[0, -1], 1, 1]
    F12_0, g_0 = classes.body[:, :W]
    Y = P + m0 * g_0
    v_body = m0 * (dx * g_0)  # the faces in the body lie on a line from 0
    hi, interior = np.maximum(0.0, v_body), np.zeros(W)
    lo = np.minimum(0.0, v_body, out=v_body)
    for _, ages, _, Z in classes.rows(np.arange(W), P):
        active = ages[:-1] >= 0
        # the faces above move at dx (Y - Z): each level's highest from Z's
        # least, its lowest from Z's most
        face = _level_extreme(np.minimum, Z.copy(), active, p)
        np.maximum(hi, np.multiply(dx, np.subtract(Y, face, out=face), out=face), out=hi)
        face = _level_extreme(np.maximum, Z, active, p)
        np.minimum(lo, np.multiply(dx, np.subtract(Y, face, out=face), out=face), out=lo)
        del face
        # the rows (g' - g) dx + (F12' - F12) F22 scale, formed in g's buffer
        F12, g = history.at_ages(0, -1, ages), history.at_ages(1, -1, ages)
        rows, shear = np.subtract(g[1:], g[:-1], out=g[1:]), F12[1:]
        rows *= dx
        np.subtract(shear, F12[:-1], out=shear)
        shear *= F22 * scale
        rows += shear
        np.maximum(interior, _level_extreme(np.maximum, np.abs(rows, out=rows),
                                            ages[1:] >= 0, p), out=interior)
    if m0:  # the row between the body's top cell and the cell above
        age = np.arange(W) - classes.e[0]
        F12, row = history.at_ages(0, -1, age), history.at_ages(1, -1, age)
        row -= g_0
        row *= dx
        F12 *= F22
        F12 -= F12_0 * F22_0
        F12 *= scale
        row += F12
        np.copyto(np.abs(row, out=row), 0.0, where=age < 0)
        np.maximum(interior, row, out=interior)
    return lo, hi, interior


def _score_non_normal(config: ScenarioConfig, history: History, classes: _Classes,
                      P: np.ndarray, v_abs: np.ndarray) -> dict[str, np.ndarray]:
    """Oracle errors of the levels ``i < len(P)`` against the closed form
    ``analytic_non_normal``, which at level ``rho + u p`` holds for cell ``c
    + u q`` what it holds for cell ``c`` at ``rho``; a cell's ``v1`` error
    is ``A - w``, ``A`` its level's part (no initial body: ``m0 = 0``)."""
    lam, V_G, alpha = config.params.G / config.params.mu, config.V_G, config.alpha
    W = len(P)
    t, m = history.t[:W], history.m[:W]
    # the centers ascend, so each level's top cell is its highest
    _require_in_body(history.centers[m - 1], t, V_G)
    entry = history.centers[history.m0:] / V_G
    A = history.dx * P + np.exp(-lam * t) * (V_G * alpha)
    linf, squares, v1 = np.zeros(W), np.zeros(W), np.zeros(W)
    for cs, ages, below, Z in classes.rows(np.arange(W), P):
        active = ages[:-1] >= 0
        # arg = -lam (t - entry); alpha decay, the squares and w reuse its buffer
        work = np.subtract(t, entry[cs, None])
        work *= -lam
        # +0.0 below -746, as numpy gives it off its vector path
        decay = np.exp(work, out=np.zeros(work.shape), where=active & (work > -746.0))
        ef = classes.history.at_ages(0, -1, ages[:-1])  # F12, then F12 + alpha decay
        ef += np.multiply(alpha, decay, out=work)
        for row in _stride_accumulate(np.add, np.multiply(ef, ef, out=work), classes.p):
            squares += row
        np.maximum(linf, _level_extreme(np.maximum, np.abs(ef, out=ef), active, classes.p),
                   out=linf)
        # v1 at a cell's center is the mean of its faces' dx (Y - Z)
        w = np.add(below, Z, out=work)
        w *= 0.5 * history.dx
        decay *= V_G * alpha
        w += decay
        np.copyto(ef, w)
        high = _level_extreme(np.maximum, ef, active, classes.p)
        high -= A
        low = np.subtract(A, _level_extreme(np.minimum, w, active, classes.p))
        np.maximum(v1, np.maximum(high, low, out=high), out=v1)
    return {"linf_F_e12": linf, "rms_F_e12": np.sqrt(squares / m), "linf_v1": v1}


def _score_steady(config: ScenarioConfig, history: History, classes: _Classes,
                  P: np.ndarray, v_abs: np.ndarray) -> dict[str, np.ndarray]:
    """Oracle errors of the levels ``i < len(P)`` against the exact rest
    under the attachment traction ``tau1`` (``ScenarioConfig.
    attachment_traction``): ``F_e12 = tau1 / G``, ``sigma12 = tau1``,
    ``sigma11 = tau1^2 / G``."""
    G, tau1, W = config.params.G, config.attachment_traction, len(P)

    def errors(F12, g, cell, out):
        sigma11, sigma12, _ = _stress(history, config.params, cell, F12, g)
        for row, value, exact in zip(out, (F12, sigma12, sigma11),
                                     (tau1 / G, tau1, tau1 ** 2 / G)):
            np.abs(np.subtract(value, exact, out=row), out=row)
        return out

    worst = np.zeros((3, W))
    if history.m0:
        errors(*classes.body[:, :W], 0, worst)
    # an accreted cell's errors depend on its age alone: their running
    # maximum along the stride p by age, -inf in one slot for the ages below
    # 0, gathered at each class's ages is the class's maximum at a level
    by_age = np.full((3, history.L + 1), -np.inf)
    _stride_accumulate(np.maximum, errors(*history.table(-1), -1, by_age[:, 1:]), classes.p)
    cols = np.arange(W)
    for cs in classes.chunks(W):
        at = 1 + cols - classes.e[cs, None]
        for row, by_age_row in zip(worst, by_age):
            np.maximum(row, np.take(by_age_row, at, mode="clip").max(axis=0), out=row)
    return {"linf_F_e12": worst[0], "linf_v1": v_abs, "linf_sigma12": worst[1],
            "linf_sigma11": worst[2]}


def _stress(history: History, params: MaterialParams, cell, F12, g):
    """``(sigma11, sigma12, sigma22)`` of the run's cells ``cell`` at the
    shear ``F12`` and shear rate ``g``: ``total_stress``'s operations with
    ``F_e21 = 0`` on the cells' ``F_e0`` and ``p``."""
    G, mu = params.G, params.mu
    F11, F22, p = history.F_e0[cell, 0, 0], history.F_e0[cell, 1, 1], history.p[cell]
    return (G * (F11 * F11 + F12 * F12) - p, G * (F12 * F22) + 2.0 * mu * (0.5 * g),
            G * (F22 * F22) - p)


def shear_by_age(F12: float, F22: float, tau1: float, params: MaterialParams,
                 dt: float, ages: int) -> tuple[np.ndarray, np.ndarray]:
    """A cell's shear ``F_e12`` and shear rate ``g`` at the ages ``0 ..
    ages - 1`` (steps since it entered with the shear ``F12``) under the
    constant top traction ``tau1``, as two float64 rows: the operations of
    the transport step ``F12 + dt (g F22)`` and of the solve's first
    integral ``g = (tau1 - G S12) / mu``, on floats and then on the row, in
    their order, so each entry is bitwise what a per-cell march gives it."""
    G, mu = float(params.G), float(params.mu)
    shears = []
    for _ in range(ages):
        shears.append(F12)
        F12 = F12 + dt * (((tau1 - (F12 * F22) * G) / mu) * F22)
    shears = np.array(shears, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as on floats
        return shears, (tau1 - (shears * F22) * G) / mu


@contextmanager
def _at_step(k: int, dt: float):
    """Raise a ``SurfgrowError`` of the block again as its own type, its
    message led by the step ``k`` and its time."""
    try:
        yield
    except SurfgrowError as exc:
        raise type(exc)(f"step {k}, t = {k * dt:.6g}: {exc}") from exc


def _check_levels(config: ScenarioConfig, history: History, classes: _Classes,
                  P: np.ndarray, phases: dict) -> np.ndarray:
    """Check a marched run by entry class: the face velocities' extremes and
    the solve's residuals, then the top cells' jump residuals, each filled
    into its metric column in place, and their times as ``solve_s`` and
    ``metrics_s`` in ``phases``.  A non-finite shear or shear rate reaches
    the top face, so the first level whose ``v_surf`` is not finite has
    failed; the levels before it are checked, so an error names the
    earliest offending step.  Returns ``v_abs``, each checked level's
    largest face speed."""
    start = time.perf_counter()
    params, metrics, dx, M = config.params, history.metrics, history.dx, config.mass_rate
    G, mu = params.G, params.mu
    failed = np.flatnonzero(~np.isfinite(history.v_surf))
    W = int(failed[0]) if len(failed) else len(history)
    lo, hi, interior = _solve_checks(classes, P[:W], (G / mu) * dx)
    v_abs = np.maximum(np.abs(hi, out=hi), np.abs(lo, out=lo), out=hi)  # 0.0, never -0.0
    top, v = history.m[:W] - 1, history.v_surf[:W]
    # fdm_shear's material arrives at v0; the other kinds' at the body's
    # velocity, which sets no traction
    v_a = config.v0 if config.kind == "fdm_shear" else v
    level_tau1 = growth_traction(M, v_a, v, 0.0)
    F12, g = history.source[:, history.index(slice(0, W), top)]  # the top cells'
    S12 = F12 * history.F_e0[top, 1, 1]
    # each level is checked against the traction of its own top velocity
    # v: for fdm_shear its top row reads dx M |v| / mu
    system = metrics["system_residual"][:W]
    np.abs(dx * g - (dx / mu) * (level_tau1 - G * S12), out=system)
    np.maximum(interior, system, out=system)
    system /= np.maximum(1.0, v_abs)
    # the top cell's stress, from the rate the march stored, against the
    # applied traction; its sigma22 is normal_pressure's balance, 0.  An
    # overflow reaches the gate as inf or NaN, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sigma11, sigma12, sigma22 = _stress(history, params, top, F12, g)
        traction = metrics["traction_residual"][:W]
        np.maximum(np.abs(G * S12 + mu * g - level_tau1), np.abs(sigma22), out=traction)
        solved = time.perf_counter()
        # the top cells' jump residuals, in jump_residuals' operations less
        # finite values times zero (n = e2); a stress entry times n1 = 0
        # turns an overflow into NaN
        rho = history.rho[top]
        flux = rho * (M / rho)  # rho (V_b - v) . n; none on the ambient side
        np.abs(flux - M, out=metrics["mass_residual"][:W])
        momentum = metrics["momentum_residual"][:W]
        np.maximum(np.abs((flux * v + (sigma11 * 0.0 + sigma12)) - M * v_a),
                   np.abs(sigma12 * 0.0 + sigma22), out=momentum)
    # the jump and traction residuals read M |v_surf|, the system dx / mu; a
    # NaN residual is over the limit
    worst = np.maximum(np.maximum(system, momentum), traction)
    bad = np.flatnonzero(~(worst <= ANSATZ_RESIDUAL_LIMIT))
    if len(bad):
        j = int(bad[0])
        # the first of the level's residuals over the limit names it
        name, value = next(
            (name, values[j]) for name, values in (
                ("reduced solve", system), ("momentum jump", momentum), ("traction", traction))
            if not values[j] <= ANSATZ_RESIDUAL_LIMIT)
        with _at_step(int(history.step[j]), history.dt):
            raise IncompatibleAnsatz(f"{name} residual {value:.3e}; "
                                     f"the through-thickness ansatz is inconsistent")
    if W < len(history):
        with _at_step(int(history.step[W]), history.dt):
            require_finite(history.columns(W, 0), "F_e12")
            raise SingularSystem("momentum solve produced non-finite values")
    phases.update(solve_s=solved - start, metrics_s=time.perf_counter() - solved)
    return v_abs


def _run_1d(config: ScenarioConfig, oracle) -> RunResult:
    """March a scenario, check it (``_check_levels``) and score it;
    ``oracle(config, history, classes, P, v_abs)`` gives the oracle errors
    of the levels ``P`` covers.  The checks' arrays are freed before the
    oracle runs, so a run holds its result and one pass at a time."""
    params = config.params
    dt, n_steps = config.resolve_dt()
    tau1 = config.attachment_traction
    grid = config.eulerian_grid()
    n, dx = grid.n_cells, grid.dx

    # The schedule.  Step k solves at t = k dt on the active cells and
    # advances to (k + 1) dt; the closing solve at t_end is step n_steps.
    # Cell j is active at step k iff center_j <= H(t_k) + tau, tau
    # FRONT_ULPS ulps of the final height, so a front that ties with a
    # center in exact arithmetic reaches it whichever way both round.
    # Levels with no active cell are not stored: level i is step first + i
    # and holds the first m[i] cells.
    H = np.empty(n_steps + 1)
    H[0] = config.height0
    H[1:] = advance_domain(config.height0, config.boundary_rate, dt,
                           np.arange(1, n_steps + 1))
    m = np.searchsorted(grid.centers, H + FRONT_ULPS * np.spacing(grid.height), side="right")
    first = int(np.searchsorted(m, 1))
    m0, H, m = int(m[0]), H[first:], m[first:]
    levels = len(m)

    # Per-cell constants, read-only, of which every level holds a prefix.
    # Only F_e12 evolves: F_e0 is each cell's F_e when it entered the run,
    # the initial body's for the m0 cells active at t = 0 and the
    # attachment value for every later cell.  The pressure depends on F_e22
    # alone (no ambient traction), and rho is one value (v2 = 0).
    entries = [(F, cells) for F, cells in ((config.initial_deformation(), m0),
                                           (config.attachment_deformation(), n - m0)) if cells]
    F_e0 = np.concatenate([np.broadcast_to(F, (cells, 2, 2)) for F, cells in entries])
    p = normal_pressure(F_e0, params.G, 0.0)
    rho = np.broadcast_to(float(params.rho), (n,))
    for constant in (F_e0, p, rho):
        constant.flags.writeable = False

    v_surf = np.empty(levels)
    metrics = {name: None if name in ("t", "H") else np.empty(levels) for name in METRIC_FIELDS}
    with _at_step(first, dt):
        require_reduced(F_e0)
        # det F_e = F11 F22 (F_e21 = 0) and |p - G| are per-cell constants:
        # a level's maximum of each is their running maximum at its top cell.
        for name, values in (("det_drift", F_e0[:, 0, 0] * F_e0[:, 1, 1] - 1.0),
                             ("max_p_dev", p - params.G)):
            metrics[name] = np.maximum.accumulate(np.abs(values))[m - 1]
        start = time.perf_counter()
        # Every cell is marched under the traction that arriving material
        # sets on a body at rest, so its F_e12 is a function of its age
        # alone.  The age tables (History.table): per entry state, F12 and g
        # by age.
        history = History(
            step=np.arange(first, first + levels), H=H, m=m, v_surf=v_surf, metrics=metrics,
            tables=[shear_by_age(float(F[0, 1]), float(F[1, 1]), tau1, params, dt,
                                 levels) for F, _ in entries],
            F_e0=F_e0, p=p, rho=rho, dx=dx, dt=dt)
        metrics.update(t=history.t, H=H)
        result = RunResult(config=config, history=history)
        classes = result.classes
        with np.errstate(invalid="ignore"):  # both infinities in a level: NaN
            P = classes.level_sums(classes.stride_sums(), np.arange(levels))
            v_surf[:] = dx * (P + m0 * classes.body[1])
    marched = time.perf_counter()
    phases = {}
    v_abs = _check_levels(config, history, classes, P, phases)
    gated = time.perf_counter()
    with _at_step(first, dt):
        result.oracle_errors = oracle(config, history, classes, P[:len(v_abs)], v_abs)
    phases["oracle_s"] = time.perf_counter() - gated
    result.timings = {"march_s": marched - start, "check_s": sum(phases.values()), **phases,
                      "levels": levels, "classes": len(classes.e) - 1, "period": classes.p,
                      "cell_levels": int(m.sum())}
    return result


def run_non_normal(config: ScenarioConfig) -> RunResult:
    """March the sheared-attachment scenario and score it against the oracle."""
    if config.kind != "non_normal":
        raise ValidationError(f"config.kind must be 'non_normal', got {config.kind!r}")
    return _run_1d(config, oracle=_score_non_normal)


def run_fdm_shear(config: ScenarioConfig) -> RunResult:
    """March the deposition-with-shear scenario; the initial body enters in
    the attachment state (``ScenarioConfig.initial_deformation``)."""
    if config.kind != "fdm_shear":
        raise ValidationError(f"config.kind must be 'fdm_shear', got {config.kind!r}")
    return _run_1d(config, oracle=_score_steady)


def run_thermal(config: ScenarioConfig) -> RunResult:
    """March deposition with isotropic attachment mismatch and score it
    against its exact rest state (``F_e12``, ``v1`` and the stress all 0)."""
    if config.kind != "thermal":
        raise ValidationError(f"config.kind must be 'thermal', got {config.kind!r}")
    return _run_1d(config, oracle=_score_steady)


def run_scenario(config: ScenarioConfig) -> RunResult:
    return {"non_normal": run_non_normal, "fdm_shear": run_fdm_shear,
            "thermal": run_thermal}[config.kind](config)


def run_mu_sweep(config: ScenarioConfig, probe_x2: float = 0.25,
                 mu_values: tuple[float, ...] | None = None):
    """Quasistatic-limit sweep: rerun ``non_normal`` over decreasing viscosity,
    by default ``{1, 0.3, 0.1, 0.03, 0.01} G t_end``.

    Each member uses ``dt = min(mu/(2G), t_end/64)`` so the explicit
    relaxation factor ``1 - G dt / mu`` stays within the stability range and
    the discrete decay remains below the analytic envelope.  Each member is
    a ``run_non_normal`` run, checked and scored.  Returns
    ``[(mu, |F_e12|(probe_x2, t_end)), ...]``.
    """
    if config.kind != "non_normal":
        raise ValidationError("the viscosity sweep applies to the non_normal kind")
    _require_finite_height(probe_x2, "probe_x2")
    if mu_values is None:
        scale = config.params.G * config.t_end
        mu_values = [c * scale for c in (1.0, 0.3, 0.1, 0.03, 0.01)]
    mus = tuple(mu_values)
    if not (mus and all(math.isfinite(mu) and mu > 0 for mu in mus)):
        raise ValidationError(f"mu_values must be a nonempty list of finite "
                              f"positive viscosities, got {mus}")
    out = []
    for mu in mus:
        params = replace(config.params, mu=mu)
        cfg = replace(config, params=params, dt=min(0.5 * mu / params.G, config.t_end / 64.0))
        out.append((mu, _final_shear(cfg, probe_x2)))
    return out


def _final_shear(config: ScenarioConfig, x2: float) -> float:
    """``|F_e12|`` of a ``run_non_normal`` run at ``t_end`` and the height
    ``x2``, bitwise ``probe``'s, read through ``History.interp`` alone; the
    run is dropped on return."""
    history = run_non_normal(config).history
    return abs(float(history.interp(0, *_final_level(history, x2))[0]))


def convergence_runs(config: ScenarioConfig, resolutions):
    """Refinement study against the scenario oracle (dt scales with 1/n):
    yield each resolution's ``(ConvergenceRow, RunResult)`` in turn.

    A row's error is the worst over its run's levels: ``linf`` and ``l2``
    of F_e12 for ``non_normal``; for ``fdm_shear`` and ``thermal`` the
    worst of their four oracle errors, as both.  A row has no order when its
    ``linf`` or its predecessor's is 0, as ``thermal``'s are.
    """
    # every resolution is validated before the first is marched
    configs = [replace(config, n_cells=int(n), dt=None) for n in resolutions]
    previous = None
    for cfg in configs:
        dt, _ = cfg.resolve_dt()
        res = run_scenario(cfg)
        errors = res.oracle_errors
        if config.kind == "non_normal":
            linf, l2 = (float(np.max(errors[k])) for k in ("linf_F_e12", "rms_F_e12"))
        else:  # the steady state's four errors
            linf = l2 = max(float(np.max(column)) for column in errors.values())
        order = None
        if previous is not None and previous.linf > 0 and linf > 0:
            order = math.log2(previous.linf / linf)
        previous = ConvergenceRow(n_cells=cfg.n_cells, dt=dt, linf=linf, l2=l2, order=order)
        yield previous, res


def convergence_study(config: ScenarioConfig, resolutions) -> list[ConvergenceRow]:
    """The rows of ``convergence_runs``, one run held at a time."""
    return [row for row, _ in convergence_runs(config, resolutions)]


# ---------------------------------------------------------------------------
# Pathlines against a stored run
# ---------------------------------------------------------------------------

def level_interp(history: History, level: np.ndarray, x2: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """A per-cell constant of the run (``F_e0``'s entries, ``p``) at the
    heights ``x2`` of the stored levels ``level``: ``np.interp`` over each
    level's cell centers, bitwise.  Every level holds a prefix of the run's
    cells, so this is one ``np.interp`` over the whole column at each
    height clamped to its level's top center."""
    centers = history.centers
    return np.interp(np.minimum(x2, centers[history.m[level] - 1]), centers, values)


def level_F_e(history: History, level: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """``F_e`` at the heights ``x2`` of the stored levels ``level``, as
    ``(len(x2), 2, 2)``: each component ``np.interp``-ed over its level's
    cell centers, bitwise, with no level's ``F_e`` built.  ``F_e12`` is
    gathered through the history's map (``History.interp``)."""
    F = np.empty((len(x2), 2, 2))
    for i, j in ((0, 0), (1, 0), (1, 1)):
        F[:, i, j] = level_interp(history, level, x2, history.F_e0[:, i, j])
    F[:, 0, 1] = history.interp(0, level, x2)
    return F


def level_v1(history: History, level: np.ndarray, x2: np.ndarray,
             classes: _Classes) -> np.ndarray:
    """``v1`` at the heights ``x2`` of the stored levels ``level``,
    ``np.interp(x2, faces, History.v_nodes(level))`` to round-off: on the two
    face velocities around each height (``face dx g`` in the body, ``dx (Y
    - Z)`` above), in windows of ``CLASS_CELLS // 8`` heights by level, with
    class rows only at the levels and up to the highest class they read, by
    the run's ``classes`` (``RunResult.classes``, also for a slice)."""
    faces, v1, Q = history.faces, np.empty(len(x2)), classes.stride_sums()
    order = np.argsort(level, kind="stable")
    for k in range(0, len(x2), max(1, CLASS_CELLS // 8)):
        idx = order[k:k + max(1, CLASS_CELLS // 8)]
        xs, top = x2[idx], history.m[level[idx]]
        lower = np.clip(np.searchsorted(faces, xs, side="right") - 1, 0, top)
        face = np.concatenate([lower, np.minimum(lower + 1, top)])
        at = np.tile(history.step[level[idx]] - history.first, 2)
        u, c = np.divmod(face - 1 - history.m0, len(classes.e) - 1)
        above = u >= 0
        rho = np.where(above, at - u * classes.p, at)
        read = np.zeros(classes.history.L, bool)
        read[at] = read[rho] = True
        cols, slot = np.flatnonzero(read), np.cumsum(read) - 1
        P = classes.level_sums(Q, cols)
        wanted = np.flatnonzero(above)[np.argsort(c[above], kind="stable")]
        Z = np.zeros(len(face))
        with np.errstate(invalid="ignore"):  # both infinities below a face: NaN
            for cs, *_, rows in classes.rows(cols, P, int(c[wanted].max(initial=-1)) + 1):
                j = wanted[slice(*np.searchsorted(c[wanted], [cs.start, cs.stop]))]
                Z[j] = rows[c[j] - cs.start, slot[rho[j]]]
            g_body = classes.body[1][at]
            Y = P[slot[at]] + history.m0 * g_body
            V = np.where(above, history.dx * (Y - Z), face * (history.dx * g_body))
            V[face == 0] = 0.0  # the clamped base, whatever the body's rate
        # height s reads node `lower` at 2 s and the one above it at 2 s + 1
        v1[idx] = interp_prefix(
            xs, faces, top + 1, V.reshape(2, -1).T.ravel(),
            2 * np.arange(len(xs)) - lower, np.arange(len(faces)))
    return v1


def _windows(lengths: list[int]) -> list[tuple[int, int]]:
    """Bounds ``(a, b)`` of groups of whole consecutive pathlines whose
    sample counts ``lengths[a:b]`` sum to at most ``CLASS_CELLS``; a longer
    pathline is a group of its own."""
    bounds, total = [0], 0
    for i, n in enumerate(lengths):
        if total and total + n > CLASS_CELLS:
            bounds.append(i)
            total = 0
        total += n
    return [(a, b) for a, b in zip(bounds, bounds[1:] + [len(lengths)]) if b > a]


def trace_history_pathlines(result: RunResult, count: int = 20) -> list[HistoryPathline]:
    """Integrate characteristics through the stored velocity history.

    Seeds are spread through the final body; each pathline starts at the
    first stored level whose body contains the seed height, with the grid
    field interpolated there as its starting F_e.  With ``v = v1(x2) e1`` a
    pathline keeps its height, so each explicit midpoint (RK2) step samples
    one stored level (``v1`` at the faces, the shear rate ``g`` at the cell
    centers, its end values held) and lands on the next, and sample times
    coincide with the stored levels.  With ``L = g e1 (x) e2`` the step
    leaves ``F_e11``, ``F_e21`` and ``F_e22`` as they are and adds
    ``h (g F_e22)`` to ``F_e12``, and ``x1`` gains ``h v1``: both are
    running sums over the levels.  So the samples' ``g`` and ``v1`` are
    gathered for a window of whole pathlines of at most ``CLASS_CELLS``
    samples at a time (``History.interp``, ``level_v1``), each pathline's
    ``F_e12`` and ``x1`` columns are two ``cumsum`` calls, and its ``v1``
    column is kept (``HistoryPathline``).
    A seed first reached at the last level has no step and is skipped.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
        raise ValidationError(f"count must be a nonnegative integer, got {count!r}")
    history = result.history
    last = len(history) - 1
    times, heights = history.t, history.H
    x2 = (np.arange(count) + 0.5) * heights[-1] / count
    j0 = np.searchsorted(heights, x2)
    x2, j0 = x2[j0 < last], j0[j0 < last]
    h = (times[-1] - times[j0]) / (last - j0)
    # the highest seed stepped onto each level, against its body
    reach = np.full(last + 1, -np.inf)
    np.maximum.at(reach, j0 + 1, x2)
    left = np.flatnonzero(np.maximum.accumulate(reach) > heights + 1e-9)
    if len(left):
        raise OutOfDomain(f"characteristic left the body at t = {times[left[0]]:g}")
    F0 = level_F_e(history, j0, x2)
    steps = last - j0
    pathlines = []
    for a, b in _windows((steps + 1).tolist()):
        # every sample of the window's pathlines, one after another: pathline
        # i samples the levels j0[i] .. last and steps from all but the last
        n = steps[a:b] + 1
        starts = np.cumsum(n) - n
        seed = np.repeat(np.arange(a, b), n)
        level = np.arange(len(seed)) - np.repeat(starts - j0[a:b], n)
        z = x2[seed]
        v1 = level_v1(history, level, z, result.classes)
        dF12 = h[seed] * (history.interp(1, level, z) * F0[seed, 1, 1])
        dx1 = h[seed] * v1
        # each pathline's start (its F_e12, x1 = 0), then its steps: cumsum makes the columns
        dF12[1:], dF12[starts], dx1[1:], dx1[starts] = dF12[:-1], F0[a:b, 0, 1], dx1[:-1], 0.0
        for i, s, k in zip(range(a, b), starts.tolist(), n.tolist()):
            pathlines.append(HistoryPathline(
                t=times[j0[i]] + np.arange(k) * h[i], x1=np.cumsum(dx1[s:s + k]),
                F_e12=np.cumsum(dF12[s:s + k]), v1=v1[s:s + k], x2=x2[i], F_e0=F0[i]))
    return pathlines


def pathline_levels(history: History, pathlines) -> tuple[np.ndarray, np.ndarray]:
    """Stored level and clamped height of every pathline sample.

    The samples of all (at least one) pathlines are numbered in order, one
    pathline after another.  A sample's level is the stored level at its
    time, ``rint((t - t0)/dt)`` clamped to the history, and its height,
    its pathline's, is clamped to that level's body.  Returns ``(level,
    x2)``, formed in place: the times' buffer ends holding the levels' heights.
    """
    t = np.concatenate([pl.t for pl in pathlines])
    t -= history.t[0]
    t /= history.dt
    level = np.clip(np.rint(t, out=t), 0, len(history) - 1, out=t).astype(int)
    x2 = np.repeat([pl.x2 for pl in pathlines], [len(pl.t) for pl in pathlines])
    np.maximum(x2, 0.0, out=x2)
    return level, np.minimum(x2, np.take(history.H, level, out=t, mode="clip"), out=x2)


def pathline_windows(history: History, pathlines):
    """Yield ``(window, level, x2)`` for groups ``window`` of whole
    consecutive pathlines of at most ``CLASS_CELLS`` samples each (a longer
    pathline alone), with their samples' levels and heights
    (``pathline_levels``), so a pass over the samples holds one window's."""
    for a, b in _windows([len(pl.t) for pl in pathlines]):
        window = pathlines[a:b]
        yield (window, *pathline_levels(history, window))


def pathline_grid_discrepancy(result: RunResult, pathlines) -> float:
    """L-infinity gap between grid-transported and characteristic F_e.

    Scored a window of pathlines at a time (``pathline_windows``) and one
    component at a time: the ``F_e12`` column against the grid's
    (``History.interp``), and each pathline's start ``F_e11``, ``F_e21``
    and ``F_e22`` against the grid's at its samples (``level_interp``).
    A NaN anywhere makes the gap NaN."""
    history = result.history
    worst = [0.0]
    for window, level, x2 in pathline_windows(history, pathlines):
        worst.append(np.max(np.abs(history.interp(0, level, x2)
                                   - np.concatenate([pl.F_e12 for pl in window]))))
        counts = [len(pl.t) for pl in window]
        for i, j in ((0, 0), (1, 0), (1, 1)):
            start = np.repeat([pl.F_e0[i, j] for pl in window], counts)
            worst.append(np.max(np.abs(
                level_interp(history, level, x2, history.F_e0[:, i, j]) - start)))
    return float(np.max(worst))


# ---------------------------------------------------------------------------
# The reference configuration recovered from a stored run
# ---------------------------------------------------------------------------

@dataclass
class ReconstructedFrame:
    """Deformation gradient and relaxed shape recovered at one time level."""

    t: float
    F: np.ndarray
    F_relax: np.ndarray


def _inverse_entry_states(history: History) -> tuple[np.ndarray, ...]:
    """``(F_e11, F_e22, det F_e)`` of the entry states of the cells that the
    history's levels hold, and the diagonal of their inverse; ``NotReduced``
    for a nonzero ``F_e21``, and ``SingularTensor`` when one of them has
    ``|det F_e| <= EPS_DET``."""
    F_e0 = require_reduced(history.F_e0)[:int(np.max(history.m, initial=0))]
    a, d = F_e0[:, 0, 0], F_e0[:, 1, 1]
    det = a * d
    if np.any(np.abs(det) <= EPS_DET):
        raise SingularTensor(f"|det| <= {EPS_DET:g} in tensor inversion")
    return a, d, det, d / det, a / det


def reconstruct_reference(history: History) -> list[ReconstructedFrame]:
    """Recover ``F`` and ``F_relax`` at every level of a stored run (or of a
    slice of it), as ``(m, 2, 2)`` frames.

    Each cell's reference is its shape when it entered the run, so ``F =
    I`` there (accreted material's reference is its as-deposited shape), and
    ``F = I + F12 e1 (x) e2`` after, ``F12`` read from the age tables
    (``History.shear_since_entry``).  ``F_relax = F_e^{-1} F`` comes from the
    adjugate, and its 21 entry is 0.  ``NotReduced`` is raised for a nonzero
    ``F_e21``, and ``SingularTensor`` when a level holds a cell with ``|det
    F_e| <= EPS_DET``.
    """
    _, _, det, r11, r22 = _inverse_entry_states(history)
    shear = history.shear_since_entry()
    frames = []
    for k in range(len(history)):
        m = int(history.m[k])
        index = history.index(k)
        f12, b = shear[index], history.source[0, index]
        F = identity((m,))
        F[:, 0, 1] = f12
        F_relax = np.zeros((m, 2, 2))
        F_relax[:, 0, 0], F_relax[:, 1, 1] = r11[:m], r22[:m]
        F_relax[:, 0, 1] = r11[:m] * f12 + -b / det[:m]
        frames.append(ReconstructedFrame(t=float(history.t[k]), F=F, F_relax=F_relax))
    return frames


def reconstruction_roundtrip_error(result: RunResult) -> float:
    """Max defect of ``F_e F_relax`` against ``F`` (``reconstruct_reference``)
    over every cell of every level, each over its own ``max(1, |F12|)``.
    A cell's defect depends on its entry state and age alone, so it is taken
    over the age tables (``History.age_rows``; see the README's round trip).
    Raises as ``reconstruct_reference`` does."""
    history = result.history
    states = _inverse_entry_states(history)
    shear = history.shear_since_entry()
    worst = 0.0
    for first, ages in history.age_rows():
        a, d, det, r11, r22 = (float(x[first]) for x in states)
        b, f12 = history.source[0, ages], shear[ages]
        # F_e F_relax entry by entry against F = [[1, f12], [0, 1]]; both 21
        # entries are 0
        defect = np.maximum(np.abs(a * (r11 * f12 + -b / det) + b * r22 - f12),
                            max(abs(a * r11 - 1.0), abs(d * r22 - 1.0)))
        worst = max(worst, float(np.max(defect / np.maximum(1.0, np.abs(f12)))))
    return worst
