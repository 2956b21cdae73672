"""End-to-end growth scenarios, their oracles, and convergence studies.

The three kinds (``non_normal``, ``fdm_shear``, ``thermal``) and the march
they share, ``_run_1d`` (the schedule known up front, ``F_e12`` and ``g``
from age tables, and a block pass for the residual checks, metrics and
oracle), are described in the README's Scenarios section.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .balance import (GrowthInput, SideState, advance_domain,
                      boundary_normal_velocity, cell_S22, growth_traction,
                      jump_residuals, normal_pressure, require_reduced,
                      solve_residuals)
from .constitutive import (AttachmentSpec, MaterialParams,
                           attach_elastic_deformation, total_stress)
from .errors import (IncompatibleAnsatz, OutOfBody, OutOfDomain, SingularSystem,
                     SingularTensor, SurfgrowError, ValidationError)
from .grids import Grid1D, History, StepRecord, interp_prefix
from .kinematics import PathlineRecord
from .tensors import EPS_DET, identity, require_finite

KINDS = ("non_normal", "fdm_shear", "thermal")

# Residual levels beyond which the through-thickness reduction is deemed
# inconsistent rather than merely inaccurate.
ANSATZ_RESIDUAL_LIMIT = 1e-6
# Cells a block pass checks and scores at once: a block holds consecutive
# stored levels while their count times the last level's cells stays
# within it (see ``block_bounds``).
BLOCK_CELLS = 2 ** 15
# The largest (n_steps + 1) * n_cells a configuration may ask for: it bounds
# the schedule (a few floats a step) and the cell-levels the block pass
# scores, so a step count that cannot be marched is refused before
# anything is allocated.
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
        for name in ("alpha", "H0", "V_G", "h", "v0", "L", "dt", "t_end"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        for name in ("n_cells", "n_snapshots"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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

    def attachment_deformation(self) -> np.ndarray:
        if self.kind == "non_normal":
            return np.array([[1.0, -self.alpha], [0.0, 1.0]])
        if self.kind == "thermal":
            return np.eye(2) / self.alpha
        traction = growth_traction(self.mass_rate, np.array([self.v0, 0.0]),
                                   np.zeros(2), np.zeros(2))
        F_att, _ = attach_elastic_deformation(
            AttachmentSpec.from_traction(traction, self.params), self.params)
        return F_att

    def initial_deformation(self) -> np.ndarray:
        """The entry state of the initial body: at rest, or for fdm_shear the
        attachment state, the shear consistent with the momentum flux of
        arriving material at ``t = 0+``."""
        if self.kind == "fdm_shear":
            return self.attachment_deformation()
        return np.eye(2)

    def growth_input(self) -> GrowthInput:
        v_a = np.array([self.v0, 0.0]) if self.kind == "fdm_shear" else None
        return GrowthInput(M=self.mass_rate, v_a=v_a, t_b=np.zeros(2),
                           F_e_attach=self.attachment_deformation())

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
    ``timings`` holds the march's wall time in seconds: ``march_s`` in the
    march (the age tables' build included) and ``check_s`` in the block
    passes.
    """

    config: ScenarioConfig
    history: History
    oracle_errors: dict[str, np.ndarray] = field(default_factory=dict)
    pathlines: list[PathlineRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

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
        level = np.array([len(history) - 1])
        xq = np.array([min(max(x2, 0.0), float(history.H[-1]))])
        return {"F_e": level_F_e(history, level, xq)[0],
                "p": float(level_interp(history, level, xq, history.p)[0]),
                "v1": float(level_v1(history, level, xq)[0])}


def _require_finite_height(x2: float, name: str) -> None:
    if not math.isfinite(x2):
        raise ValidationError(f"{name} must be a finite height, got {x2}")


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
    shape = np.broadcast(x2a, t).shape
    v1, F_e12 = _closed_form(x2a, t, alpha, G / mu, V_G,
                             (np.empty(shape), np.empty(shape), np.empty(shape, bool)))
    if np.ndim(v1) == 0:
        return float(v1), float(F_e12), float(G)
    return v1, F_e12, np.full_like(v1, float(G))


def _require_in_body(x2: np.ndarray, t, V_G: float) -> None:
    top = V_G * t
    if np.any(x2 < -1e-12) or np.any(x2 > top * (1 + 1e-12) + 1e-15):
        raise OutOfBody(f"x2 outside [0, V_G t] = [0, {np.max(top):g}]")


def _closed_form(x2, t, alpha: float, lam: float, V_G: float, out: tuple,
                 past: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``analytic_non_normal``'s ``(v1, F_e12)`` at the heights ``x2`` and
    times ``t``, broadcast, written into ``out``: two float arrays and one
    boolean array of their shape.  Cells where ``past`` is set get no value.

    ``exp(-lam t)`` is taken once per time, and ``exp(-lam age)`` only where
    its argument is above -746: below it is +0.0, which numpy returns too,
    but off its vector path, an order of magnitude slower.
    """
    v1, F_e12, keep = out
    arg = np.subtract(t, x2 / V_G, out=v1)
    arg *= -lam
    if past is not None:
        np.copyto(arg, -np.inf, where=past)
    np.greater(arg, -746.0, out=keep)
    F_e12.fill(0.0)
    decay = np.exp(arg, out=F_e12, where=keep)
    np.subtract(decay, np.exp(-lam * t), out=v1)
    v1 *= V_G * alpha
    decay *= -alpha
    return v1, decay


def block_bounds(counts: np.ndarray, cells: int) -> list[tuple[int, int]]:
    """Split stored levels into the march's blocks, in order, as
    ``(first level, level count)`` pairs.

    ``counts`` are the levels' active cells, nondecreasing and positive.  A
    block takes consecutive levels while its level count times its last
    level's cells stays within ``cells``; a level wider than ``cells`` is a
    block of its own.
    """
    blocks, i0, levels = [], 0, len(counts)
    while i0 < levels:
        span = min(levels - i0, max(1, cells // int(counts[i0])))
        # b levels from i0 take b * counts[i0 + b - 1] cells, increasing in b
        taken = np.arange(1, span + 1) * counts[i0:i0 + span]
        B = max(1, int(np.searchsorted(taken, cells, side="right")))
        blocks.append((i0, B))
        i0 += B
    return blocks


@dataclass(eq=False, repr=False)  # never compared or printed; cheaper to import
class _Block:
    """Consecutive stored levels, as the block pass reads them.  Row ``b`` of
    ``F12`` and ``g``, views of the run's work arrays (``_fill_block``), is
    level ``b``'s cells and then zeros; the rest is the march's running
    sums, the run's per-cell constants and the levels' columns."""

    t: np.ndarray          # (B,) times of the levels
    counts: np.ndarray     # (B,) active cells, nondecreasing
    past: np.ndarray       # (B, counts[-1]): the cells past each level's top
    F12: np.ndarray        # (B, counts[-1]) the levels' shears
    g: np.ndarray          # (B, counts[-1]) the levels' shear rates
    v_nodes: np.ndarray    # (B, counts[-1] + 1) face velocities, then padding
    v_surf: np.ndarray     # (B,) top-face velocities
    F_e0: np.ndarray       # the run's per-cell constants
    p: np.ndarray
    rho: np.ndarray
    centers: np.ndarray
    work: tuple            # three float and one boolean flat scratch

    @property
    def top(self) -> np.ndarray:
        """Each level's top cell on the grid."""
        return self.counts - 1

    def level_max(self, values: np.ndarray) -> np.ndarray:
        """Per-level maximum of nonnegative per-cell values on the block's
        rows; ``values`` is zeroed past each level's top."""
        np.copyto(values, 0.0, where=self.past)
        return values.max(axis=1)


def _level_metrics(config: ScenarioConfig, growth: GrowthInput,
                   blk: _Block) -> dict[str, np.ndarray]:
    """The jump residuals of a block's levels: their top cell against the
    ambient side."""
    params = config.params
    M = config.mass_rate
    n_hat = np.array([0.0, 1.0])
    B = len(blk.t)
    top = blk.top
    top_cell = np.arange(B), top
    rho_top = blk.rho[top]
    v_surf = np.zeros((B, 2))
    v_surf[:, 0] = blk.v_surf
    v_a = growth.v_a if growth.v_a is not None else v_surf
    V_b = np.zeros((B, 2))
    V_b[:, 1] = boundary_normal_velocity(M, rho_top, v_surf, n_hat)
    grad_v_top = np.zeros((B, 2, 2))
    grad_v_top[:, 0, 1] = blk.g[top_cell]
    F_e_top = blk.F_e0[top]
    F_e_top[:, 0, 1] = blk.F12[top_cell]
    sigma_top = total_stress(F_e_top, grad_v_top, blk.p[top], params)
    body = SideState(rho=rho_top, v=v_surf, sigma=sigma_top)
    t_b1, t_b2 = growth.t_b  # the symmetric ambient stress's traction on n = e2
    ambient = SideState(rho=0.0, v=v_a, sigma=np.array([[0.0, t_b1], [t_b1, t_b2]]))
    mass_res, mom_res = jump_residuals(body, ambient, V_b, n_hat, M, v_a)
    return {"mass_residual": np.abs(mass_res),
            "momentum_residual": np.max(np.abs(mom_res), axis=1)}


def _score_non_normal(config: ScenarioConfig, blk: _Block) -> dict[str, np.ndarray]:
    """Oracle errors of a block's levels against ``analytic_non_normal``'s
    closed form, formed in the block's scratch."""
    p = config.params
    # the centers ascend, so each level's top cell is its highest
    _require_in_body(blk.centers[blk.top], blk.t, config.V_G)
    ref, ef, v1, keep = (a[:blk.F12.size].reshape(blk.F12.shape) for a in blk.work)
    v1_ref, f_ref = _closed_form(blk.centers[:ef.shape[1]], blk.t[:, None], config.alpha,
                                 p.G / p.mu, config.V_G, (ref, ef, keep), past=blk.past)
    ef = np.subtract(blk.F12, f_ref, out=f_ref)
    # face averages of the running sums
    V = blk.v_nodes
    np.add(V[:, :-1], V[:, 1:], out=v1)
    v1 *= 0.5
    v1 -= v1_ref
    ef2 = np.square(ef, out=ref)
    # np.mean's sum per level (a row sum over padded rows sums in another
    # order), one row sum over each run of consecutive levels with equal
    # cell counts
    counts = blk.counts
    runs = np.flatnonzero(np.diff(counts, prepend=0))
    sizes = np.diff(runs, append=len(counts))
    sums = [np.add.reduce(ef2[s:s + k, :n], axis=1) / n for s, k, n in
            zip(runs.tolist(), sizes.tolist(), counts[runs].tolist())]
    return {"linf_F_e12": blk.level_max(np.abs(ef, out=ef)),
            "rms_F_e12": np.sqrt(np.concatenate(sums)),
            "linf_v1": blk.level_max(np.abs(v1, out=v1))}


def _score_steady(config: ScenarioConfig, blk: _Block) -> dict[str, np.ndarray]:
    """Oracle errors of a block's levels against the exact steady state: at
    rest under the attachment traction ``tau1`` (``M v0`` for
    ``fdm_shear``, 0 for ``thermal``), every cell holds the uniform shear
    ``tau1 / G`` with ``sigma12 = tau1`` and ``sigma11 = tau1^2 / G``."""
    G, mu = config.params.G, config.params.mu
    tau1 = config.mass_rate * config.v0 if config.kind == "fdm_shear" else 0.0
    # total_stress's 11 and 12 entries, in its operations, with F_e21 = 0 and
    # grad v = g e1 (x) e2 (they differ from it only in the sign of a zero)
    m = blk.F12.shape[1]
    F11, F12, F22 = blk.F_e0[:m, 0, 0], blk.F12, blk.F_e0[:m, 1, 1]
    sigma11 = G * (F11 * F11 + F12 * F12) - blk.p[:m]
    sigma12 = G * (F12 * F22) + 2.0 * mu * (0.5 * blk.g)
    return {"linf_F_e12": blk.level_max(np.abs(F12 - tau1 / G)),
            "linf_v1": np.abs(blk.v_nodes).max(axis=1),
            "linf_sigma12": blk.level_max(np.abs(sigma12 - tau1)),
            "linf_sigma11": blk.level_max(np.abs(sigma11 - tau1 ** 2 / G))}


def _unscored(config: ScenarioConfig, blk: _Block) -> dict[str, np.ndarray]:
    """The oracle of a run whose scores nobody reads: none.  The block pass
    runs every check and gate all the same."""
    return {}


def shear_by_age(F12: float, F22: float, tau1: float, params: MaterialParams,
                 dt: float, ages: int) -> tuple[list[float], list[float]]:
    """A cell's shear ``F_e12`` and shear rate ``g`` at the ages ``0 ..
    ages - 1`` (steps since it entered with the shear ``F12``) under the
    constant top traction ``tau1``: the operations of the solve's first
    integral ``g = (tau1 - G S12) / mu`` and of the transport step ``F12 + dt
    (g F22)`` on floats, in their order, so each entry is bitwise what a
    march of the two per cell gives it at that age."""
    G, mu = float(params.G), float(params.mu)
    shears, rates = [], []
    for _ in range(ages):
        g = (tau1 - (F12 * F22) * G) / mu
        shears.append(F12)
        rates.append(g)
        F12 = F12 + dt * (g * F22)
    return shears, rates


def _fill_block(source: np.ndarray, start: np.ndarray, col: np.ndarray,
                levels: np.ndarray, v_nodes: np.ndarray, dx: float,
                work: tuple | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """Read a block of stored levels through a run's map, ``source[:,
    start[k] + col[j]]`` for cell ``j`` of level ``k`` (``History``).

    Row ``b`` of ``v_nodes``, ``(B, width)``, becomes level ``levels[b]``'s
    face velocities: 0, the running sums of ``dx g`` over its cells, then
    its top value repeated where the map reads zeros past its top (an age
    table's negative ages).  Given ``work``, contiguous ``(B, width - 1)``
    arrays for the levels' ``F_e12`` and ``g`` and the map's indices,
    returns the first two, each row a level's cells and then zeros."""
    F12, g, index = work or (None, None, None)
    index = np.add(start[levels, None], col[:v_nodes.shape[1] - 1], out=index)
    # every index is in range by construction: "clip" only spares the
    # buffered copy of "raise" mode.  take fills a contiguous `out` in
    # place, but the strided rows of v_nodes only through a copy.
    g = np.take(source[1], index, mode="clip", out=g)
    v_nodes[:, 0] = 0.0
    # both infinities in a level's rates sum to NaN, which its v_surf shows
    with np.errstate(invalid="ignore"):
        np.cumsum(np.multiply(g, dx, out=g if F12 is None else F12), axis=1,
                  out=v_nodes[:, 1:])
    if F12 is None:
        return None
    return np.take(source[0], index, mode="clip", out=F12), g


def _run_1d(config: ScenarioConfig, oracle) -> RunResult:
    """March a scenario and score it; ``oracle(config, block)`` gives the
    oracle errors of a block's levels (``_unscored`` gives none)."""
    params = config.params
    M = config.mass_rate
    dt, n_steps = config.resolve_dt()
    growth = config.growth_input()
    grid = config.eulerian_grid()
    n, dx = grid.n_cells, grid.dx

    # The schedule.  Step k solves at t = k dt on the cells whose centers
    # H(t_k) has reached and advances to (k + 1) dt; the closing solve at
    # t_end is step n_steps.  Levels with no active cell are not stored:
    # the stored levels are the steps from `first` on, level i holds the
    # first m[i] cells, and the block pass runs on each of `blocks`.
    H = np.empty(n_steps + 1)
    H[0] = config.height0
    H[1:] = advance_domain(config.height0, config.boundary_rate, dt,
                           np.arange(1, n_steps + 1))
    centers = grid.centers
    m = np.searchsorted(centers, H, side="right")
    first = int(np.searchsorted(m, 1))
    m0, H, m = int(m[0]), H[first:], m[first:]
    levels = len(m)
    blocks = block_bounds(m, BLOCK_CELLS)

    # Per-cell constants of the run, each one read-only array of which every
    # level holds its active prefix.  Only F_e12 evolves: F_e0 is each
    # cell's F_e when it entered the run, in one of two entry states, the
    # initial body's for the m0 cells active at t = 0 and the attachment
    # value for every later cell.  The pressure depends on F_e22 and on
    # tau2 = t_b2 (the attachment velocity has no normal component), and
    # rho keeps its attachment value (v2 = 0, no compression).
    entries = [(F, cells) for F, cells in ((config.initial_deformation(), m0),
                                           (growth.F_e_attach, n - m0)) if cells]
    F_e0 = np.concatenate([np.broadcast_to(F, (cells, 2, 2)) for F, cells in entries])
    p = normal_pressure(F_e0, params.G, growth.t_b[1])
    rho = np.full(n, params.rho)
    for constant in (F_e0, p, rho):
        constant.flags.writeable = False
    F22 = F_e0[:, 1, 1].copy()
    S22 = cell_S22(F22)

    # The per-level columns of the result, and the applied tractions.
    t_levels = np.arange(first, first + levels) * dt
    v_surf = np.empty(levels)
    tau = np.empty((levels, 2))
    metrics = {name: np.empty(levels) for name in METRIC_FIELDS}
    metrics.update(t=t_levels, H=H)
    oracle_errors: dict[str, np.ndarray] = {}
    # Work arrays of the widest block, held for the run: `v_flat` viewed as
    # (B, m_last + 1), row b the face velocities of the block's level b and
    # then its top one repeated; in `work`, the levels' F_e12 and g and the
    # map's indices (``_fill_block``) and the mask of the cells past each
    # level's top, viewed as (B, m_last), and `scratch` for
    # ``solve_residuals`` and then the oracle.  The floats are one
    # allocation: once freed, it raises glibc's trim threshold above the
    # run's work, so the next run reuses the heap instead of faulting it in
    # again.
    v_flat = np.empty(max(B * (int(m[i0 + B - 1]) + 1) for i0, B in blocks))
    cells = max(B * int(m[i0 + B - 1]) for i0, B in blocks)
    floats, flags = np.empty((5, cells)), np.empty((2, cells), bool)
    work = (*floats[:2], np.empty(cells, np.intp), flags[0])
    scratch = (*floats[2:], flags[1])
    grid_cells = np.arange(n)

    timings = {"march_s": 0.0, "check_s": 0.0}
    k, t = first, first * dt
    try:
        require_reduced(F_e0)
        # det F_e = F11 F22 (F_e21 = 0) and |p - G| are per-cell constants
        # and a level holds a prefix of the grid's cells, so a level's
        # maximum of each is their running maximum at its top cell.
        for name, values in (("det_drift", F_e0[:, 0, 0] * F_e0[:, 1, 1] - 1.0),
                             ("max_p_dev", p - params.G)):
            metrics[name] = np.maximum.accumulate(np.abs(values))[m - 1]
        start = time.perf_counter()
        # Every cell is marched under the traction that arriving material
        # sets on a body at rest, M v_a + t_b (t_b where it attaches at the
        # body's velocity), so its F_e12 is a function of its age alone.
        # The age tables, the rows of `source`: per entry state that has
        # cells, `levels` zeros for the negative ages of cells not yet
        # active, then ages 0 .. levels-1.  Cell j of level i reads entry
        # i + col[j].
        tau[:] = growth.t_b if growth.v_a is None else growth_traction(
            M, growth.v_a, np.zeros(2), growth.t_b)
        tables = np.zeros((2, len(entries), 2, levels))
        for c, (F, _) in enumerate(entries):
            tables[:, c, 1] = shear_by_age(
                float(F[0, 1]), float(F[1, 1]), float(tau[0, 0]), params, dt, levels)
        source = tables.reshape(2, -1)
        state = np.repeat(np.arange(len(entries)), [cells for _, cells in entries])
        col = (2 * state + 1) * levels - np.searchsorted(m, grid_cells, side="right")
        level_start = np.arange(levels)
        timings["march_s"] += time.perf_counter() - start
        for i0, B in blocks:
            start = time.perf_counter()
            shape = B, int(m[i0 + B - 1])
            v_nodes = v_flat[:B * (shape[1] + 1)].reshape(B, -1)
            F12_block, g_block, index, past = (a[:B * shape[1]].reshape(shape) for a in work)
            np.greater_equal(grid_cells[:shape[1]], m[i0:i0 + B, None], out=past)
            _fill_block(source, level_start, col, np.arange(i0, i0 + B), v_nodes, dx,
                        (F12_block, g_block, index))
            v_surf[i0:i0 + B] = v_nodes[np.arange(B), m[i0:i0 + B]]
            # a non-finite shear or shear rate anywhere reaches the top face,
            # so the first level whose v_surf is not finite has failed
            failed = None
            bad = np.flatnonzero(~np.isfinite(v_surf[i0:i0 + B]))
            if len(bad):
                failed = int(bad[0])
                k = first + i0 + failed
                t = k * dt
                F12 = F12_block[failed, :int(m[i0 + failed])]
            marched = time.perf_counter()
            # The block pass: what does not feed the next step (the solve's
            # residuals, the jump metrics and the oracle), on the levels
            # marched before a failure, so an error names the earliest
            # offending step.
            if failed != 0:
                rows = slice(i0, i0 + (B if failed is None else failed))
                if growth.v_a is not None:
                    # each level is checked against the traction M (v_a - v)
                    # + t_b that its own top velocity v sets: the top row of
                    # its system residual reads dx M |v| / mu, how far the
                    # body moves from the rest the march assumed
                    tau[rows, 0] = growth_traction(M, growth.v_a[0], v_surf[rows],
                                                   growth.t_b[0])
                counts = m[rows]
                cut = np.s_[:len(counts), :int(counts[-1])]
                v_block = v_nodes[:len(counts), :int(counts[-1]) + 1]
                system, traction_residual = solve_residuals(
                    F12_block[cut], g_block, counts, v_block, S22, F22, tau[rows],
                    params, dx, work=scratch)
                metrics["traction_residual"][rows] = traction_residual
                metrics["system_residual"][rows] = system
                blk = _Block(t=t_levels[rows], counts=counts, past=past[cut],
                             F12=F12_block[cut], g=g_block[cut], v_nodes=v_block,
                             v_surf=v_surf[rows], F_e0=F_e0, p=p, rho=rho,
                             centers=centers, work=scratch)
                for name, values in _level_metrics(config, growth, blk).items():
                    metrics[name][rows] = values
                # the jump and traction residuals read M |v_surf| unscaled,
                # the system's top row times dx / mu
                momentum = metrics["momentum_residual"]
                worst = np.maximum(system, momentum[rows])
                bad = np.flatnonzero(np.maximum(worst, traction_residual, out=worst)
                                     > ANSATZ_RESIDUAL_LIMIT)
                if len(bad):
                    j = int(bad[0])
                    k = first + i0 + j
                    t = k * dt
                    # the first of the level's residuals in this order that
                    # passes the limit names it
                    name, value = next(
                        (name, values[j]) for name, values in (
                            ("reduced solve", system), ("momentum jump", momentum[rows]),
                            ("traction", traction_residual))
                        if values[j] > ANSATZ_RESIDUAL_LIMIT)
                    raise IncompatibleAnsatz(
                        f"{name} residual {value:.3e}; "
                        f"the through-thickness ansatz is inconsistent")
                for name, values in oracle(config, blk).items():
                    if name not in oracle_errors:
                        oracle_errors[name] = np.empty(levels)
                    oracle_errors[name][rows] = values
            if failed is not None:  # k, t and F12 are the failed step's
                require_finite(F12, "F_e12")
                raise SingularSystem("momentum solve produced non-finite values")
            timings["march_s"] += marched - start
            timings["check_s"] += time.perf_counter() - marched
    except SurfgrowError as exc:
        raise type(exc)(f"step {k}, t = {t:.6g}: {exc}") from exc
    history = History(t=t_levels, step=np.arange(first, first + levels), H=H, m=m,
                      start=level_start, v_surf=v_surf, metrics=metrics, source=source,
                      col=col, F_e0=F_e0, p=p, rho=rho, dx=dx, dt=dt)
    return RunResult(config=config, history=history, oracle_errors=oracle_errors,
                     timings=timings)


def _age_rows(history: History) -> list[tuple[int, slice]]:
    """``_run_1d``'s age tables: per entry state active at the history's last
    level, its first cell and the slice of a ``source`` row holding its ages
    ``0`` to that cell's age there, every age the state has reached."""
    col, last = history.col, int(history.start[-1])
    levels = int(col[0])  # cell 0 enters at the run's first level, at age 0
    firsts = np.flatnonzero(np.diff(col, prepend=-1) > 0)
    return [(j, slice((2 * c + 1) * levels, last + int(col[j]) + 1))
            for c, j in enumerate(firsts.tolist()) if j < history.m[-1]]


def _shear_since_entry(history: History) -> np.ndarray:
    """Each cell's shear ``F12`` of ``F = I + F12 e1 (x) e2`` since it entered
    the run, laid out like a row of ``source``, so a level's is gathered
    through the map as ``History.columns`` gathers its ``F_e12``: per entry
    state, 0 at the negative ages and then the running sum of ``dt g`` over
    the ages before each one, summed from 0 in order as a march of ``F12 +
    dt g`` level by level sums it."""
    levels = int(history.col[0])
    F12 = np.zeros_like(history.source[1]).reshape(-1, 2, levels)
    by_age = F12[:, 1]
    np.multiply(history.dt, history.source[1].reshape(F12.shape)[:, 1, :-1],
                out=by_age[:, 1:])
    np.cumsum(by_age, axis=1, out=by_age)
    return F12.reshape(-1)


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
    the discrete decay remains below the analytic envelope.  A member is
    marched with every check and gate of ``run_non_normal`` but unscored:
    the sweep reads one probe, not the oracle errors.  Returns
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
        dt = min(0.5 * mu / params.G, config.t_end / 64.0)
        cfg = replace(config, params=params, dt=dt)
        res = _run_1d(cfg, _unscored)
        out.append((mu, abs(float(res.probe(probe_x2)["F_e"][0, 1]))))
    return out


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
    gathered through the history's map (``interp_prefix``)."""
    F = np.empty((len(x2), 2, 2))
    for i, j in ((0, 0), (1, 0), (1, 1)):
        F[:, i, j] = level_interp(history, level, x2, history.F_e0[:, i, j])
    F[:, 0, 1] = interp_prefix(x2, history.centers, history.m[level], history.source[0],
                               history.start[level], history.col)
    return F


def level_v1(history: History, level: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """``v1`` at the heights ``x2`` of the stored levels ``level``:
    ``np.interp(x2, faces, History.v_nodes(level))``, bitwise.

    The face velocities are the running sums of ``dx g``, made for a block
    of levels (``block_bounds`` over the sampled levels' span) at a time by
    the march's ``_fill_block``, and only for blocks that hold a sample; no
    scratch exceeds a block's ``BLOCK_CELLS`` cells, and no row is read
    past its level's top face.
    """
    m, faces = history.m, history.faces
    v1 = np.empty(len(x2))
    order = np.argsort(level, kind="stable")
    if not len(order):
        return v1
    span = int(level[order[0]]), int(level[order[-1]]) + 1
    for i0, B in block_bounds(m[span[0]:span[1]], BLOCK_CELLS):
        i0 += span[0]
        a, b = np.searchsorted(level, [i0, i0 + B], sorter=order)
        if a == b:
            continue
        width = int(m[i0 + B - 1]) + 1
        v_nodes = np.empty((B, width))
        _fill_block(history.source, history.start, history.col, np.arange(i0, i0 + B),
                    v_nodes, history.dx)
        idx = order[a:b]
        rows = level[idx]
        v1[idx] = interp_prefix(x2[idx], faces, m[rows] + 1, v_nodes.ravel(),
                                (rows - i0) * width, np.arange(width))
    return v1


def trace_history_pathlines(result: RunResult, count: int = 20) -> list[PathlineRecord]:
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
    running sums over the levels.  So every step's ``g`` and ``v1`` are
    gathered at once (``interp_prefix``, ``level_v1``) and each pathline is
    two ``cumsum`` calls.
    A seed first reached at the last level has no step and is skipped.
    """
    history = result.history
    last = len(history) - 1
    times, heights = history.t, history.H
    x2 = (np.arange(count) + 0.5) * heights[-1] / count
    j0 = np.searchsorted(heights, x2)
    x2, j0 = x2[j0 < last], j0[j0 < last]
    h = (times[-1] - times[j0]) / (last - j0)
    # every step of every pathline, one pathline after another: pathline i
    # steps from the levels j0[i] .. last - 1
    steps = last - j0
    starts = np.cumsum(steps) - steps
    seed = np.repeat(np.arange(len(x2)), steps)
    level = np.arange(len(seed)) - np.repeat(starts - j0, steps)
    z = x2[seed]
    left = z > heights[level + 1] + 1e-9
    if np.any(left):
        raise OutOfDomain(f"characteristic left the body at t = "
                          f"{times[level[left].min() + 1]:g}")
    F0 = level_F_e(history, j0, x2)
    g = interp_prefix(z, history.centers, history.m[level], history.source[1],
                      history.start[level], history.col)
    dF12 = h[seed] * (g * F0[seed, 1, 1])
    dx1 = h[seed] * level_v1(history, level, z)
    pathlines = []
    for i, (j, a, n) in enumerate(zip(j0.tolist(), starts.tolist(), steps.tolist())):
        F = np.empty((n + 1, 2, 2))
        F[:] = F0[i]
        F12 = F[:, 0, 1]
        F12[1:] = dF12[a:a + n]
        np.cumsum(F12, out=F12)
        x1 = np.zeros(n + 1)
        x1[1:] = dx1[a:a + n]
        pathlines.append(PathlineRecord(
            t=times[j] + np.arange(n + 1) * h[i],
            x=np.column_stack([np.cumsum(x1), np.full(n + 1, x2[i])]), F_e=F))
    return pathlines


def pathline_levels(history: History, pathlines) -> tuple[np.ndarray, np.ndarray]:
    """Stored level and clamped height of every pathline sample.

    The samples of all (at least one) pathlines are numbered in order, one
    pathline after another.  A sample's level is the stored level at its
    time, ``rint((t - t0)/dt)`` clamped to the history, and its height is
    clamped to that level's body.  Returns ``(level, x2)``.
    """
    t = np.concatenate([pl.t for pl in pathlines])
    x2 = np.concatenate([pl.x[:, 1] for pl in pathlines])
    times = history.t
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    level = np.clip(np.rint((t - times[0]) / dt), 0, len(times) - 1).astype(int)
    return level, np.minimum(np.maximum(x2, 0.0), history.H[level])


def pathline_grid_discrepancy(result: RunResult, pathlines) -> float:
    """L-infinity gap between grid-transported and characteristic F_e."""
    if not pathlines:
        return 0.0
    level, x2 = pathline_levels(result.history, pathlines)
    F_grid = level_F_e(result.history, level, x2)
    F_char = np.concatenate([pl.F_e for pl in pathlines])
    return float(np.max(np.abs(F_grid - F_char), initial=0.0))


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
    (``_shear_since_entry``).  ``F_relax = F_e^{-1} F`` comes from the
    adjugate, and its 21 entry is 0.  ``NotReduced`` is raised for a nonzero
    ``F_e21``, and ``SingularTensor`` when a level holds a cell with ``|det
    F_e| <= EPS_DET``.
    """
    _, _, det, r11, r22 = _inverse_entry_states(history)
    shear = _shear_since_entry(history)
    frames = []
    for k in range(len(history)):
        m = int(history.m[k])
        index = history.start[k] + history.col[:m]
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
    over the age tables (``_age_rows``; see the README's round trip).
    Raises as ``reconstruct_reference`` does."""
    history = result.history
    states = _inverse_entry_states(history)
    shear = _shear_since_entry(history)
    worst = 0.0
    for first, ages in _age_rows(history):
        a, d, det, r11, r22 = (float(x[first]) for x in states)
        b, f12 = history.source[0, ages], shear[ages]
        # F_e F_relax entry by entry against F = [[1, f12], [0, 1]]; both 21
        # entries are 0
        defect = np.maximum(np.abs(a * (r11 * f12 + -b / det) + b * r22 - f12),
                            max(abs(a * r11 - 1.0), abs(d * r22 - 1.0)))
        worst = max(worst, float(np.max(defect / np.maximum(1.0, np.abs(f12)))))
    return worst
