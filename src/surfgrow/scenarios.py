"""End-to-end growth scenarios, their oracles, and convergence studies.

Three through-thickness scenarios are bundled:

``non_normal``
    Accretion of layers whose attachment elastic deformation is a unit
    shear ``[[1, -alpha], [0, 1]]`` on a clamped substrate, traction-free
    surface, viscous regularization.  Has a closed-form solution used as
    the oracle.

``fdm_shear``
    Layer-by-layer deposition with horizontal feed velocity: the momentum
    flux of arriving material shears the body.  The steady uniform-shear
    state is exact on any grid.

``thermal``
    Deposition with an isotropic attachment mismatch ``F_e = (1/alpha) I``
    (material shrinks after attachment).  No closed form; verified by
    properties.

Each scenario marches on one fixed Eulerian grid whose ``n_cells`` cells
fill the final body ``[0, H(t_end)]``.  A cell is active once the body
height ``H(t_k)`` reaches its center.  A step solves the quasistatic
momentum balance on the active cells, applies the explicit source update
of F_e to them (the reduction has no advecting velocity) and appends the
cells the boundary reached with the attachment value; nothing is
interpolated.  Only the shear ``F_e12`` evolves, so it is the march's
state: the other components of each cell's F_e, its pressure and its
density are per-run constants, built once as read-only arrays of which
each stored level holds a view.  Levels with no active cell (a body grown
from nothing, before the front reaches the first center) are not stored.
The step loop only solves, checks the solve's residuals and records the
level.  The jump, determinant and pressure metrics and the oracle errors
are computed after the march from the stored fields, ``BLOCK_LEVELS``
levels per numpy call, the cells of a block's levels concatenated and
reduced level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .balance import (GrowthInput, SideState, advance_domain,
                      boundary_normal_velocity, growth_traction, jump_residuals,
                      normal_pressure, quasistatic_momentum_solve_1d)
from .constitutive import (AttachmentSpec, MaterialParams,
                           attach_elastic_deformation, total_stress)
from .errors import (IncompatibleAnsatz, NoOracle, OutOfBody, OutOfDomain,
                     SurfgrowError, ValidationError)
from .grids import Grid1D, StepRecord, interp_columns
from .kinematics import PathlineRecord, reduced_step_1d, replay_columns
from .tensors import det, identity

KINDS = ("non_normal", "fdm_shear", "thermal")

# Residual levels beyond which the through-thickness reduction is deemed
# inconsistent rather than merely inaccurate.
ANSATZ_RESIDUAL_LIMIT = 1e-6
# Stored levels stacked into one array per numpy call when a run is scored.
BLOCK_LEVELS = 16


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
    mu_sweep: tuple[float, ...] | None = None
    n_snapshots: int = 11

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("alpha", "H0", "V_G", "h", "v0", "L", "dt", "t_end"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
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
        if self.kind == "thermal" and not self.alpha > 0:
            raise ValidationError(f"alpha must be positive for thermal, got {self.alpha}")
        if self.height0 < 0:
            raise ValidationError(f"H0 must be nonnegative, got {self.H0}")
        if self.n_snapshots < 1:
            raise ValidationError("n_snapshots must be >= 1")
        if self.mu_sweep is not None and not (
                len(self.mu_sweep) > 0
                and all(math.isfinite(mu) and mu > 0 for mu in self.mu_sweep)):
            raise ValidationError(f"mu_sweep must be a nonempty list of finite "
                                  f"positive viscosities, got {self.mu_sweep}")
        if self.kind == "non_normal" and self.height0 > 0:
            raise ValidationError("H0 must be 0 for non_normal: its closed-form "
                                  "oracle assumes a body grown from nothing")
        dt, _ = self.resolve_dt()
        if dt > self.relaxation_bound:
            raise ValidationError(
                f"dt = {dt:g} exceeds the explicit relaxation bound "
                f"mu / (G F_e22^2) = {self.relaxation_bound:g}")

    @property
    def height0(self) -> float:
        if self.H0 is not None:
            return self.H0
        return {"non_normal": 0.0, "fdm_shear": 1.0, "thermal": 0.5}[self.kind]

    @property
    def relaxation_bound(self) -> float:
        """Largest step ``mu / (G F_e22^2)`` whose explicit relaxation factor
        ``1 - G dt F_e22^2 / mu`` on F_e12 is nonnegative; thermal deposits
        carry ``F_e22^2 = max(1, alpha^-2)``, the other kinds 1."""
        F22_sq = max(1.0, self.alpha ** -2) if self.kind == "thermal" else 1.0
        return self.params.mu / (self.params.G * F22_sq)

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
        n_steps = max(1, int(math.ceil(self.t_end / base - 1e-12)))
        return self.t_end / n_steps, n_steps

    def sweep_values(self) -> tuple[float, ...]:
        if self.mu_sweep is not None:
            return self.mu_sweep
        scale = self.params.G * self.t_end
        return tuple(c * scale for c in (1.0, 0.3, 0.1, 0.03, 0.01))


@dataclass
class ConvergenceRow:
    n_cells: int
    dt: float
    linf: float
    l2: float
    order: float | None


@dataclass
class RunResult:
    """Full-resolution history of one run plus derived diagnostics."""

    config: ScenarioConfig
    history: list[StepRecord]
    oracle_errors: dict[str, np.ndarray] = field(default_factory=dict)
    pathlines: list[PathlineRecord] = field(default_factory=list)
    convergence: list[ConvergenceRow] = field(default_factory=list)

    @property
    def final(self) -> StepRecord:
        return self.history[-1]

    def max_metric(self, name: str) -> float:
        return max(rec.metrics[name] for rec in self.history)

    def probe(self, x2: float, record: StepRecord | None = None) -> dict:
        """Interpolated field values at one height (clamped to the body)."""
        rec = record if record is not None else self.final
        xq = np.array([min(max(x2, 0.0), rec.grid.height)])
        F = _interp_F_e(rec, xq)[0]
        p = float(np.interp(xq, rec.grid.centers, rec.p)[0])
        v1 = float(np.interp(xq, rec.grid.faces, rec.v_nodes)[0])
        return {"F_e": F, "p": p, "v1": v1}


def _interp_F_e(rec: StepRecord, xq: np.ndarray) -> np.ndarray:
    """A level's F_e interpolated at the heights ``xq`` from its columns
    (the record's F_e is not built)."""
    columns = np.stack(rec.F_e_columns(), axis=1)
    return interp_columns(xq, rec.grid.centers, columns).reshape(len(xq), 2, 2)


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
    top = V_G * t
    if np.any(x2a < -1e-12) or np.any(x2a > top * (1 + 1e-12) + 1e-15):
        raise OutOfBody(f"x2 outside [0, V_G t] = [0, {np.max(top):g}]")
    lam = G / mu
    age = t - x2a / V_G
    decay = np.exp(-lam * age)
    F_e12 = -alpha * decay
    v1 = V_G * alpha * (decay - np.exp(-lam * t))
    if np.ndim(v1) == 0:
        return float(v1), float(F_e12), float(G)
    return v1, F_e12, np.full_like(v1, float(G))


def _ambient_stress(t_b: np.ndarray) -> np.ndarray:
    # Symmetric ambient stress whose traction on n = e2 is t_b.
    return np.array([[0.0, t_b[0]], [t_b[0], t_b[1]]])


def _by_blocks(history: list[StepRecord], score) -> dict[str, np.ndarray]:
    """Per-level columns of ``score(block)``, which maps up to
    ``BLOCK_LEVELS`` consecutive stored levels to ``{name: (B,) array}``."""
    parts = [score(history[start:start + BLOCK_LEVELS])
             for start in range(0, len(history), BLOCK_LEVELS)]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _cells(block: list[StepRecord], name: str) -> np.ndarray:
    """The per-cell arrays ``name`` of a block's levels, concatenated."""
    return np.concatenate([getattr(rec, name) for rec in block])


def _F_e_cells(block: list[StepRecord]) -> np.ndarray:
    """The ``(2, 2)`` elastic deformations of a block's cells, concatenated,
    assembled from the records' columns (no record's ``F_e`` is built)."""
    F_e = _cells(block, "F_e0")
    F_e[:, 0, 1] = _cells(block, "F_e12")
    return F_e


def _starts(counts: np.ndarray) -> np.ndarray:
    """Offset of each level's first entry among the concatenated entries."""
    return np.cumsum(counts) - counts


def _level_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-level maximum of concatenated per-cell values (every count >= 1)."""
    return np.maximum.reduceat(values, _starts(counts))


def _cell_counts(block: list[StepRecord]) -> np.ndarray:
    return np.array([rec.grid.n_cells for rec in block])


def _score_levels(config: ScenarioConfig, history: list[StepRecord]) -> None:
    """Add the jump, determinant and pressure metrics to every stored level.

    The jump residuals are those of the top cell against the ambient side;
    ``det_drift``, ``max_F_e21`` and ``max_p_dev`` range over all cells.
    """
    params = config.params
    M = config.mass_rate
    growth = config.growth_input()
    n_hat = np.array([0.0, 1.0])
    ambient_sigma = _ambient_stress(growth.t_b)

    def score(block):
        counts = _cell_counts(block)
        top = np.cumsum(counts) - 1
        F_e = _F_e_cells(block)
        p = _cells(block, "p")
        rho_top = np.array([rec.rho[-1] for rec in block])
        v_surf = np.zeros((len(block), 2))
        v_surf[:, 0] = [rec.v_surf for rec in block]
        v_a = growth.v_a if growth.v_a is not None else v_surf
        V_b = np.zeros((len(block), 2))
        V_b[:, 1] = boundary_normal_velocity(M, rho_top, v_surf, n_hat)
        grad_v_top = np.zeros((len(block), 2, 2))
        grad_v_top[:, 0, 1] = [rec.g[-1] for rec in block]
        sigma_top = total_stress(F_e[top], grad_v_top, p[top], params)
        body = SideState(rho=rho_top, v=v_surf, sigma=sigma_top)
        ambient = SideState(rho=0.0, v=v_a, sigma=ambient_sigma)
        mass_res, mom_res = jump_residuals(body, ambient, V_b, n_hat, M, v_a)
        return {
            "t": np.array([rec.t for rec in block]),
            "H": np.array([rec.grid.height for rec in block]),
            "mass_residual": np.abs(mass_res),
            "momentum_residual": np.max(np.abs(mom_res), axis=1),
            "det_drift": _level_max(np.abs(det(F_e) - 1.0), counts),
            "max_F_e21": _level_max(np.abs(F_e[:, 1, 0]), counts),
            "max_p_dev": _level_max(np.abs(p - params.G), counts),
        }

    columns = {name: col.tolist() for name, col in _by_blocks(history, score).items()}
    for k, rec in enumerate(history):
        rec.metrics.update((name, col[k]) for name, col in columns.items())


def _run_1d(config: ScenarioConfig, initial_F_e12: float | None = None) -> RunResult:
    params = config.params
    H0 = config.height0
    rate = config.boundary_rate
    M = config.mass_rate
    dt, n_steps = config.resolve_dt()
    growth = config.growth_input()
    F_att = growth.F_e_attach
    t_b = growth.t_b
    grid = config.eulerian_grid()
    centers = grid.centers

    def n_active(H):
        # the cells whose centers the body has reached
        return int(np.searchsorted(centers, H, side="right"))

    H = H0
    m = n_active(H)
    v_surf_prev = np.zeros(2)

    def traction_now():
        if growth.v_a is None:
            return t_b.copy()
        return growth_traction(M, growth.v_a, v_surf_prev, t_b)

    # Per-cell constants of the run, each one read-only array of which every
    # record holds a view of its active prefix.  Only F_e12 evolves: F_e0 is
    # each cell's F_e when it entered the run, the initial body at rest (or,
    # with the one-shot equilibration, in the sheared state consistent with
    # the surface momentum flux at t = 0+) and every later cell at its
    # attachment value.  The pressure depends on F_e0's second row and on
    # tau2 = t_b2 (the attachment velocity has no normal component), and
    # rho keeps its attachment value (v2 = 0, no compression).
    F_e0 = np.empty((grid.n_cells, 2, 2))
    F_e0[:m] = identity((m,))
    F_e0[m:] = F_att
    if initial_F_e12 is not None:
        F_e0[:m, 0, 1] = initial_F_e12
    p = normal_pressure(F_e0, params.G, traction_now()[1])
    rho = np.full(grid.n_cells, params.rho)
    for constant in (F_e0, p, rho):
        constant.flags.writeable = False
    F12 = F_e0[:m, 0, 1].copy()
    g = np.zeros(m)
    records: list[StepRecord] = []

    def solve_and_record(k, t):
        nonlocal v_surf_prev
        tau = traction_now()
        level = Grid1D(m, H, grid.dx)
        sol = quasistatic_momentum_solve_1d(F12, F_e0[:m], level, params, tau)
        residual = max(sol.traction_residual, sol.system_residual)
        if residual > ANSATZ_RESIDUAL_LIMIT:
            raise IncompatibleAnsatz(
                f"reduced solve residual {residual:.3e}; the through-thickness "
                f"ansatz is inconsistent")
        v_surf = float(sol.v_nodes[-1])
        records.append(StepRecord(
            t=t, step=k, grid=level, F_e12=F12, g=sol.g, F_e0=F_e0[:m], p=p[:m],
            rho=rho[:m], v_surf=v_surf,
            metrics={"traction_residual": sol.traction_residual,
                     "system_residual": sol.system_residual}))
        v_surf_prev = np.array([v_surf, 0.0])
        return sol

    # Step k solves at t = k dt on the cells active at H(t_k) and advances
    # to (k + 1) dt; the closing solve at t_end is step n_steps.
    k, t = 0, 0.0
    try:
        for k in range(n_steps + 1):
            t = k * dt
            if m:
                g = solve_and_record(k, t).g
            if k == n_steps:
                break
            H = advance_domain(H0, rate, dt, n_steps=k + 1)
            m_next = n_active(H)
            F12 = reduced_step_1d(F12, g, F_e0[:m, 1, 1], dt, m_next, F_att[0, 1])
            m = m_next
    except SurfgrowError as exc:
        raise type(exc)(f"step {k}, t = {t:.6g}: {exc}") from exc
    _score_levels(config, records)
    return RunResult(config=config, history=records)


def _attach_oracle_errors_non_normal(result: RunResult) -> None:
    cfg = result.config
    p = cfg.params
    # every level's centers are a prefix of the final level's
    centers = result.history[-1].grid.centers

    def score(block):
        counts = _cell_counts(block)
        t = np.repeat([rec.t for rec in block], counts)
        x = np.concatenate([centers[:m] for m in counts])
        v1_ref, f_ref, p_ref = analytic_non_normal(x, t, cfg.alpha, p.G, p.mu, cfg.V_G)
        ef = _cells(block, "F_e12") - f_ref
        # face averages, less the pairs that straddle two levels
        v_nodes = _cells(block, "v_nodes")
        v1 = np.delete(0.5 * (v_nodes[:-1] + v_nodes[1:]), np.cumsum(counts + 1)[:-1] - 1)
        return {"linf_F_e12": _level_max(np.abs(ef), counts),
                # np.mean's sum per level: np.add.reduceat sums in another order
                "rms_F_e12": np.sqrt([e.sum() / e.size
                                      for e in np.split(ef ** 2, _starts(counts)[1:])]),
                "linf_v1": _level_max(np.abs(v1 - v1_ref), counts),
                "linf_p": _level_max(np.abs(_cells(block, "p") - p_ref), counts)}

    result.oracle_errors = {"t": np.array([rec.t for rec in result.history]),
                            **_by_blocks(result.history, score)}


def _attach_oracle_errors_fdm(result: RunResult) -> None:
    cfg = result.config
    G = cfg.params.G
    M = cfg.mass_rate
    gamma = M * cfg.v0 / G
    s12_ref, s11_ref = M * cfg.v0, (M * cfg.v0) ** 2 / G

    def score(block):
        counts = _cell_counts(block)
        F_e = _F_e_cells(block)
        grad_v = np.zeros(F_e.shape)
        grad_v[..., 0, 1] = _cells(block, "g")
        sigma = total_stress(F_e, grad_v, _cells(block, "p"), cfg.params)
        return {"linf_F_e12": _level_max(np.abs(F_e[..., 0, 1] - gamma), counts),
                "linf_v1": _level_max(np.abs(_cells(block, "v_nodes")), counts + 1),
                "linf_sigma12": _level_max(np.abs(sigma[..., 0, 1] - s12_ref), counts),
                "linf_sigma11": _level_max(np.abs(sigma[..., 0, 0] - s11_ref), counts)}

    result.oracle_errors = {"t": np.array([rec.t for rec in result.history]),
                            **_by_blocks(result.history, score)}


def run_non_normal(config: ScenarioConfig) -> RunResult:
    """March the sheared-attachment scenario and score it against the oracle."""
    if config.kind != "non_normal":
        raise ValidationError(f"config.kind must be 'non_normal', got {config.kind!r}")
    result = _run_1d(config)
    _attach_oracle_errors_non_normal(result)
    return result


def run_fdm_shear(config: ScenarioConfig) -> RunResult:
    """March the deposition-with-shear scenario.

    The initial condition applies the jump equilibration: at ``t = 0+`` the
    whole body carries the uniform shear ``M v0 / G`` consistent with the
    momentum flux of arriving material.
    """
    if config.kind != "fdm_shear":
        raise ValidationError(f"config.kind must be 'fdm_shear', got {config.kind!r}")
    gamma = config.mass_rate * config.v0 / config.params.G
    result = _run_1d(config, initial_F_e12=gamma)
    _attach_oracle_errors_fdm(result)
    return result


def run_thermal(config: ScenarioConfig) -> RunResult:
    """March deposition with isotropic attachment mismatch (property-verified)."""
    if config.kind != "thermal":
        raise ValidationError(f"config.kind must be 'thermal', got {config.kind!r}")
    return _run_1d(config)


def run_scenario(config: ScenarioConfig) -> RunResult:
    return {"non_normal": run_non_normal, "fdm_shear": run_fdm_shear,
            "thermal": run_thermal}[config.kind](config)


def run_mu_sweep(config: ScenarioConfig, probe_x2: float = 0.25,
                 mu_values: tuple[float, ...] | None = None):
    """Quasistatic-limit sweep: rerun ``non_normal`` over decreasing viscosity.

    Each member uses ``dt = min(mu/(2G), t_end/64)`` so the explicit
    relaxation factor ``1 - G dt / mu`` stays within the stability range and
    the discrete decay remains below the analytic envelope.  Returns
    ``[(mu, |F_e12|(probe_x2, t_end)), ...]``.
    """
    if config.kind != "non_normal":
        raise ValidationError("the viscosity sweep applies to the non_normal kind")
    if mu_values is not None:  # validated as the config's own sweep is
        config = replace(config, mu_sweep=tuple(mu_values))
    mus = config.sweep_values()
    out = []
    for mu in mus:
        params = replace(config.params, mu=mu)
        dt = min(0.5 * mu / params.G, config.t_end / 64.0)
        cfg = replace(config, params=params, dt=dt)
        res = run_non_normal(cfg)
        out.append((mu, abs(float(res.probe(probe_x2)["F_e"][0, 1]))))
    return out


def convergence_study(config: ScenarioConfig, resolutions) -> list[ConvergenceRow]:
    """Refinement study against the scenario oracle (dt scales with 1/n)."""
    if config.kind == "thermal":
        raise NoOracle("the thermal scenario has no closed-form oracle")
    rows: list[ConvergenceRow] = []
    for n in resolutions:
        cfg = replace(config, n_cells=int(n), dt=None)
        dt, _ = cfg.resolve_dt()
        res = run_scenario(cfg)
        if config.kind == "non_normal":
            linf = float(np.max(res.oracle_errors["linf_F_e12"]))
            l2 = float(np.max(res.oracle_errors["rms_F_e12"]))
        else:
            linf = max(float(np.max(res.oracle_errors[k]))
                       for k in ("linf_F_e12", "linf_v1", "linf_sigma12",
                                 "linf_sigma11"))
            l2 = linf
        order = None
        if rows and rows[-1].linf > 0 and linf > 0:
            order = math.log2(rows[-1].linf / linf)
        rows.append(ConvergenceRow(n_cells=int(n), dt=dt, linf=linf, l2=l2,
                                   order=order))
    return rows


# ---------------------------------------------------------------------------
# Pathlines against a stored run
# ---------------------------------------------------------------------------

def trace_history_pathlines(result: RunResult, count: int = 20) -> list[PathlineRecord]:
    """Integrate characteristics through the stored velocity history.

    Seeds are spread through the final body; each pathline starts at the
    first stored level whose body contains the seed height, with the grid
    field interpolated there as its starting F_e.  With ``v = v1(x2) e1`` a
    pathline keeps its height, so each explicit midpoint (RK2) step samples
    one stored level (``v1`` at the faces, the shear rate ``g`` at the
    face-padded cell centers) and lands on the next: all seeds advance
    together, one array step per level, and sample times coincide with the
    stored levels.
    A seed first reached at the last level has no step and is skipped.
    """
    history = result.history
    last = len(history) - 1
    times = np.array([rec.t for rec in history])
    heights = np.array([rec.grid.height for rec in history])
    x2 = (np.arange(count) + 0.5) * heights[-1] / count
    j0 = np.searchsorted(heights, x2)
    x2, j0 = x2[j0 < last], j0[j0 < last]
    h = (times[-1] - times[j0]) / (last - j0)
    x1s = np.zeros((last + 1, len(x2)))
    Fs = np.zeros((last + 1, len(x2), 2, 2))
    for i, j in enumerate(j0):
        Fs[j, i] = _interp_F_e(history[j], x2[i:i + 1])[0]
    for j in range(j0.min(initial=last), last):
        rec = history[j]
        # seeds ascend in height and so in start level: the active ones
        # are a prefix
        on = slice(0, int(np.searchsorted(j0, j, side="right")))
        z = x2[on]
        g = np.interp(z, np.concatenate([[0.0], rec.grid.centers, [rec.grid.height]]),
                      np.concatenate([rec.g[:1], rec.g, rec.g[-1:]]))
        L = np.zeros((len(z), 2, 2))
        L[:, 0, 1] = g
        hj = h[on, None, None]
        F = Fs[j, on]
        F_mid = F + 0.5 * hj * (L @ F)
        Fs[j + 1, on] = F + hj * (L @ F_mid)
        x1s[j + 1, on] = x1s[j, on] + h[on] * np.interp(z, rec.grid.faces, rec.v_nodes)
        if np.any(z > heights[j + 1] + 1e-9):
            raise OutOfDomain(f"characteristic left the body at t = {times[j + 1]:g}")
    return [PathlineRecord(t=times[j] + np.arange(last + 1 - j) * h[i],
                           x=np.column_stack([x1s[j:, i], np.full(last + 1 - j, x2[i])]),
                           F_e=Fs[j:, i].copy())
            for i, j in enumerate(j0)]


def pathline_levels(history, pathlines):
    """Stored level and clamped height of every pathline sample.

    The samples of all (at least one) pathlines are numbered in order, one
    pathline after another.  A sample's level is the stored level at its
    time, ``rint((t - t0)/dt)`` clamped to the history, and its height is
    clamped to that level's body.  Returns ``(x2, groups)``: the clamped
    heights and, for each level that holds samples, in ascending order,
    ``(level, sample indices)``.
    """
    t = np.concatenate([pl.t for pl in pathlines])
    x2 = np.concatenate([pl.x[:, 1] for pl in pathlines])
    t0 = history[0].t
    dt = history[1].t - history[0].t if len(history) > 1 else 1.0
    level = np.clip(np.rint((t - t0) / dt), 0, len(history) - 1).astype(int)
    heights = np.array([rec.grid.height for rec in history])
    x2 = np.minimum(np.maximum(x2, 0.0), heights[level])
    order = np.argsort(level, kind="stable")
    levels, starts = np.unique(level[order], return_index=True)
    groups = list(zip(levels.tolist(), np.split(order, starts[1:])))
    return x2, groups


def pathline_grid_discrepancy(result: RunResult, pathlines) -> float:
    """L-infinity gap between grid-transported and characteristic F_e."""
    if not pathlines:
        return 0.0
    x2, groups = pathline_levels(result.history, pathlines)
    F_grid = np.empty((len(x2), 2, 2))
    for j, idx in groups:
        F_grid[idx] = _interp_F_e(result.history[j], x2[idx])
    F_char = np.concatenate([pl.F_e for pl in pathlines])
    return float(np.max(np.abs(F_grid - F_char), initial=0.0))


def reconstruction_roundtrip_error(result: RunResult, t0: float | None = None) -> float:
    """Max relative defect of F_e F_relax against the replayed F.

    Each replayed level is scored from its components as it arrives and
    then dropped, so the check holds one level of the replay at a time.
    """
    worst = 0.0
    for f12, (r11, r12, r21, r22), rec in replay_columns(result.history, t0=t0):
        a, b, c, d = rec.F_e_columns()
        # F_e F_relax entry by entry, against F = [[1, f12], [0, 1]]
        defect = max(float(np.max(np.abs(a * r11 + b * r21 - 1.0))),
                     float(np.max(np.abs(a * r12 + b * r22 - f12))),
                     float(np.max(np.abs(c * r11 + d * r21))),
                     float(np.max(np.abs(c * r12 + d * r22 - 1.0))))
        worst = max(worst, defect / max(1.0, float(np.max(np.abs(f12)))))
    return worst
