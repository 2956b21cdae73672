"""Per-cell kernels that the package no longer calls, kept as the references
that its by-age march and checks are compared against."""

from types import SimpleNamespace

import numpy as np

from surfgrow import HistoryPathline
from surfgrow.balance import growth_traction, require_reduced
from surfgrow.constitutive import MaterialParams
from surfgrow.errors import SingularTensor, ValidationError
from surfgrow.grids import interp_prefix
from surfgrow.scenarios import level_v1, pathline_levels
from surfgrow.tensors import EPS_DET


def cell_S22(F22: np.ndarray) -> np.ndarray:
    """Per-cell ``S22 = F_e22^2`` formed with float powers, which the
    reference traction residuals are formed with."""
    return np.array([d ** 2 for d in F22.tolist()])


def first_integral(F12: np.ndarray, F22: np.ndarray, tau1: float,
                   params: MaterialParams) -> np.ndarray:
    """Cell shear rates ``g = v1'`` of the inertia-free momentum balance.

    With ``S = F_e F_e^T`` the tangential balance is the two-point boundary
    value problem ``mu v1'' = -G dS12/dx2``, ``v1(0) = 0``,
    ``mu v1'(H) = tau1 - G S12(H)``, discretized on the cell faces as a
    tridiagonal system (``balance.solve_residuals``).  Its solution is the
    running sum of ``dx g`` from 0, with ``g = (tau1 - G S12) / mu`` the
    scheme's exact discrete first integral, so no matrix is factored and
    the transport source stays accurate in relative terms where the fields
    are exponentially small.  ``S12 = F12 F22`` (``F_e21 = 0``) with
    ``F22`` the cells' constants."""
    return (tau1 - (F12 * F22) * params.G) / params.mu


def reduced_step_1d(F12: np.ndarray, g: np.ndarray, F22, dt: float, n_cells: int,
                    inflow: float) -> np.ndarray:
    """One transport step of the shear ``F12`` of a tensor in the
    through-thickness reduction on the fixed grid: the ``len(F12)`` active
    cells are stepped, and the cells up to ``n_cells`` that the boundary
    reached during the step are appended with the inflow shear ``inflow``.

    With ``v = v1(x2) e1`` the advecting velocity ``v2`` vanishes, so the
    transport has no upwind term and the step is the source update
    ``T + dt (grad v) T``.  The velocity gradient ``g e1 (x) e2`` is rank
    one, so only the first row of ``T`` changes, ``T[0, :] += dt g T[1, :]``;
    with ``T21 = 0`` that leaves ``T11`` as it is and makes the shear
    ``F12 + dt (g F22)``, bitwise the ``(0, 1)`` entry of the full update.
    ``F22`` is the tensor's constant second diagonal entry per cell, or a
    scalar.  Returns a fresh ``(n_cells,)`` array.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    m = len(F12)
    if n_cells < m:
        raise ValidationError(f"the active cells cannot shrink: {m} -> {n_cells}")
    out = np.empty(n_cells)
    out[:m] = F12 + dt * (g * F22)
    out[m:] = inflow
    return out


def replay_columns(history):
    """Replay a stored run level by level: yield ``(f12, F_relax, j)`` for
    every level ``j``, with ``F = I + f12 e1 (x) e2`` and ``F_relax`` the
    tuple of its components ``(11, 12, 22)`` as ``(m,)`` arrays (its 21
    component is 0).

    ``F = I`` at the first level and for each cell as it enters; ``F`` is
    advanced by the stored shear rates ``g`` through ``reduced_step_1d`` with
    the march's ``history.dt``.  ``F_relax = F_e^{-1} F`` comes from the
    adjugate of the level's ``F_e``.  ``NotReduced`` for a nonzero ``F_e21``,
    and ``SingularTensor`` at the first level holding a cell with ``|det
    F_e| <= EPS_DET``.
    """
    F_e0 = require_reduced(history.F_e0)
    a, d = F_e0[:, 0, 0], F_e0[:, 1, 1]
    det = a * d
    f12 = np.zeros(int(history.m[0]))
    for j in range(len(history)):
        b, g_next = history.columns(j)
        m = len(b)
        if np.any(np.abs(det[:m]) <= EPS_DET):
            raise SingularTensor(f"|det| <= {EPS_DET:g} in tensor inversion")
        if j > 0:
            f12 = reduced_step_1d(f12, g, 1.0, history.dt, m, 0.0)
        g = g_next
        # F_e^{-1} = [[d, -b], [0, a]] / det, times [[1, f12], [0, 1]]
        r11 = d[:m] / det[:m]
        yield f12, (r11, r11 * f12 + -b / det[:m], a[:m] / det[:m]), j


# ---------------------------------------------------------------------------
# The block pass: the checks, metrics and oracle formed on padded blocks of
# stored levels, every level's cells gathered through the history's map.
# The package's pass by entry class is compared against it.
# ---------------------------------------------------------------------------

# The round-off the entry-class pass may differ by from the block pass, as
# a multiple of eps: it sums a level's face velocities class by class
# where the block pass runs one sum over the cells, so a face velocity, and
# whatever reads one, moves by at most 16 eps max(1, max |v|), max |v| over
# the level's faces.
ROUNDOFF = 16 * np.finfo(float).eps


def pathline_arrays(pathline) -> tuple[np.ndarray, np.ndarray]:
    """A stored-run pathline's ``(n, 2)`` positions and ``(n, 2, 2)``
    ``F_e``, from its columns: its height and its start's ``F_e11``,
    ``F_e21`` and ``F_e22`` on every sample."""
    n = len(pathline.t)
    F = np.repeat(pathline.F_e0[None], n, axis=0)
    F[:, 0, 1] = pathline.F_e12
    return np.column_stack([pathline.x1, np.full(n, pathline.x2)]), F


def hand_pathline(result, **columns) -> HistoryPathline:
    """A ``HistoryPathline`` of the given ``t``, ``x1``, ``F_e12``, ``x2`` and
    ``F_e0``, whose ``v1`` is ``level_v1``'s at its samples' levels and
    clamped heights (``pathline_levels``), as a trace's is."""
    sample = SimpleNamespace(t=np.asarray(columns["t"], dtype=float), x2=columns["x2"])
    level, x2 = pathline_levels(result.history, [sample])
    return HistoryPathline(v1=level_v1(result.history, level, x2), **columns)


def level_speed(history, levels=None) -> np.ndarray:
    """``max |v|`` over the faces of each stored level (``History.v_nodes``)."""
    levels = range(len(history)) if levels is None else levels
    return np.array([np.abs(history.v_nodes(k)).max() for k in levels])


def velocity_tolerance(speed) -> np.ndarray:
    """``ROUNDOFF max(1, speed)``: how far a velocity read by entry class
    may lie from the running sum over the cells."""
    return ROUNDOFF * np.maximum(1.0, speed)


# Cells a block holds at once: a block takes consecutive stored levels
# while their count times the last level's cells stays within it.
BLOCK_CELLS = 2 ** 15
# The largest span lam (t_last - t_first) of a run of levels whose closed
# form the block oracle separates.
SPAN_EXPONENT = 350.0


def block_bounds(counts: np.ndarray, cells: int) -> list:
    """Split stored levels into blocks, in order, as ``(first level, level
    count)`` pairs.  ``counts`` are the levels' active cells, nondecreasing
    and positive.  A block takes consecutive levels while its level count
    times its last level's cells stays within ``cells``; a level wider than
    ``cells`` is a block of its own."""
    blocks, i0, levels = [], 0, len(counts)
    while i0 < levels:
        span = min(levels - i0, max(1, cells // int(counts[i0])))
        # b levels from i0 take b * counts[i0 + b - 1] cells, increasing in b
        taken = np.arange(1, span + 1) * counts[i0:i0 + span]
        B = max(1, int(np.searchsorted(taken, cells, side="right")))
        blocks.append((i0, B))
        i0 += B
    return blocks


def fill_block(source, start, col, levels, v_nodes, dx):
    """Read a block of stored levels through a run's map, ``source[:,
    start[k] + col[j]]`` for cell ``j`` of level ``k``.  Row ``b`` of
    ``v_nodes``, ``(B, width)``, becomes level ``levels[b]``'s face
    velocities: 0, the running sums of ``dx g`` over its cells, then its top
    value repeated where the map reads zeros past its top.  Returns the
    levels' ``F_e12`` and ``g`` as ``(B, width - 1)`` arrays, each row a
    level's cells and then zeros."""
    index = start[levels, None] + col[:v_nodes.shape[1] - 1]
    F12, g = np.take(source, index, axis=1, mode="clip")
    v_nodes[:, 0] = 0.0
    with np.errstate(invalid="ignore"):
        np.cumsum(g * dx, axis=1, out=v_nodes[:, 1:])
    return F12, g


def solve_residuals(F12, g, counts, v_nodes, S22, F22, tau, params, dx):
    """System and traction residuals of the solve on a stack of ``B``
    levels; the system is ``mu v1'' = -G dS12/dx2``, ``v1(0) = 0``, ``mu
    v1'(H) = tau1 - G S12(H)`` on a level's faces, solved by its first
    integral ``g``.  Row ``b`` of ``F12``, ``(B, max(counts))``, holds level
    ``b``'s shears and then zeros, row ``b`` of ``g`` its shear rates (only
    the top cell's is read) and row ``b`` of ``v_nodes`` its ``counts[b] +
    1`` face velocities and then padding; ``tau`` the ``(B, 2)`` applied top
    tractions.  Returns ``(system_residual, traction_residual)``: the scaled
    system's max-norm residual over ``max(1, max |v|)``, and the top cell's
    stress defect against the applied traction."""
    counts = np.asarray(counts)
    B, m = len(counts), int(counts.max())
    G, mu = params.G, params.mu
    V = v_nodes[:, :m + 1]
    rows, top = np.arange(B), counts - 1
    tau1, tau2 = tau[:, 0], tau[:, 1]
    past = np.greater_equal(np.arange(m), counts[:, None]).ravel()
    S = (np.reshape(F12, (B, m)) * F22[:m]).ravel()
    S12_top = S[rows * m + top]
    # interior face i carries the second-difference balance (entries at and
    # past a level's top are zeroed), the top row the first integral; the
    # differences run over the rows end to end, and no residual reads the
    # entry that spans two rows
    dS = (S[1:] - S[:-1]) * ((G / mu) * dx)
    dv = (V[:, 1:] - V[:, :-1]).ravel()
    interior = (dv[1:] - dv[:-1]) + dS
    interior[past[1:]] = 0.0
    resid = np.zeros(B * m)
    resid[:-1] = np.abs(interior)
    resid_top = np.abs(dv[rows * m + top] - (dx / mu) * (tau1 - G * S12_top))
    v_max = np.maximum(V.max(axis=1), -V.min(axis=1))
    system = (np.maximum(resid.reshape(B, m)[:, :-1].max(axis=1, initial=0.0), resid_top)
              / np.maximum(1.0, v_max))
    S22_top = S22[top]
    p_top = G * S22_top - tau2
    sigma12_top = G * S12_top + mu * g[rows, top]
    sigma22_top = -p_top + G * S22_top
    traction = np.maximum(np.abs(sigma12_top - tau1), np.abs(sigma22_top - tau2))
    return system, traction


def _block_level_max(values, past):
    values = values.copy()
    values[past] = 0.0
    return values.max(axis=1)


def block_score_non_normal(config, t, counts, past, F12, v_nodes, centers):
    """Oracle errors of a block's levels against ``analytic_non_normal``'s
    closed form, separated as ``exp(-lam (t_k - t_s)) exp(-lam (t_s - x_j /
    V_G))`` per run of levels of span at most ``SPAN_EXPONENT``."""
    p = config.params
    lam, V_G, alpha = p.G / p.mu, config.V_G, config.alpha
    decay = np.zeros(F12.shape)
    entry = centers[:decay.shape[1]] / V_G
    first = 0
    while first < len(t):
        end = max(first + 1, int(np.searchsorted(t, t[first] + SPAN_EXPONENT / lam,
                                                  side="right")))
        width = int(counts[end - 1])
        levels = np.exp(-lam * (t[first:end] - t[first]))
        cells = np.exp(-lam * (t[first] - entry[:width]))
        decay[first:end, :width] = levels[:, None] * cells
        first = end
    decay[past] = 0.0
    v1_ref = (decay - np.exp(-lam * t)[:, None]) * (V_G * alpha)
    ef = F12 - decay * -alpha
    v1 = (v_nodes[:, :-1] + v_nodes[:, 1:]) * 0.5 - v1_ref
    ef[past] = 0.0
    return {"linf_F_e12": _block_level_max(np.abs(ef), past),
            "rms_F_e12": np.sqrt(np.square(ef).sum(axis=1) / counts),
            "linf_v1": _block_level_max(np.abs(v1), past)}


def block_score_steady(config, past, F12, g, v_nodes, F_e0, p_cells):
    """Oracle errors of a block's levels against the exact steady state:
    every cell at the uniform shear ``tau1 / G``, ``sigma12 = tau1`` and
    ``sigma11 = tau1^2 / G`` (``tau1 = M v0`` for ``fdm_shear``, 0 for
    ``thermal``)."""
    G, mu = config.params.G, config.params.mu
    tau1 = config.mass_rate * config.v0 if config.kind == "fdm_shear" else 0.0
    m = F12.shape[1]
    F11, F22 = F_e0[:m, 0, 0], F_e0[:m, 1, 1]
    sigma11 = G * (F11 * F11 + F12 * F12) - p_cells[:m]
    sigma12 = G * (F12 * F22) + 2.0 * mu * (0.5 * g)
    return {"linf_F_e12": _block_level_max(np.abs(F12 - tau1 / G), past),
            "linf_v1": np.abs(v_nodes).max(axis=1),
            "linf_sigma12": _block_level_max(np.abs(sigma12 - tau1), past),
            "linf_sigma11": _block_level_max(np.abs(sigma11 - tau1 ** 2 / G), past)}


def block_columns(config, history, cells=BLOCK_CELLS):
    """The per-level columns the block pass forms from a stored run's age
    tables, one block of ``block_bounds(history.m, cells)`` at a time:
    ``(v_surf, metrics, oracle_errors)``, with ``metrics`` the system,
    traction, mass and momentum residuals.  Every level is formed; nothing
    is gated."""
    params = config.params
    G, mu, M = params.G, params.mu, config.mass_rate
    # material attaches at v_a = (v0, 0) for fdm_shear, else at the body's
    # velocity; no kind has an ambient traction t_b
    v_a0 = np.array([config.v0, 0.0]) if config.kind == "fdm_shear" else None
    t_b = np.zeros(2)
    m, dx, t = history.m, history.dx, history.t
    F_e0, p_cells, rho = history.F_e0, history.p, history.rho
    F22 = F_e0[:, 1, 1].copy()
    S22 = cell_S22(F22)
    levels = len(m)
    tau = np.empty((levels, 2))
    tau[:] = t_b if v_a0 is None else growth_traction(M, v_a0, np.zeros(2), t_b)
    v_surf = np.empty(levels)
    names = ("system_residual", "traction_residual", "mass_residual", "momentum_residual")
    metrics = {name: np.empty(levels) for name in names}
    oracle = {}
    for i0, B in block_bounds(m, cells):
        rows = slice(i0, i0 + B)
        counts = m[rows]
        width = int(counts[-1])
        v_nodes = np.empty((B, width + 1))
        F12, g = fill_block(history.source, history.step - history.first, history.col,
                            np.arange(i0, i0 + B), v_nodes, dx)
        v_surf[rows] = v_nodes[np.arange(B), counts]
        if v_a0 is not None:
            tau[rows, 0] = growth_traction(M, v_a0[0], v_surf[rows], t_b[0])
        system, traction = solve_residuals(F12, g, counts, v_nodes, S22, F22, tau[rows],
                                           params, dx)
        metrics["system_residual"][rows] = system
        metrics["traction_residual"][rows] = traction
        # the top cells' mass and momentum jump residuals against the
        # ambient side, in the operations of total_stress and jump_residuals
        top, b = counts - 1, np.arange(B)
        F11, F22_top, p_top = F_e0[top, 0, 0], F_e0[top, 1, 1], p_cells[top]
        F12_top, g_top, v = F12[b, top], g[b, top], v_surf[rows]
        v_a = v if v_a0 is None else v_a0[0]
        sigma11 = G * (F11 * F11 + F12_top * F12_top) - p_top
        sigma12 = G * (F12_top * F22_top) + 2.0 * mu * (0.5 * g_top)
        sigma22 = G * (F22_top * F22_top) - p_top
        flux = rho[top] * (M / rho[top])
        momentum1 = ((flux * v + (sigma11 * 0.0 + sigma12)) - t_b[0]) - M * v_a
        momentum2 = (sigma12 * 0.0 + sigma22) - t_b[1]
        metrics["mass_residual"][rows] = np.abs(flux - M)
        metrics["momentum_residual"][rows] = np.maximum(np.abs(momentum1),
                                                        np.abs(momentum2))
        past = np.greater_equal(np.arange(width), counts[:, None])
        if config.kind == "non_normal":
            scores = block_score_non_normal(config, t[rows], counts, past, F12, v_nodes,
                                            history.centers)
        else:
            scores = block_score_steady(config, past, F12, g, v_nodes, F_e0, p_cells)
        for name, values in scores.items():
            oracle.setdefault(name, np.empty(levels))[rows] = values
    return v_surf, metrics, oracle


def block_v1(history, level, x2, cells=BLOCK_CELLS):
    """``v1`` at the heights ``x2`` of the stored levels ``level`` from the
    block pass's face velocities: ``np.interp(x2, faces,
    History.v_nodes(level))``, bitwise."""
    m, faces = history.m, history.faces
    v1 = np.empty(len(x2))
    order = np.argsort(level, kind="stable")
    if not len(order):
        return v1
    span = int(level[order[0]]), int(level[order[-1]]) + 1
    for i0, B in block_bounds(m[span[0]:span[1]], cells):
        i0 += span[0]
        a, b = np.searchsorted(level, [i0, i0 + B], sorter=order)
        if a == b:
            continue
        width = int(m[i0 + B - 1]) + 1
        v_nodes = np.empty((B, width))
        fill_block(history.source, history.step - history.first, history.col,
                   np.arange(i0, i0 + B), v_nodes, history.dx)
        idx = order[a:b]
        rows = level[idx]
        v1[idx] = interp_prefix(x2[idx], faces, m[rows] + 1, v_nodes.ravel(),
                                (rows - i0) * width, np.arange(width))
    return v1
