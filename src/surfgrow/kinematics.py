"""Transport of the elastic deformation and related kinematic machinery.

The elastic deformation ``F_e`` obeys the tensor advection equation

    dF_e/dt + (v . grad) F_e = (grad v) F_e,

the same equation satisfied by the full deformation gradient ``F``; the
zero-stress shape ``F_relax`` rides along pathlines unchanged.  Accretion
makes the growing boundary an inflow for this equation (a boundary value
is required); ablation is an outflow (none is).

Grid transport uses first-order upwinding plus forward-Euler source
integration.  In the through-thickness reduction the advecting velocity
``v2`` is zero, so the growth march keeps only the source update
(``reduced_step_1d``), where the rank-one gradient ``g e1 (x) e2`` changes
only the first row of the transported tensor, and with ``F_e21 = 0`` only
its shear: the march and the replay step that one scalar per cell.  The
march's grid is fixed in space: a step updates the active cells where they
sit and appends the cells the growing boundary reached with the inflow
value, with no interpolation.  Characteristic transport integrates the equivalent ODE
system along pathlines with an explicit midpoint (RK2) scheme (``integrate_characteristics``, for any velocity
sampler).  In the reduction a pathline keeps its height, so the scenarios
trace theirs with the same scheme as one array march over the stored
levels (``scenarios.trace_history_pathlines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (CFLViolation, GrowthNotSupported, MissingInflowBC,
                     OutOfDomain, SingularTensor, ValidationError)
from .grids import Grid1D, PeriodicStrip, StepRecord
from .tensors import EPS_DET, identity, inverse, require_finite

CFL_LIMIT = 0.9

# sampler(x, t) -> (v, grad_v) with v shape (2,) and grad_v shape (2, 2)
VelocitySampler = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]


@dataclass
class PathlineRecord:
    """A characteristic curve: times, positions, and F_e along it."""

    t: np.ndarray
    x: np.ndarray
    F_e: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.F_e = np.asarray(self.F_e, dtype=float)
        if np.any(np.diff(self.t) <= 0):
            raise ValidationError("pathline sample times must be strictly increasing")


def _check_cfl(speed: float, dx: float, dt: float) -> None:
    if speed * dt > CFL_LIMIT * dx * (1.0 + 1e-12):
        raise CFLViolation(
            f"max|v| dt / dx = {speed * dt / dx:.3f} exceeds {CFL_LIMIT}")


def _upwind_term_1d(comps: np.ndarray, v2: np.ndarray, dx: float,
                    top_ghost: np.ndarray | None) -> np.ndarray:
    """(v . grad) of stacked cell components on the x2 grid.

    Ghost cells extrapolate linearly from the interior (a replicated ghost
    would zero the wall-cell gradient and leave a resolution-independent
    kink there); the ghost above the top face is ``top_ghost`` when
    supplied (inflow value) instead.
    """
    below = np.concatenate([(2.0 * comps[:1] - comps[1:2]), comps[:-1]], axis=0)
    if top_ghost is None:
        above = np.concatenate([comps[1:], 2.0 * comps[-1:] - comps[-2:-1]], axis=0)
    else:
        above = np.concatenate([comps[1:], top_ghost[None, :]], axis=0)
    backward = (comps - below) / dx
    forward = (above - comps) / dx
    v2c = v2[:, None]
    return np.where(v2c > 0, v2c * backward, v2c * forward)


def _transport_step_1d(tensor_field: np.ndarray, v: np.ndarray, grad_v: np.ndarray,
                       grid: Grid1D, dt: float, inflow_bc: np.ndarray | None,
                       mass_rate: float) -> np.ndarray:
    """General upwind/Euler transport step on the x2 grid (reference kernel).

    The CFL bound is checked against ``v2``, the only advecting component;
    ``inflow_bc`` is required while the top boundary accretes.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    v2 = np.asarray(v, dtype=float)[:, 1]
    _check_cfl(float(np.max(np.abs(v2))), grid.dx, dt)
    if mass_rate > 0 and inflow_bc is None:
        raise MissingInflowBC("accreting boundary requires an inflow tensor value")
    T = np.asarray(tensor_field, dtype=float)
    source = np.asarray(grad_v, dtype=float) @ T
    comps = T.reshape(T.shape[0], 4)
    ghost = None
    if inflow_bc is not None:
        ghost = np.asarray(inflow_bc, dtype=float).reshape(4)
    adv = _upwind_term_1d(comps, v2, grid.dx, ghost).reshape(T.shape)
    return T + dt * (source - adv)


def reduced_step_1d(F12: np.ndarray, g: np.ndarray, F22, dt: float, n_cells: int,
                    inflow: float) -> np.ndarray:
    """One transport step of the shear ``F12`` of a tensor in the
    through-thickness reduction on the fixed grid: the ``len(F12)`` active
    cells are stepped, and the cells up to ``n_cells`` that the boundary
    reached during the step are appended with the inflow shear ``inflow``.

    With ``v = v1(x2) e1`` the advecting velocity ``v2`` vanishes, so the
    upwind term of ``_transport_step_1d`` is exactly zero and the step is
    the source update ``T + dt (grad v) T``.  The velocity gradient
    ``g e1 (x) e2`` is rank one, so only the first row of ``T`` changes,
    ``T[0, :] += dt g T[1, :]``; with ``T21 = 0`` that leaves ``T11``
    as it is and makes the shear ``F12 + dt (g F22)``, bitwise the ``(0, 1)``
    entry of the full update.  ``F22`` is the tensor's constant second
    diagonal entry per cell, or a scalar.  The result is a fresh
    ``(n_cells,)`` array.
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


def integrate_characteristics(velocity_sampler: VelocitySampler, seed, t0: float,
                              t1: float, dt: float, F_e0,
                              domain: Callable[[np.ndarray, float], bool] | None = None,
                              ) -> PathlineRecord:
    """Integrate ``dx/dt = v`` and ``dF_e/dt = (grad v) F_e`` along one pathline.

    Explicit midpoint (RK2) in both position and tensor; the record holds
    every step including the seed.  ``dt`` is shrunk slightly if needed so
    an integer number of steps lands exactly on ``t1``.  When ``domain`` is
    given, leaving it raises ``OutOfDomain`` (an ablating boundary should be
    excluded from the predicate by the caller).
    """
    if dt <= 0 or t1 <= t0:
        raise ValidationError("need dt > 0 and t1 > t0")
    n_steps = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    h = (t1 - t0) / n_steps
    x = np.asarray(seed, dtype=float).copy()
    F = np.asarray(F_e0, dtype=float).copy()
    ts = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, 2))
    Fs = np.empty((n_steps + 1, 2, 2))
    ts[0], xs[0], Fs[0] = t0, x, F
    t = t0
    for k in range(n_steps):
        v1, L1 = velocity_sampler(x, t)
        x_mid = x + 0.5 * h * v1
        F_mid = F + 0.5 * h * (L1 @ F)
        v2, L2 = velocity_sampler(x_mid, t + 0.5 * h)
        x = x + h * v2
        F = F + h * (L2 @ F_mid)
        t = t0 + (k + 1) * h
        if domain is not None and not domain(x, t):
            raise OutOfDomain(f"characteristic left the body at t = {t:g}, x = {x}")
        ts[k + 1], xs[k + 1], Fs[k + 1] = t, x, F
    return PathlineRecord(t=ts, x=xs, F_e=Fs)


@dataclass
class ReconstructedFrame:
    """Deformation gradient and relaxed shape recovered at one time level."""

    t: float
    F: np.ndarray
    F_relax: np.ndarray


def replay_columns(history: Sequence[StepRecord], t0: float | None = None,
                   ) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...], StepRecord]]:
    """Replay a stored run level by level, by components: yield
    ``(f12, F_relax, record)`` from ``t0`` on (default: the earliest stored
    time), with ``F = I + f12 e1 (x) e2`` and ``F_relax`` the tuple of its
    components ``(11, 12, 21, 22)`` as ``(n,)`` arrays.

    The configuration at ``t0`` is declared the reference, so ``F = I``
    there; F is then advanced by replaying the stored shear rates ``g``
    through the march's own step (``reduced_step_1d``, cells attached
    after ``t0`` entering with ``F = I``).  That step changes neither the
    second row of ``F`` nor ``F11``, so ``F`` stays ``I`` but for its shear
    ``f12``.  The relaxed shape ``F_relax = F_e^{-1} F`` follows from the
    adjugate of the record's ``F_e`` columns; ``SingularTensor`` is raised
    when ``|det F_e| <= EPS_DET`` in any cell.
    """
    if not history:
        raise ValidationError("history is empty")
    times = np.array([rec.t for rec in history])
    if t0 is None:
        i0 = 0
    else:
        i0 = int(np.argmin(np.abs(times - t0)))
        if abs(times[i0] - t0) > 1e-9 * max(1.0, abs(t0)):
            raise ValidationError(f"t0 = {t0:g} is not a stored time level")
    f12 = np.zeros(history[i0].grid.n_cells)
    prev = None
    for cur in history[i0:]:
        if prev is not None:
            f12 = reduced_step_1d(f12, prev.g, 1.0, cur.t - prev.t, cur.grid.n_cells,
                                  0.0)
        a, b, c, d = cur.F_e_columns()
        det = a * d - b * c
        if np.any(np.abs(det) <= EPS_DET):
            raise SingularTensor(f"|det| <= {EPS_DET:g} in tensor inversion")
        # F_e^{-1} = [[d, -b], [-c, a]] / det, times [[1, f12], [0, 1]]
        i11, i12, i21, i22 = d / det, -b / det, -c / det, a / det
        yield f12, (i11, i11 * f12 + i12, i21, i21 * f12 + i22), cur
        prev = cur


def replay_reference(history: Sequence[StepRecord], t0: float | None = None,
                     ) -> Iterator[tuple[ReconstructedFrame, StepRecord]]:
    """Replay a stored run level by level: yield ``(frame, record)`` from
    ``t0`` on, the ``(n, 2, 2)`` tensors of ``replay_columns``.  Each frame
    owns fresh arrays, so a consumer may keep or drop it.
    """
    for f12, F_relax, rec in replay_columns(history, t0=t0):
        F = identity((len(f12),))
        F[:, 0, 1] = f12
        yield ReconstructedFrame(t=rec.t, F=F,
                                 F_relax=np.stack(F_relax, axis=1).reshape(F.shape)), rec


def reconstruct_reference(history: Sequence[StepRecord],
                          t0: float | None = None) -> list[ReconstructedFrame]:
    """Recover F and F_relax from a stored run: every frame of
    ``replay_reference``, from ``t0`` on.

    Material accreted after ``t0`` carries ``F = I`` at its attachment
    instant (its reference is its as-deposited shape), which makes its
    recovered relaxed shape the inverse of the attachment elastic
    deformation.
    """
    return [frame for frame, _ in replay_reference(history, t0=t0)]


# ---------------------------------------------------------------------------
# Two-dimensional strip transports (verification of the inverse-motion route
# and of compatibility preservation; not used by the growth scenarios).
# ---------------------------------------------------------------------------

def strip_velocity_gradient(fld: np.ndarray, strip: PeriodicStrip) -> np.ndarray:
    """Gradient of a vector field: periodic centered in x1, one-sided at walls."""
    f = np.asarray(fld, dtype=float)
    d1 = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * strip.dx1)
    d2 = np.gradient(f, strip.dx2, axis=1)
    return np.stack([d1, d2], axis=-1)


def _strip_upwind(comps: np.ndarray, v: np.ndarray, strip: PeriodicStrip) -> np.ndarray:
    # Wall ghosts extrapolate linearly; see _upwind_term_1d.
    v1 = v[..., 0][..., None]
    v2 = v[..., 1][..., None]
    bwd1 = (comps - np.roll(comps, 1, axis=0)) / strip.dx1
    fwd1 = (np.roll(comps, -1, axis=0) - comps) / strip.dx1
    below = np.concatenate([2.0 * comps[:, :1] - comps[:, 1:2], comps[:, :-1]], axis=1)
    above = np.concatenate([comps[:, 1:], 2.0 * comps[:, -1:] - comps[:, -2:-1]], axis=1)
    bwd2 = (comps - below) / strip.dx2
    fwd2 = (above - comps) / strip.dx2
    return (np.where(v1 > 0, v1 * bwd1, v1 * fwd1)
            + np.where(v2 > 0, v2 * bwd2, v2 * fwd2))


def _strip_cfl(v: np.ndarray, strip: PeriodicStrip, dt: float) -> None:
    rate = np.abs(v[..., 0]) / strip.dx1 + np.abs(v[..., 1]) / strip.dx2
    if float(rate.max()) * dt > CFL_LIMIT * (1.0 + 1e-12):
        raise CFLViolation(f"strip CFL number {float(rate.max()) * dt:.3f} exceeds {CFL_LIMIT}")


def advance_deformation_strip(F: np.ndarray, v: np.ndarray, grad_v: np.ndarray,
                              strip: PeriodicStrip, dt: float) -> np.ndarray:
    """One upwind/Euler step of the deformation-gradient transport on the strip."""
    _strip_cfl(v, strip, dt)
    F = np.asarray(F, dtype=float)
    shape = F.shape
    adv = _strip_upwind(F.reshape(shape[:2] + (4,)), v, strip).reshape(shape)
    return F + dt * (np.asarray(grad_v, dtype=float) @ F - adv)


def advance_inverse_motion(ref_dev: np.ndarray, v: np.ndarray, strip: PeriodicStrip,
                           dt: float, mass_rate: float = 0.0) -> np.ndarray:
    """Advect the inverse motion as a passive vector field (no-growth only).

    The stored quantity is the deviation ``chi^{-1}(x, t) - x`` so that the
    field stays periodic in x1; it obeys the same transport with source
    ``-v``.  Feeding an inflow for the inverse motion would amount to
    constructing the reference configuration, so any growth is rejected.
    """
    if mass_rate != 0.0:
        raise GrowthNotSupported("inverse-motion transport is restricted to a "
                                 "fixed particle set (mass rate must be zero)")
    _strip_cfl(v, strip, dt)
    q = np.asarray(ref_dev, dtype=float)
    adv = _strip_upwind(q, v, strip)
    return q + dt * (-adv - v)


def deformation_from_inverse_motion(ref_dev: np.ndarray, strip: PeriodicStrip) -> np.ndarray:
    """Recover ``F = (grad chi^{-1})^{-1}`` from the stored deviation field."""
    g = strip_velocity_gradient(require_finite(ref_dev, "ref_dev"), strip)
    return inverse(np.eye(2) + g)


def strip_row_curl(T: np.ndarray, strip: PeriodicStrip) -> np.ndarray:
    """Row-wise spatial curl ``dT[i,0]/dx2 - dT[i,1]/dx1`` of a tensor field."""
    T = np.asarray(T, dtype=float)
    d2_col0 = np.gradient(T[..., 0], strip.dx2, axis=1)
    d1_col1 = (np.roll(T[..., 1], -1, axis=0) - np.roll(T[..., 1], 1, axis=0)) / (2.0 * strip.dx1)
    return d2_col0 - d1_col1
