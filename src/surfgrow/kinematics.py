"""Transport of the elastic deformation and related kinematic machinery.

``F_e`` obeys ``dF_e/dt + (v . grad) F_e = (grad v) F_e``, the equation
of the full deformation gradient ``F``; accretion makes the growing
boundary an inflow.  In the through-thickness reduction ``v2 = 0``, so a
growth step is the source update of the shear alone (``reduced_step_1d``).
Here too: the RK2 characteristic integrator, the replay of a stored run
and the two-dimensional strip transports used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .balance import require_reduced
from .errors import (CFLViolation, GrowthNotSupported, OutOfDomain,
                     SingularTensor, ValidationError)
from .grids import History, PeriodicStrip
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


def reduced_step_1d(F12: np.ndarray, g: np.ndarray, F22, dt: float, n_cells: int,
                    inflow: float, out: np.ndarray | None = None) -> np.ndarray:
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
    scalar.  The result is written into
    ``out``, an ``(n_cells,)`` array, when it is given (the march writes
    each level into its slice of a run-wide buffer), else into a fresh one.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    m = len(F12)
    if n_cells < m:
        raise ValidationError(f"the active cells cannot shrink: {m} -> {n_cells}")
    if out is None:
        out = np.empty(n_cells)
    elif out.shape != (n_cells,):
        raise ValidationError(f"out must have shape ({n_cells},), got {out.shape}")
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


def replay_columns(history: History, t0: float | None = None,
                   ) -> Iterator[tuple[np.ndarray, tuple, tuple, int]]:
    """Replay a stored run level by level, by components: yield
    ``(f12, F_relax, F_e, j)`` for the levels ``j`` of ``history`` from
    ``t0`` on (default: the earliest stored time), with ``F = I + f12 e1
    (x) e2`` and ``F_relax`` and the level's ``F_e`` the tuples of their
    components ``(11, 12, 22)`` as ``(n,)`` arrays; both 21 components are
    0.  Each level's ``F_e12`` and ``g`` are gathered once
    (``History.columns``); no record is built.

    The configuration at ``t0`` is declared the reference, so ``F = I``
    there; F is then advanced by replaying the stored shear rates ``g``
    through the march's own step (``reduced_step_1d``, cells attached
    after ``t0`` entering with ``F = I``).  That step changes neither the
    second row of ``F`` nor ``F11``, so ``F`` stays ``I`` but for its shear
    ``f12``.  The relaxed shape ``F_relax = F_e^{-1} F`` follows from the
    adjugate of the level's ``F_e`` columns.  ``NotReduced`` is raised when
    any cell's ``F_e21`` is not 0 (``require_reduced``), and
    ``SingularTensor`` at the first level with ``|det F_e| <= EPS_DET`` in
    one of its cells.
    """
    times = history.t
    if t0 is None:
        i0 = 0
    else:
        i0 = int(np.argmin(np.abs(times - t0)))
        if abs(times[i0] - t0) > 1e-9 * max(1.0, abs(t0)):
            raise ValidationError(f"t0 = {t0:g} is not a stored time level")
    F_e0 = require_reduced(history.F_e0)
    # F11, F22 and det F_e = F11 F22 are per-cell constants, of which a
    # level holds a prefix: it is singular if it holds a singular cell
    a, d = F_e0[:, 0, 0], F_e0[:, 1, 1]
    det = a * d
    regular = int(np.argmax(np.append(np.abs(det) <= EPS_DET, True)))  # the first singular
    i11, i22 = d[:regular] / det[:regular], a[:regular] / det[:regular]
    f12 = np.zeros(int(history.m[i0]))
    for j in range(i0, len(history)):
        # one gather of the level's F_e12 and g; g steps the next level
        b, g_next = history.columns(j)
        m = len(b)
        if m > regular:
            raise SingularTensor(f"|det| <= {EPS_DET:g} in tensor inversion")
        if j > i0:
            f12 = reduced_step_1d(f12, g, 1.0, times[j] - times[j - 1], m, 0.0)
        g = g_next
        # F_e^{-1} = [[d, -b], [0, a]] / det, times [[1, f12], [0, 1]]
        r11 = i11[:m]
        yield f12, (r11, r11 * f12 + -b / det[:m], i22[:m]), (a[:m], b, d[:m]), j


def reconstruct_reference(history: History,
                          t0: float | None = None) -> list[ReconstructedFrame]:
    """Recover F and F_relax from a stored run: every level of
    ``replay_columns`` from ``t0`` on, as ``(n, 2, 2)`` tensors.

    Material accreted after ``t0`` carries ``F = I`` at its attachment
    instant (its reference is its as-deposited shape), which makes its
    recovered relaxed shape the inverse of the attachment elastic
    deformation.
    """
    frames = []
    for f12, (r11, r12, r22), _, j in replay_columns(history, t0=t0):
        F = identity((len(f12),))
        F[:, 0, 1] = f12
        frames.append(ReconstructedFrame(t=float(history.t[j]), F=F, F_relax=np.stack(
            [r11, r12, np.zeros(len(f12)), r22], axis=1).reshape(F.shape)))
    return frames


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
    # Wall ghosts extrapolate linearly from the interior: a replicated ghost
    # would zero the wall-cell gradient and leave a resolution-independent
    # kink there.
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
