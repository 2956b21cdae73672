"""Transport of the elastic deformation along characteristics and on a strip.

``F_e`` obeys ``dF_e/dt + (v . grad) F_e = (grad v) F_e``, the equation
of the full deformation gradient ``F``; accretion makes the growing
boundary an inflow.  Here: the RK2 characteristic integrator, the
columns of a stored run's pathline and the two-dimensional strip
transports used for verification.  A growth run
marches its shear by age (``scenarios._run_1d``), and ``F`` and the
relaxed shape are recovered from its age tables afterwards
(``scenarios.reconstruct_reference``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CFLViolation, GrowthNotSupported, OutOfDomain, ValidationError
from .grids import PeriodicStrip
from .tensors import inverse, require_finite

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


@dataclass
class HistoryPathline:
    """A characteristic of a stored run, as columns.

    With ``v = v1(x2) e1`` a pathline keeps its height ``x2`` and its
    ``F_e11``, ``F_e21`` and ``F_e22``: per sample it holds the time ``t``,
    ``x1``, ``F_e12`` and ``v1``, and once its height and ``F_e0``, the
    ``F_e`` at its first sample (whose ``F_e12`` is the column's first).
    """

    t: np.ndarray
    x1: np.ndarray
    F_e12: np.ndarray
    v1: np.ndarray
    x2: float
    F_e0: np.ndarray

    def __post_init__(self):
        for name in ("t", "x1", "F_e12", "v1", "F_e0"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.x2 = float(self.x2)
        if not (len(self.t) == len(self.x1) == len(self.F_e12) == len(self.v1) >= 1
                and self.F_e0.shape == (2, 2)
                and self.F_e0[0, 1].tobytes() == self.F_e12[0].tobytes()):
            raise ValidationError("a pathline needs equal-length columns of at least one "
                                  "sample and a 2x2 F_e0 whose F_e12 is the column's first")
        if np.any(np.diff(self.t) <= 0):
            raise ValidationError("pathline sample times must be strictly increasing")


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
