"""Mass/momentum balance: growth boundary conditions, jump residuals, the
quasistatic through-thickness momentum balance, and the domain-height update.

Growth enters the balance laws only through the boundary: the surface
moves with ``V_b . n = v . n + M / rho`` and develops the traction
``sigma n = M (v_a - v) + t_b``.  The scenarios have no ambient traction
(``t_b = 0``) and march under ``ScenarioConfig.attachment_traction``.  The
solve is the cells' shear rates, the first integral ``g = (tau1 - G S12) /
mu`` that a march evaluates per cell age (``scenarios.shear_by_age``); its
residuals are read by entry class from the age tables (see the README's
Scenarios section).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeHeight, NotReduced, SingularSystem, ValidationError
from .tensors import require_finite


@dataclass(frozen=True)
class SideState:
    """Bulk state on one side of a surface of discontinuity.

    May hold a stack of states: ``rho`` of shape ``S``, ``v`` of shape
    ``S + (2,)`` and ``sigma`` of shape ``S + (2, 2)``.
    """

    rho: float | np.ndarray
    v: np.ndarray
    sigma: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of 2-vectors over the trailing axis, broadcast over the rest."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _scalar_or_array(x: np.ndarray) -> float | np.ndarray:
    return float(x) if x.ndim == 0 else x


def boundary_normal_velocity(M: float, rho, v, n) -> float | np.ndarray:
    """Normal speed of the boundary, ``v . n + M / rho``: motion plus growth.

    Broadcasts over leading axes of ``rho`` and the vectors ``v``, ``n``;
    scalar inputs return a float.
    """
    if not np.all(np.asarray(rho) > 0):
        raise ValidationError(f"rho must be positive, got {rho}")
    speed = _dot(np.asarray(v, dtype=float), np.asarray(n, dtype=float)) + M / rho
    return _scalar_or_array(np.asarray(speed))


def growth_traction(M: float, v_a, v, t_b) -> np.ndarray:
    """Traction developed on the growing surface, ``M (v_a - v) + t_b``."""
    return M * (np.asarray(v_a, dtype=float) - np.asarray(v, dtype=float)) \
        + np.asarray(t_b, dtype=float)


def jump_residuals(side_plus: SideState, side_minus: SideState, V_b, n,
                   M: float, v_a) -> tuple[float | np.ndarray, np.ndarray]:
    """Residuals of the mass and momentum jump conditions across a surface.

    The jump is ``[[g]] = g_plus - g_minus`` with the body on the plus side
    and the ambient medium (vacuum: rho = 0, sigma n = applied traction) on
    the minus side.  Both residuals vanish for admissible solutions:

        [[rho (V_b - v) . n]] - M              (mass)
        [[rho v ((V_b - v) . n)]] + [[sigma n]] - M v_a   (momentum)

    Broadcasts over leading axes of the sides, ``V_b``, ``n`` and ``v_a``,
    so a stack of surface states is checked in one call.  Scalar inputs
    return ``(float, (2,) array)``; stacked ones ``(S, S + (2,))``.
    """
    n = np.asarray(n, dtype=float)
    V_b = np.asarray(V_b, dtype=float)

    def flux(side: SideState) -> np.ndarray:
        return np.asarray(side.rho, dtype=float) * _dot(V_b - side.v, n)

    def traction(side: SideState) -> np.ndarray:
        return _dot(np.asarray(side.sigma, dtype=float), n[..., None, :])

    flux_plus, flux_minus = flux(side_plus), flux(side_minus)
    mass_res = flux_plus - flux_minus - M
    mom_res = (flux_plus[..., None] * np.asarray(side_plus.v, dtype=float)
               - flux_minus[..., None] * np.asarray(side_minus.v, dtype=float)
               + traction(side_plus)
               - traction(side_minus)
               - M * np.asarray(v_a, dtype=float))
    return _scalar_or_array(mass_res), mom_res


def normal_pressure(F_e0: np.ndarray, G: float, tau2: float) -> np.ndarray:
    """Per-cell pressure ``p = G S22 - tau2`` with ``S22 = F_e22^2``
    (``F_e21 = 0``, ``require_reduced``).

    The normal balance integrates to the uniform ``sigma22 = tau2``, which
    fixes the pressure cell-wise.  It depends on ``F_e22`` alone, which the
    reduction never changes, so a run computes it once.  Raises
    ``SingularSystem`` on non-finite values.
    """
    p = G * F_e0[..., 1, 1] ** 2 - tau2
    if not np.isfinite(p).all():
        raise SingularSystem("momentum solve produced non-finite values")
    return p


def require_reduced(F_e0: np.ndarray) -> np.ndarray:
    """The cells' elastic deformations, checked to be finite and to lie in
    the through-thickness family: any nonzero ``F_e21`` raises
    ``NotReduced``."""
    F = require_finite(F_e0, "F_e")
    if np.any(F[:, 1, 0] != 0.0):
        raise NotReduced("F_e21 is nonzero: outside the through-thickness family")
    return F


def advance_domain(H: float, V_b_normal: float, dt: float, n_steps=1):
    """Height update ``H + V_b_normal * (n_steps * dt)``.

    Composing a constant-rate march is done with the fused multiply over
    the step count so repeated stepping stays bitwise drift-free.  An array
    of step counts gives the heights after each, every entry bitwise the
    call for its count alone; ``NegativeHeight`` names the first height at
    or below zero.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    H_new = H + V_b_normal * (n_steps * dt)
    ablated = np.flatnonzero(np.asarray(H_new) <= 0)
    if len(ablated):
        raise NegativeHeight(f"domain ablated past extinction: "
                             f"H = {np.ravel(H_new)[ablated[0]]:g}")
    return H_new
