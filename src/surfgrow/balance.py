"""Mass/momentum balance: growth boundary conditions, jump residuals, the
quasistatic through-thickness momentum balance, and the domain-height update.

Growth enters the balance laws only through the boundary: the surface
moves with ``V_b . n = v . n + M / rho`` and develops the traction
``sigma n = M (v_a - v) + t_b``.  The solve is two pieces: the cells'
shear rates, the first integral ``g = (tau1 - G S12) / mu`` that a march
evaluates per cell age (``scenarios.shear_by_age``), and the residuals of
a block of levels, ``solve_residuals`` (see the README's Scenarios section).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import MaterialParams
from .errors import NegativeHeight, NotReduced, SingularSystem, ValidationError
from .tensors import require_finite


@dataclass(frozen=True)
class GrowthInput:
    """Surface-source data: mass rate, attachment velocity/traction/deformation.

    ``M > 0`` is accretion, ``M < 0`` ablation.  ``v_a = None`` means the
    material attaches at the local body velocity (the slow-growth
    idealization: no momentum transfer at the surface).
    """

    M: float
    v_a: np.ndarray | None = None
    t_b: np.ndarray = field(default_factory=lambda: np.zeros(2))
    F_e_attach: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        object.__setattr__(self, "t_b", require_finite(self.t_b, "t_b").reshape(2))
        object.__setattr__(self, "F_e_attach",
                           require_finite(self.F_e_attach, "F_e_attach").reshape(2, 2))
        if self.v_a is not None:
            object.__setattr__(self, "v_a", require_finite(self.v_a, "v_a").reshape(2))


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


def cell_S22(F22: np.ndarray) -> np.ndarray:
    """Per-cell ``S22 = F_e22^2`` formed with float powers, which the
    reported traction residuals are formed with: numpy's array square can
    differ from them in the last bit."""
    return np.array([d ** 2 for d in F22.tolist()])


def solve_residuals(F12: np.ndarray, g: np.ndarray, counts: np.ndarray,
                    v_nodes: np.ndarray, S22: np.ndarray, F22: np.ndarray,
                    tau: np.ndarray, params: MaterialParams, dx: float, *,
                    work: tuple | None = None,
                    past: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """System and traction residuals of the solve on a stack of ``B`` levels;
    the system is ``mu v1'' = -G dS12/dx2``, ``v1(0) = 0``, ``mu v1'(H) = tau1
    - G S12(H)`` on a level's faces, solved by its first integral ``g``.

    Level ``b`` has ``counts[b] >= 1`` active cells; row ``b`` of ``F12``,
    ``(B, max(counts))``, holds the level's shears and then zeros, and row
    ``b`` of ``g``, two-dimensional and at least as large, the shear rates
    the march stored for the level, of which only the top cell's is read.
    ``S22 = F_e22^2`` and ``F22`` are the cells' constants (at least
    ``max(counts)`` of them; ``S22`` from ``cell_S22``) and ``tau`` the
    ``(B, 2)`` applied top tractions.  Row ``b`` of ``v_nodes`` holds the
    level's ``counts[b] + 1`` face velocities, the running sum of ``dx g``
    from 0, followed by zeros or by its top value repeated (neither moves a
    residual).  ``past``, when given, is the ``(B, max(counts))`` mask of
    the cells past each level's top, which the solve otherwise builds.
    ``work``, when given, starts with three float arrays, flat and of at
    least ``B max(counts)`` entries, that the solve writes in place of its
    temporaries.
    Returns ``(system_residual, traction_residual)``, two ``(B,)`` arrays,
    each entry that of its level alone: the scaled system's max-norm
    residual over ``max(1, max |v|)`` and the defect of the top cell's
    stress, formed from its stored ``g``, against the applied traction.
    """
    counts = np.asarray(counts)
    B, m = len(counts), int(counts.max())
    G, mu = params.G, params.mu
    V = v_nodes[:, :m + 1]
    rows, top = np.arange(B), counts - 1
    tau1, tau2 = tau[:, 0], tau[:, 1]
    # the temporaries hold B rows of m, laid end to end
    S, dS, resid = (a[:B * m] for a in work[:3]) if work else np.empty((3, B * m))
    if past is None:
        past = np.greater_equal(np.arange(m), counts[:, None])
    past = np.ravel(past)
    # S12 = F12 F22 on rows zero-padded past each level's top
    np.multiply(np.reshape(F12, (B, m)), F22[:m], out=S.reshape(B, m))
    S12_top = S[rows * m + top]
    # Residual of the tridiagonal system, rows scaled to O(1) entries:
    # interior face i carries the second-difference balance (entries at and
    # past a level's top are not its own and are zeroed), the top row is the
    # first integral at the top cell.  Differences along the rows are taken
    # over the rows end to end: the last entry of each row spans two rows,
    # and no residual reads it.
    dS = np.subtract(S[1:], S[:-1], out=dS[:-1])
    dS *= (G / mu) * dx
    dv = np.subtract(V[:, 1:], V[:, :-1], out=S.reshape(B, m))
    interior = np.subtract(S[1:], S[:-1], out=resid[:-1])
    interior += dS
    np.copyto(interior, 0.0, where=past[1:])
    np.abs(interior, out=interior)
    resid_top = np.abs(dv[rows, top] - (dx / mu) * (tau1 - G * S12_top))
    v_max = np.maximum(V.max(axis=1), -V.min(axis=1))
    system = (np.maximum(resid.reshape(B, m)[:, :-1].max(axis=1, initial=0.0), resid_top)
              / np.maximum(1.0, v_max))
    # The top cell's stress, from the rate the march stored, against the
    # applied traction.  The normal balance there is normal_pressure's.
    S22_top = S22[top]
    p_top = G * S22_top - tau2
    sigma12_top = G * S12_top + mu * g[rows, top]
    sigma22_top = -p_top + G * S22_top
    traction = np.maximum(np.abs(sigma12_top - tau1), np.abs(sigma22_top - tau2))
    return system, traction


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
