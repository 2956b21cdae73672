"""Mass/momentum balance: growth boundary conditions, jump residuals, the
quasistatic through-thickness momentum solve, and the domain-height update.

Growth enters the balance laws only through the boundary: the surface
moves with ``V_b . n = v . n + M / rho`` and develops the traction
``sigma n = M (v_a - v) + t_b``.  In the bulk only the (here inertia-free)
momentum balance is solved: with ``v = v1(x2) e1`` the continuity equation
leaves the density at its attachment value, and the velocity gradient
``grad v = v1'(x2) e1 (x) e2`` is rank one, so the solve returns its single
scalar ``g = v1'`` per cell rather than a 2x2 stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import MaterialParams
from .errors import NegativeHeight, NotReduced, SingularSystem, ValidationError
from .grids import Grid1D
from .tensors import require_finite

# Largest |F_e21| the through-thickness solve accepts as in the family.
ANSATZ_TOL = 1e-8


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


@dataclass
class QuasistaticSolution:
    """Result of the through-thickness momentum solve.

    ``v_nodes`` is the tangential velocity at the n+1 cell faces (node 0
    clamped); ``g`` the cell-centered shear rate ``v1'``, the one nonzero
    component ``(0, 1)`` of the velocity gradient; ``p`` the per-cell
    pressure.  ``system_residual`` is the max-norm residual of the
    scaled tridiagonal system, ``traction_residual`` the defect of the
    discrete surface traction against the applied one.
    """

    v_nodes: np.ndarray
    g: np.ndarray
    p: np.ndarray
    system_residual: float
    traction_residual: float


def quasistatic_momentum_solve_1d(F_e: np.ndarray, grid: Grid1D, params: MaterialParams,
                                  top_traction) -> QuasistaticSolution:
    """Inertia-free momentum balance for the through-thickness reduction.

    Fields depend on ``x2`` only and the velocity is ``v = v1(x2) e1``.
    With ``S = F_e F_e^T`` the tangential balance is the two-point boundary
    value problem

        mu v1'' = -G dS12/dx2,
        v1(0) = 0,   mu v1'(H) = tau1 - G S12(H),

    discretized on the cell faces as a tridiagonal system.  Its solution is
    the running sum of the discrete first integral below, so no matrix is
    factored; the residual of the scaled system is still reported.  The
    normal balance integrates to the uniform ``sigma22 = tau2``, which fixes
    the pressure cell-wise.

    The admissible family requires ``|F_e21| <= ANSATZ_TOL``; otherwise
    ``NotReduced`` is raised.  The returned shear rate ``g`` is the scheme's
    exact discrete first integral

        mu v1'(x) = tau1 - G S12(x)

    for the cell gradients, which keeps the transport source accurate in
    relative terms even where the fields are exponentially small.
    """
    if not params.mu > 0:
        raise ValidationError("mu must be positive for the regularized solve")
    F = require_finite(F_e, "F_e")
    n = grid.n_cells
    dx = grid.dx
    # one cell suffices: the first integral is then the top row alone
    if n < 1 or not np.isfinite(dx) or dx <= 0:
        raise SingularSystem(f"degenerate grid: n_cells = {n}, dx = {dx}")
    if float(np.max(np.abs(F[:, 1, 0]))) > ANSATZ_TOL:
        raise NotReduced("F_e21 exceeds the through-thickness ansatz tolerance")

    tau1, tau2 = float(top_traction[0]), float(top_traction[1])
    S12 = F[:, 0, 0] * F[:, 1, 0] + F[:, 0, 1] * F[:, 1, 1]
    S22 = F[:, 1, 0] ** 2 + F[:, 1, 1] ** 2
    G, mu = params.G, params.mu

    # Exact discrete first integral of the scheme (see docstring).  Its
    # running sum solves the tridiagonal system: the unknowns are v at faces
    # 1..n (face 0 clamped), interior face i carries the second-difference
    # balance and the top row is the first integral at the top cell.
    g_cells = (tau1 - G * S12) / mu
    v_nodes = np.concatenate([[0.0], np.cumsum(dx * g_cells)])
    p = G * S22 - tau2
    if not (np.all(np.isfinite(v_nodes)) and np.all(np.isfinite(p))):
        raise SingularSystem("momentum solve produced non-finite values")

    # Residual of the tridiagonal system, rows scaled to O(1) entries.
    resid = np.empty(n)
    resid[:n - 1] = np.diff(v_nodes, 2) + (G / mu) * dx * np.diff(S12)
    resid[n - 1] = (v_nodes[n] - v_nodes[n - 1]
                    - (dx / mu) * (tau1 - G * S12[n - 1]))
    system_residual = (float(np.max(np.abs(resid)))
                       / max(1.0, float(np.max(np.abs(v_nodes)))))

    sigma12_top = G * S12[-1] + mu * g_cells[-1]
    sigma22_top = -p[-1] + G * S22[-1]
    traction_residual = max(abs(sigma12_top - tau1), abs(sigma22_top - tau2))

    return QuasistaticSolution(v_nodes=v_nodes, g=g_cells, p=p,
                               system_residual=system_residual,
                               traction_residual=traction_residual)


def advance_domain(H: float, V_b_normal: float, dt: float, n_steps: int = 1) -> float:
    """Height update ``H + V_b_normal * (n_steps * dt)``.

    Composing a constant-rate march is done with the fused multiply over
    the step count so repeated stepping stays bitwise drift-free.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    H_new = H + V_b_normal * (n_steps * dt)
    if H_new <= 0:
        raise NegativeHeight(f"domain ablated past extinction: H = {H_new:g}")
    return H_new
