"""Per-cell kernels that the package no longer calls, kept as the references
that its by-age march and checks are compared against."""

import numpy as np

from surfgrow.balance import require_reduced
from surfgrow.constitutive import MaterialParams
from surfgrow.errors import SingularTensor, ValidationError
from surfgrow.tensors import EPS_DET


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
