"""Per-cell kernels that the package no longer calls, kept as the references
that its by-age march and checks are compared against."""

import numpy as np

from surfgrow.constitutive import MaterialParams


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
