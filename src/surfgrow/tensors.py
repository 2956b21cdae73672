"""Dense 2x2 tensor and 2-vector arithmetic on plain numpy arrays.

Vectors are arrays with trailing shape ``(2,)`` and tensors with trailing
shape ``(2, 2)``; all operations broadcast over leading axes so a whole
grid of tensors is handled in one call.  Components are stored row-major,
matching ``numpy``'s default layout.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularTensor, ValidationError

# Shared singularity tolerance for tensor inversion, project-wide.
EPS_DET = 1e-12

I2 = np.eye(2)


def _check_square(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape[-2:] != (2, 2):
        raise ValidationError(f"expected trailing shape (2, 2), got {t.shape}")
    return t


def identity(shape=()) -> np.ndarray:
    """Stack of 2x2 identity tensors with the given leading shape."""
    return np.broadcast_to(I2, tuple(shape) + (2, 2)).copy()


def det(t: np.ndarray) -> np.ndarray | float:
    """Determinant, ``t11*t22 - t12*t21``."""
    t = _check_square(t)
    d = t[..., 0, 0] * t[..., 1, 1] - t[..., 0, 1] * t[..., 1, 0]
    return float(d) if d.ndim == 0 else d


def inverse(t: np.ndarray, eps: float = EPS_DET) -> np.ndarray:
    """Inverse by the adjugate formula.

    Raises ``SingularTensor`` when any determinant magnitude is at or
    below ``eps``.
    """
    t = _check_square(t)
    d = t[..., 0, 0] * t[..., 1, 1] - t[..., 0, 1] * t[..., 1, 0]
    if np.any(np.abs(d) <= eps):
        raise SingularTensor(f"|det| <= {eps:g} in tensor inversion")
    out = np.empty_like(t)
    out[..., 0, 0] = t[..., 1, 1]
    out[..., 0, 1] = -t[..., 0, 1]
    out[..., 1, 0] = -t[..., 1, 0]
    out[..., 1, 1] = t[..., 0, 0]
    return out / d[..., None, None]


def sym(t: np.ndarray) -> np.ndarray:
    """Symmetric part ``(t + t^T) / 2``."""
    t = _check_square(t)
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def require_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Reject NaN/Inf before values enter field storage."""
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite components")
    return arr
