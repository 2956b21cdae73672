"""Stress response functions and the attachment-stress inversion.

The material model is incompressible neo-Hookean,

    sigma = -p I + G F_e F_e^T,

optionally regularized by a viscous term ``2 mu sym(grad v)``.  The
pressure ``p`` is a Lagrange multiplier and is carried separately from
the kinematic state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cache
from types import MappingProxyType
from typing import get_type_hints

import numpy as np

from .errors import NoInverse, ValidationError
from .tensors import require_finite, sym


# A configuration field's annotation, and the type of its value (None aside).
_SCALARS = {str: str, int: int, float: float, float | None: float}


@cache
def scalar_fields(cls) -> MappingProxyType:
    """The scalar fields of the dataclass ``cls`` in order, each with the type
    of its value (``float`` for ``float | None`` too), read-only; a field of
    another type (``ScenarioConfig.params``) is left out.  These are the keys
    a config file sets and the fields ``check_scalar_fields`` checks."""
    hints = get_type_hints(cls)
    return MappingProxyType({f.name: _SCALARS[hints[f.name]] for f in fields(cls)
                             if hints[f.name] in _SCALARS})


@cache
def _optional_fields(cls) -> frozenset:
    """The scalar fields of the dataclass ``cls`` typed ``float | None``."""
    hints = get_type_hints(cls)
    return frozenset(name for name in scalar_fields(cls) if hints[name] == float | None)


def check_scalar_fields(obj) -> None:
    """Refuse a ``float`` field of the dataclass ``obj`` that is ``None``
    where its type does not admit it, or not finite, then a non-integral
    ``int`` field, naming the first; each ``int`` field is stored as an
    ``int``."""
    kinds, optional = scalar_fields(type(obj)), _optional_fields(type(obj))
    for name in [name for name, kind in kinds.items() if kind is float]:
        value = getattr(obj, name)
        if value is None and name not in optional:
            raise ValidationError(f"{name} must be a number, got None")
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    for name in [name for name, kind in kinds.items() if kind is int]:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class MaterialParams:
    """Shear modulus G (Pa), viscosity mu (Pa s), density rho (kg/m^3).

    Parameters may vary per cell in principle; every bundled scenario
    uses uniform values.
    """

    G: float = 1.0
    mu: float = 0.1
    rho: float = 1.0

    def __post_init__(self):
        check_scalar_fields(self)
        if not self.G > 0:
            raise ValidationError(f"G must be positive, got {self.G}")
        if self.mu < 0:
            raise ValidationError(f"mu must be nonnegative, got {self.mu}")
        if not self.rho > 0:
            raise ValidationError(f"rho must be positive, got {self.rho}")


@dataclass(frozen=True)
class AttachmentSpec:
    """Requested stress state of material at the instant it joins the body."""

    sigma_star: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self):
        s = require_finite(self.sigma_star, "sigma_star")
        if s.shape != (2, 2):
            raise ValidationError(f"sigma_star must be 2x2, got shape {s.shape}")
        if abs(s[0, 1] - s[1, 0]) > 1e-12 * max(1.0, float(np.abs(s).max())):
            raise ValidationError("sigma_star must be symmetric (angular momentum)")
        object.__setattr__(self, "sigma_star", s)

    @classmethod
    def from_traction(cls, traction, params: "MaterialParams") -> "AttachmentSpec":
        """Build the full (consistent) stress tensor from a surface traction.

        The traction is ``sigma @ e2`` on a surface with outward normal e2;
        the 11 component is completed so the tensor lies in the image of the
        tangential-identity family.
        """
        t1, t2 = float(traction[0]), float(traction[1])
        s11 = t2 + t1 * t1 / params.G
        return cls(sigma_star=np.array([[s11, t1], [t1, t2]]))


def neo_hookean_stress(F_e: np.ndarray, p, params: MaterialParams) -> np.ndarray:
    """Cauchy stress ``-p I + G F_e F_e^T``.

    Broadcasts over stacked tensors; ``p`` may be scalar or per-cell.
    Entries are assembled explicitly so the result is symmetric bitwise.
    """
    F = np.asarray(F_e, dtype=float)
    p = np.asarray(p, dtype=float)
    a, b = F[..., 0, 0], F[..., 0, 1]
    c, d = F[..., 1, 0], F[..., 1, 1]
    G = params.G
    s = np.empty(F.shape, dtype=float)
    s[..., 0, 0] = G * (a * a + b * b) - p
    s[..., 1, 1] = G * (c * c + d * d) - p
    off = G * (a * c + b * d)
    s[..., 0, 1] = off
    s[..., 1, 0] = off
    return s


def total_stress(F_e: np.ndarray, grad_v: np.ndarray, p, params: MaterialParams) -> np.ndarray:
    """Neo-Hookean stress plus the viscous regularization ``2 mu sym(grad v)``."""
    s = neo_hookean_stress(F_e, p, params)
    if params.mu != 0.0:
        s = s + 2.0 * params.mu * sym(np.asarray(grad_v, dtype=float))
    return s


def attach_elastic_deformation(spec: AttachmentSpec, params: MaterialParams):
    """Invert the stress response for the elastic deformation of added material.

    Restricted to the tangential-identity family ``F_e = [[1, gamma], [0, 1]]``
    (deformations that leave vectors tangent to the growth surface
    unchanged) with a free pressure; the surface normal is e2.  Returns
    ``(F_e, p)`` such that ``neo_hookean_stress(F_e, p) @ e2`` reproduces the
    requested traction and ``det F_e = 1`` exactly.

    Raises ``NoInverse`` when the requested 11 component is inconsistent
    with the one the family implies.
    """
    s = spec.sigma_star
    gamma = s[0, 1] / params.G
    p = params.G - s[1, 1]
    # The family pins sigma_11 once the traction is matched.
    s11_implied = s[1, 1] + s[0, 1] * gamma
    scale = max(params.G, float(np.abs(s).max()))
    if abs(s[0, 0] - s11_implied) > 1e-9 * scale:
        raise NoInverse(
            f"attachment stress is inconsistent: sigma_11 = {s[0, 0]:g} but the "
            f"tangential-identity family implies {s11_implied:g}")
    F_e = np.array([[1.0, gamma], [0.0, 1.0]])
    return F_e, p
