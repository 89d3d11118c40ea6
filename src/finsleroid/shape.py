"""Geometry of the unit body: extremal dimensions, the indicatrix profile
and its closed-form parameterization, and convexity data.

The body is a surface of revolution about the axial direction; everything
here works with the generatrix in the (q, Z) half plane. The profile is
sampled through the polar-style parameter f in [0, pi] as

    (q, Z) = (Sin_g f, Cos_g f)

of plane.gen_trig, which traces the unit level set K = 1 exactly from
the north pole (f = 0) to the south pole (f = pi). The implicit equation K(q, Z) = 1 has no
closed-form resolution Z(q), so sampling goes through f; a bisection
root finder is kept in the test suite as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .core import Param, Space, checked_forms, half_G_angle
from .errors import BadDirection, VertexSingular
from .plane import gen_trig

__all__ = [
    "ShapeReport",
    "shape_report",
    "indicatrix_point",
    "indicatrix_profile",
    "profile_slopes",
]


@dataclass(frozen=True)
class ShapeReport:
    """Extremal dimensions of the unit body: floats for a float g, arrays of
    g's shape for per-row g.

    q_star          equatorial radius at Z = 0
    Z1, Z2          south and north poles on the axis
    altitude        Z2 - Z1 = 2 cosh(G pi / 4)
    q_2star         maximal spatial radius (the true half width)
    Z_2star         height at which the width is attained (= -g q_2star)
    width           2 q_2star
    """

    q_star: Union[float, np.ndarray]
    Z1: Union[float, np.ndarray]
    Z2: Union[float, np.ndarray]
    altitude: Union[float, np.ndarray]
    q_2star: Union[float, np.ndarray]
    Z_2star: Union[float, np.ndarray]
    width: Union[float, np.ndarray]


def shape_report(p: Param) -> ShapeReport:
    """Closed-form extremal dimensions for the parameter p.

    The widest point sits where dq/dZ = 0, i.e. Z = -g q; there the
    angular argument reduces to -arctan(G/2) regardless of the sign of g,
    which resolves the branch split (Z_2star >= 0 iff g <= 0).
    """
    G = p.G
    at = np.arctan(0.5 * G)
    q_star = np.exp(half_G_angle(p, -at))
    Z1 = -np.exp(half_G_angle(p, 0.5 * math.pi))
    Z2 = np.exp(half_G_angle(p, -0.5 * math.pi))
    q_2star = np.exp(half_G_angle(p, at))
    fields = (q_star, Z1, Z2, Z2 - Z1, q_2star, -p.g * q_2star, 2.0 * q_2star)
    return ShapeReport(*(float(v) for v in fields) if np.ndim(G) == 0 else fields)


def indicatrix_point(p: Param, sp: Space, f: float, n: np.ndarray) -> np.ndarray:
    """Unit vector on the level set K = 1 at polar parameter f in [0, pi]
    along the unit spatial direction n (r_ab n^a n^b = 1). A non-finite n
    raises ValueError, as check_vector does."""
    n = np.asarray(n, dtype=float)
    if n.shape != (sp.dim - 1,):
        raise BadDirection(f"direction must have {sp.dim - 1} components")
    nn = sp.spatial_norm(np.append(n, 0.0)) ** 2
    if abs(nn - 1.0) > 1e-10:
        raise BadDirection(f"direction is not unit for the spatial metric: |n|^2 = {nn}")
    if not 0.0 <= f <= math.pi:
        raise ValueError(f"profile parameter must lie in [0, pi], got {f}")
    t = gen_trig(p, f)
    out = np.empty(sp.dim)
    out[:-1] = n * t.sin_g
    out[-1] = t.cos_g
    return out


def indicatrix_profile(p: Param, n_samples: int) -> np.ndarray:
    """Generatrix polyline: array of (q, Z) rows sampled uniformly in f
    over [0, pi], shape (n_samples, 2). Every row satisfies K = 1 exactly.
    A per-row Param whose g has shape (k, 1) gives the k polylines stacked,
    shape (k, n_samples, 2)."""
    n_samples = int(n_samples)
    if n_samples < 8:
        raise ValueError("need at least 8 samples")
    t = gen_trig(p, np.linspace(0.0, math.pi, n_samples))
    return np.stack([t.sin_g, t.cos_g], axis=-1)


def profile_slopes(p: Param, sp: Space, R: np.ndarray) -> Tuple[float, float]:
    """First and second derivative of the profile Z(q) at a point of
    the unit level set:

        dZ/dq   = -q / (Z + g q)
        d2Z/dq2 = -B / (Z + g q)^3

    At the pole (q = 0) the slope is 0; approaching Z = 0 from above the
    slope tends to -1/g. The vertical-tangent locus Z + g q = 0 is
    rejected.
    """
    R, f = checked_forms(p, sp, R)
    q, Z = f.q, float(R[-1])
    denom = Z + p.g * q
    if denom == 0.0:
        raise VertexSingular("vertical tangent: Z + g q = 0")
    return -q / denom, -f.B / denom**3
