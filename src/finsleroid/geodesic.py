"""Closed-form geodesics of the quasi-Euclidean space and their pullback
to the anisotropic picture.

A geodesic between image-space points t1, t2 is a plane curve through
span{t1, t2}; its squared radial norm follows the quadratic law
S^2(s) = a^2 + 2 b s + s^2 with a = |t1| and b determined by the swept
angle. All inverse-trigonometric steps use the two-argument arctangent so
the formulas stay valid when a^2 + b s changes sign along the curve.

Validity: the closed two-point form represents the connecting geodesic
for swept angles alpha < pi. At alpha = pi the curve degenerates through
the origin, and past it no smooth connecting geodesic exists, so both
cases raise AntipodalSingular (as does the Euclidean-antipodal
configuration sin(h alpha) = 0 itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import Param, Space
from .errors import AntipodalSingular, CollinearVectors, DegenerateVector, NotUnitSpeed
from .quasieuclid import mu, n_metric, sigma

__all__ = [
    "GeodesicBoundary",
    "connect",
    "qe_geodesic_at",
    "qe_velocity",
    "endpoint_velocities",
    "qe_geodesic_initial",
    "finsleroid_geodesic",
    "difference_gradients",
]

_CLAMP_TOL = 1e-12
_RADIAL_TOL = 1e-12
# arccos near -1 has square-root sensitivity, so angles within ~1e-7 of the
# sweep limit pi are already dominated by rounding of the input cosine
_ANTIPODAL_TOL = 1e-7


def _space_for(t: np.ndarray, space: Optional[Space]) -> Space:
    if space is not None:
        return space
    return Space.euclidean(len(np.asarray(t)))


def _clamped_arccos(x: float) -> float:
    if x > 1.0:
        if x > 1.0 + _CLAMP_TOL:
            raise ValueError(f"cosine argument {x} outside [-1, 1]")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - _CLAMP_TOL:
            raise ValueError(f"cosine argument {x} outside [-1, 1]")
        x = -1.0
    return math.acos(x)


@dataclass(frozen=True)
class GeodesicBoundary:
    """Solved two-point data of a geodesic.

    a        |t1|
    b        integration constant, (t1 . v1)
    delta_s  arc length between the endpoints
    S_end    |t2|
    alpha    swept angle, arccos of the normalized product divided by h
    radial   True when t2 lies on the ray of t1 (alpha = 0 short circuit)
    """

    param: Param
    space: Space
    t1: np.ndarray
    t2: np.ndarray
    a: float
    b: float
    delta_s: float
    S_end: float
    alpha: float
    radial: bool = False


def connect(p: Param, t1: np.ndarray, t2: np.ndarray,
            space: Optional[Space] = None) -> GeodesicBoundary:
    """Solve the two-point problem: angle, arc length, and the constants
    of the quadratic norm law."""
    sp = _space_for(t1, space)
    t1 = sp.check_vector(np.asarray(t1, dtype=float))
    t2 = sp.check_vector(np.asarray(t2, dtype=float))
    a = sp.norm(t1)
    S_end = sp.norm(t2)
    if a == 0.0 or S_end == 0.0:
        raise DegenerateVector("geodesic endpoints must be nonzero")
    cos_e = sp.dot(t1, t2) / (a * S_end)
    alpha = _clamped_arccos(cos_e) / p.h
    if alpha <= _RADIAL_TOL:
        # same-ray case: linear interpolation of norms along the ray
        delta_s = abs(S_end - a)
        b = a if delta_s == 0.0 else a * math.copysign(1.0, S_end - a)
        return GeodesicBoundary(p, sp, t1, t2, a, b, delta_s, S_end, 0.0, radial=True)
    if math.sin(p.h * alpha) <= _ANTIPODAL_TOL:
        raise AntipodalSingular(
            "endpoints are Euclidean-antipodal: sin(h alpha) = 0")
    if alpha >= math.pi - _ANTIPODAL_TOL:
        raise AntipodalSingular(
            f"swept angle {alpha:.6f} >= pi: no smooth connecting geodesic")
    delta_s = math.sqrt(max(a * a + S_end * S_end - 2 * a * S_end * math.cos(alpha), 0.0))
    b = a * (S_end * math.cos(alpha) - a) / delta_s
    return GeodesicBoundary(p, sp, t1, t2, a, b, delta_s, S_end, alpha)


def qe_geodesic_at(bd: GeodesicBoundary, s: Union[float, np.ndarray]
                   ) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Point t(s) on the geodesic and the intermediate swept angle nu(s).

    nu runs from 0 at s = 0 to alpha at s = delta_s, and the norm law
    (t(s) . t(s)) = a^2 + 2 b s + s^2 holds along the curve.

    s is one arc length, which gives t of shape (N,) and a float nu, or an
    array of them, which gives t of shape s.shape + (N,) and nu of shape
    s.shape.
    """
    s = np.asarray(s, dtype=float)
    a, b, h = bd.a, bd.b, bd.param.h
    S = np.sqrt(a * a + 2 * b * s + s * s)
    if bd.radial:
        t = (S / a)[..., None] * bd.t1
        nu = np.zeros(s.shape)
    else:
        root = math.sqrt(max(a * a - b * b, 0.0))
        nu = np.arctan2(root * s, a * a + b * s)
        sha = math.sin(h * bd.alpha)
        t = (((S / a) * np.sin(h * (bd.alpha - nu)) / sha)[..., None] * bd.t1
             + ((S / bd.S_end) * np.sin(h * nu) / sha)[..., None] * bd.t2)
    return t, (float(nu) if s.ndim == 0 else nu)


def qe_velocity(bd: GeodesicBoundary, s: float) -> np.ndarray:
    """Velocity dt/ds at arc length s; unit for the transported metric n."""
    a, b, h = bd.a, bd.b, bd.param.h
    S = math.sqrt(a * a + 2 * b * s + s * s)
    if bd.radial:
        return bd.t1 * (b + s) / (a * S)
    root = math.sqrt(max(a * a - b * b, 0.0))
    t, nu = qe_geodesic_at(bd, s)
    sha = math.sin(h * bd.alpha)
    return ((b + s) / S**2 * t
            - root * h / (a * S) * math.cos(h * (bd.alpha - nu)) / sha * bd.t1
            + root * h / (S * bd.S_end) * math.cos(h * nu) / sha * bd.t2)


def endpoint_velocities(bd: GeodesicBoundary) -> Tuple[np.ndarray, np.ndarray]:
    """Initial and final velocities; (t1 . v1) = b, (t2 . v2) = b + delta_s."""
    return qe_velocity(bd, 0.0), qe_velocity(bd, bd.delta_s)


def qe_geodesic_initial(p: Param, t1: np.ndarray, v1: np.ndarray, s: float,
                        space: Optional[Space] = None,
                        unit_speed_tol: float = 1e-8) -> np.ndarray:
    """Initial-value solution t(s) = m(s) t1 + n(s) v1 with

        m(s) = (S(s)/a) [cos(h nu) - (b / (h sqrt(a^2 - b^2))) sin(h nu)]
        n(s) = a S(s) sin(h nu) / (h sqrt(a^2 - b^2))

    where a = |t1|, b = (t1 . v1), and nu(s) is the swept angle. Requires
    unit speed n_pq(t1) v1^p v1^q = 1.
    """
    sp = _space_for(t1, space)
    t1 = sp.check_vector(np.asarray(t1, dtype=float))
    v1 = sp.check_vector(np.asarray(v1, dtype=float))
    nm = n_metric(p, sp, t1)
    speed = float(v1 @ nm.low @ v1)
    if abs(speed - 1.0) > unit_speed_tol:
        raise NotUnitSpeed(f"n(v1, v1) = {speed}, expected 1")
    a = sp.norm(t1)
    b = sp.dot(t1, v1)
    root2 = a * a - b * b
    if root2 <= (a * a) * 1e-24:
        # radial launch
        return t1 + s * v1
    root = math.sqrt(root2)
    S = math.sqrt(a * a + 2 * b * s + s * s)
    nu = math.atan2(root * s, a * a + b * s)
    h = p.h
    m_c = (S / a) * (math.cos(h * nu) - b / (h * root) * math.sin(h * nu))
    n_c = a * S * math.sin(h * nu) / (root * h)
    return m_c * t1 + n_c * v1


def finsleroid_geodesic(p: Param, sp: Space, R1: np.ndarray, R2: np.ndarray,
                        s: float) -> np.ndarray:
    """Geodesic point R(s) between R1 and R2 in the anisotropic picture,
    obtained by mapping the boundary into image space, solving there, and
    pulling back. K^2(R(s)) obeys the quadratic law a^2 + 2 b s + s^2."""
    bd = connect(p, sigma(p, sp, R1), sigma(p, sp, R2), space=sp)
    t, _ = qe_geodesic_at(bd, s)
    return mu(p, sp, t)


def difference_gradients(p: Param, t1: np.ndarray, t2: np.ndarray,
                         space: Optional[Space] = None) -> dict:
    """Gradients of half the squared two-point length, raised to vectors,
    plus the auxiliary orthogonal-complement vectors.

    Returns {"b1", "b2", "d1", "d2", "u"} where u is the Gram root
    sqrt((t1.t1)(t2.t2) - (t1.t2)^2). Identities: (t1 . d1) = 0,
    (d1 . d2) = -(t1 . t2), (d1 . t2) = u; at g = 0, b1 = t1 - t2.
    """
    sp = _space_for(t1, space)
    t1 = sp.check_vector(np.asarray(t1, dtype=float))
    t2 = sp.check_vector(np.asarray(t2, dtype=float))
    a11 = sp.dot(t1, t1)
    a22 = sp.dot(t2, t2)
    a12 = sp.dot(t1, t2)
    gram = a11 * a22 - a12 * a12
    if gram <= (a11 * a22) * 1e-24:
        raise CollinearVectors("difference gradients need independent vectors")
    u = math.sqrt(gram)
    d1 = (a11 * t2 - a12 * t1) / u
    d2 = (a22 * t1 - a12 * t2) / u
    h = p.h
    alpha = _clamped_arccos(a12 / math.sqrt(a11 * a22)) / h
    n1, n2 = math.sqrt(a11), math.sqrt(a22)
    ca, sa = math.cos(alpha), math.sin(alpha)
    b1 = t1 - (t1 / n1) * n2 * ca - (n2 / (h * n1)) * sa * d1
    b2 = t2 - (t2 / n2) * n1 * ca - (n1 / (h * n2)) * sa * d2
    return {"b1": b1, "b2": b2, "d1": d1, "d2": d2, "u": u}
