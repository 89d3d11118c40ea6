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
cases raise AntipodalSingular (as does a Euclidean-antipodal pair of
endpoints itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import Param, Space, checked_pair, space_for
from .errors import AntipodalSingular, CollinearVectors, NotUnitSpeed
from .quasieuclid import mu, n_metric, sigma
from .twovector import covector_pair

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

# Swept angles within this of pi are refused: the curve passes the origin at
# sqrt(a^2 - b^2) ~ (pi - alpha) a |t2| / delta_s, where the norm law
# a^2 + 2 b s + s^2, rounded by eps a^2, is already off by several percent
# at pi - alpha = 1e-7.
_ANTIPODAL_TOL = 1e-7


@dataclass(frozen=True)
class GeodesicBoundary:
    """Solved two-point data of a geodesic.

    a        |t1|
    b        integration constant, (t1 . v1)
    delta_s  arc length between the endpoints
    S_end    |t2|
    alpha    swept angle: the Space.gram angle of t1 and t2, divided by h
    radial   True when t2 lies on the ray of t1 (Gram.collinear, alpha = 0)
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
    sp, pair = checked_pair(t1, t2, space)
    t1, t2 = pair.x, pair.y
    a, S_end = math.sqrt(pair.a11), math.sqrt(pair.a22)
    alpha = pair.angle / p.h
    if alpha >= math.pi - _ANTIPODAL_TOL:
        # h <= 1, so this also refuses a Euclidean-antipodal pair
        raise AntipodalSingular(
            f"swept angle {alpha:.6f} >= pi: no smooth connecting geodesic")
    if pair.collinear:
        # same-ray case: linear interpolation of norms along the ray
        delta_s = abs(S_end - a)
        b = a if delta_s == 0.0 else a * math.copysign(1.0, S_end - a)
        return GeodesicBoundary(p, sp, t1, t2, a, b, delta_s, S_end, 0.0, radial=True)
    # cosine theorem and b = a (S_end cos(alpha) - a) / delta_s, written
    # with 1 - cos(alpha) = 2 sin^2(alpha/2) so neither cancels
    half = math.sin(0.5 * alpha)
    delta_s = math.hypot(a - S_end, 2.0 * math.sqrt(a * S_end) * half)
    b = a * ((S_end - a) - 2.0 * S_end * half * half) / delta_s
    return GeodesicBoundary(p, sp, t1, t2, a, b, delta_s, S_end, alpha)


def _root(bd: GeodesicBoundary) -> float:
    """sqrt(a^2 - b^2) = a |t2| sin(alpha) / delta_s, which does not cancel."""
    return bd.a * bd.S_end * math.sin(bd.alpha) / bd.delta_s


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
        nu = np.arctan2(_root(bd) * s, a * a + b * s)
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
    root = _root(bd)
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

        m(s) = (S(s)/a) [cos(h nu) - (b / u) sin(h nu)]
        n(s) = a S(s) sin(h nu) / u

    where a = |t1|, b = (t1 . v1), u is the Gram root of (t1, v1), and
    nu(s) is the swept angle. Requires unit speed n_pq(t1) v1^p v1^q = 1,
    under which u = h sqrt(a^2 - b^2).
    """
    sp = space_for(t1, space)
    t1 = sp.check_vector(np.asarray(t1, dtype=float))
    v1 = sp.check_vector(np.asarray(v1, dtype=float))
    speed = float(v1 @ n_metric(p, sp, t1).low @ v1)
    if abs(speed - 1.0) > unit_speed_tol:
        raise NotUnitSpeed(f"n(v1, v1) = {speed}, expected 1")
    pair = sp.gram(t1, v1)
    if pair.collinear:
        # radial launch
        return t1 + s * v1
    a, b, u, h = math.sqrt(pair.a11), pair.a12, pair.u, p.h
    S = math.sqrt(a * a + 2 * b * s + s * s)
    nu = math.atan2(u * s, h * (a * a + b * s))
    m_c = (S / a) * (math.cos(h * nu) - b / u * math.sin(h * nu))
    n_c = a * S * math.sin(h * nu) / u
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
    sqrt((t1.t1)(t2.t2) - (t1.t2)^2), and b1 = t1 - T1, b2 = t2 - T2 with
    (T1, T2) = covector_pair(t1, t2).
    Identities: (t1 . d1) = 0, (d1 . d2) = -(t1 . t2), (d1 . t2) = u;
    at g = 0, b1 = t1 - t2.
    """
    sp, pair = checked_pair(t1, t2, space)
    if pair.collinear:
        raise CollinearVectors("difference gradients need independent vectors")
    T1, T2 = covector_pair(p, pair.x, pair.y, space=sp)
    return {"b1": pair.x - T1, "b2": pair.y - T2, "d1": pair.d1, "d2": pair.d2,
            "u": pair.u}
