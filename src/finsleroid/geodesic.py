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

from .core import Param, Space, any_row, checked_pair, per_row, space_for
from .errors import AntipodalSingular, CollinearVectors, NotUnitSpeed
from .quasieuclid import mu, n_metric, sigma
from .twovector import covector_pair

__all__ = [
    "ANTIPODAL_TOL",
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
ANTIPODAL_TOL = 1e-7


@dataclass(frozen=True)
class GeodesicBoundary:
    """Solved two-point data of a geodesic, for one pair or for every row
    of a stack.

    a        |t1|
    b        integration constant, (t1 . v1)
    delta_s  arc length between the endpoints
    S_end    |t2|
    alpha    swept angle: the Space.gram angle of t1 and t2, divided by h
    radial   t2 lies on the ray of t1 (Gram.collinear, alpha = 0)

    For one pair the scalar fields are Python floats and radial a bool; for
    stacked pairs they are arrays over the rows, radial is the row mask,
    and t1, t2 have the pairs' shape (..., N).
    """

    param: Param
    space: Space
    t1: np.ndarray
    t2: np.ndarray
    a: Union[float, np.ndarray]
    b: Union[float, np.ndarray]
    delta_s: Union[float, np.ndarray]
    S_end: Union[float, np.ndarray]
    alpha: Union[float, np.ndarray]
    radial: Union[bool, np.ndarray] = False


def connect(p: Param, t1: np.ndarray, t2: np.ndarray,
            space: Optional[Space] = None) -> GeodesicBoundary:
    """Solve the two-point problem: angle, arc length, and the constants
    of the quadratic norm law. Takes one pair (N,) or stacked pairs
    (..., N), with one g or one g per row, each row on its own. Raises
    AntipodalSingular when the swept angle of some row is within
    ANTIPODAL_TOL of pi, and DegenerateVector when a row is zero."""
    sp = space_for(t1, space)
    pair = sp.gram(sp.check_vector(t1), sp.check_vector(t2))
    m = np if isinstance(pair.a12, np.ndarray) else math  # floats for one pair
    a, S_end = m.sqrt(pair.a11), m.sqrt(pair.a22)
    alpha = pair.angle / p.h
    if any_row(alpha >= math.pi - ANTIPODAL_TOL):
        # h <= 1, so this also refuses a Euclidean-antipodal pair
        raise AntipodalSingular(f"swept angle {np.max(alpha):.6f} >= pi: "
                                "no smooth connecting geodesic")
    radial = pair.collinear
    # a radial pair runs along the ray: the norms interpolate linearly,
    # delta_s = |S_end - a| and b = +-a (+a when the ends coincide)
    b_ray = a * m.copysign(1.0, S_end - a)
    if radial is True:
        return GeodesicBoundary(p, sp, pair.x, pair.y, a, b_ray, abs(S_end - a),
                                S_end, 0.0, True)
    if m is np:
        # radial rows of a stack: alpha = 0, where delta_s below is
        # hypot(a - S_end, 0) = |S_end - a|; b is b_ray, over a divisor of 1
        # so that coincident ends make no 0/0
        alpha = np.where(radial, 0.0, alpha)
    # cosine theorem and b = a (S_end cos(alpha) - a) / delta_s, written
    # with 1 - cos(alpha) = 2 sin^2(alpha/2) so neither cancels
    half = m.sin(0.5 * alpha)
    delta_s = m.hypot(a - S_end, 2.0 * m.sqrt(a * S_end) * half)
    b = a * ((S_end - a) - 2.0 * S_end * half * half) / (
        delta_s if m is math else np.where(radial, 1.0, delta_s))
    if m is np:
        b = np.where(radial, b_ray, b)
    return GeodesicBoundary(p, sp, pair.x, pair.y, a, b, delta_s, S_end, alpha, radial)


def _root(bd: GeodesicBoundary) -> float:
    """sqrt(a^2 - b^2) = a |t2| sin(alpha) / delta_s of one pair, which does
    not cancel."""
    return bd.a * bd.S_end * math.sin(bd.alpha) / bd.delta_s


def qe_geodesic_at(bd: GeodesicBoundary, s: Union[float, np.ndarray]
                   ) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Point t(s) on the geodesic and the intermediate swept angle nu(s).

    nu runs from 0 at s = 0 to alpha at s = delta_s, and the norm law
    (t(s) . t(s)) = a^2 + 2 b s + s^2 holds along the curve.

    For one pair s is one arc length, which gives t of shape (N,) and a
    float nu, or an array of them, which gives t of shape s.shape + (N,) and
    nu of shape s.shape. For a stacked boundary with rows of shape M, s has
    shape M + (trailing axes), row i of s running along row i of bd; t has
    shape s.shape + (N,) and nu shape s.shape.
    """
    s = np.asarray(s, dtype=float)
    a, b, h, ray = bd.a, bd.b, bd.param.h, bd.radial
    t1, t2, S_end, alpha = bd.t1, bd.t2, bd.S_end, bd.alpha
    stacked = isinstance(ray, np.ndarray)
    if stacked:
        # the per-row fields broadcast over the axes of s past the rows
        k = s.ndim - ray.ndim
        a, b, h, ray, S_end, alpha, delta_s = (
            per_row(v, k) for v in (a, b, h, ray, S_end, alpha, bd.delta_s))
        t1, t2 = (t.reshape(t.shape[:-1] + (1,) * k + t.shape[-1:]) for t in (t1, t2))
        # the radial rows read alpha = delta_s = 1 here, no 0/0, and are set
        # to the ray t = (S/a) t1 below
        alpha, delta_s = np.where(ray, 1.0, alpha), np.where(ray, 1.0, delta_s)
        root, sha = a * S_end * np.sin(alpha) / delta_s, np.sin(h * alpha)
    S = np.sqrt(a * a + 2 * b * s + s * s)
    if ray is True:
        t = (S / a)[..., None] * t1
        nu = np.zeros(s.shape)
    else:
        if not stacked:
            root, sha = _root(bd), math.sin(h * alpha)
        nu = np.arctan2(root * s, a * a + b * s)
        c1 = (S / a) * np.sin(h * (alpha - nu)) / sha
        c2 = (S / S_end) * np.sin(h * nu) / sha
        if stacked:
            nu, c1, c2 = np.where(ray, 0.0, nu), np.where(ray, S / a, c1), np.where(ray, 0.0, c2)
        t = c1[..., None] * t1 + c2[..., None] * t2
    return t, (float(nu) if nu.ndim == 0 else nu)


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
