"""Closed-form geodesics of the quasi-Euclidean space and their pullback
to the anisotropic picture.

A geodesic between image-space points t1, t2 is a plane curve through
span{t1, t2}; its squared radial norm follows the quadratic law
S^2(s) = a^2 + 2 b s + s^2 with a = |t1| and b determined by the swept
angle, and it turns by the image angle h nu(s) from t1:

    t(s) = (S/a) (cos(h nu) t1 + sin(h nu) d1),
    nu(s) = atan2(sqrt(a^2 - b^2) s, a^2 + b s),

with d1 the vector t1 turned a right angle toward the other end, |d1| = a.
This one formula, in _turn, gives the two-point curve and its velocity
(d1 from the Gram record of t1 and t2) and the initial-value curve (d1
from t1 and v1). The two-argument arctangent keeps it valid when a^2 + b s
changes sign along the curve. Every function takes one pair (N,) or
stacked pairs (..., N), with one g or one g per row, and runs the formula
row by row for both: a radial row, whose ends lie on one ray, is selected
row by row.

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

from .core import (Param, Space, _rows, any_row, check_finite, checked_pair, per_row,
                   space_for)
from .errors import AntipodalSingular, NotUnitSpeed
from .quasieuclid import mu, n_metric, sigma
from .twovector import _covector_pair

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
    d1       t1 turned a right angle toward t2 in their plane, |d1| = a:
             the Space.gram d1, and 0 on the radial rows. The curve is
             t = (S/a) (cos(h nu) t1 + sin(h nu) d1).

    For one pair the scalar fields are Python floats and radial a bool; for
    stacked pairs they are arrays over the rows, radial is the row mask,
    and t1, t2, d1 have the pairs' shape (..., N).
    """

    param: Param
    space: Space
    t1: np.ndarray
    t2: np.ndarray
    d1: np.ndarray
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
    pair = sp.gram(t1, t2)
    m = np if isinstance(pair.a12, np.ndarray) else math  # floats for one pair
    a, S_end = m.sqrt(pair.a11), m.sqrt(pair.a22)
    alpha = pair.angle / p.h
    if any_row(alpha >= math.pi - ANTIPODAL_TOL):
        # h <= 1, so this also refuses a Euclidean-antipodal pair
        raise AntipodalSingular(f"swept angle {np.max(alpha):.6f} >= pi: "
                                "no smooth connecting geodesic")
    radial = pair.collinear
    # a radial row runs along the ray: alpha = 0, delta_s below is
    # hypot(a - S_end, 0) = |S_end - a|, b is +-a (+a when the ends
    # coincide), over a divisor of 1 so that coincident ends make no 0/0,
    # and d1 = (a11 / u) perp is 0, u read as infinite (it may be 0 there)
    alpha = _rows(radial, 0.0, alpha)
    d1 = per_row(pair.a11 / _rows(radial, math.inf, pair.u)) * pair.perp
    # cosine theorem and b = a (S_end cos(alpha) - a) / delta_s, written
    # with 1 - cos(alpha) = 2 sin^2(alpha/2) so neither cancels
    half = m.sin(0.5 * alpha)
    delta_s = m.hypot(a - S_end, 2.0 * m.sqrt(a * S_end) * half)
    b = _rows(radial, a * m.copysign(1.0, S_end - a),
              a * ((S_end - a) - 2.0 * S_end * half * half) / _rows(radial, 1.0, delta_s))
    return GeodesicBoundary(p, sp, pair.x, pair.y, d1, a, b, delta_s, S_end, alpha, radial)


def _turn(a, b, h, root, s, t1, d1, velocity=False):
    """The one geodesic formula: the point, or the velocity, of the plane
    turn at arc lengths s, with the swept angle nu. The norm law and the
    turn are

        S = sqrt(a^2 + 2 b s + s^2),  nu = atan2(root s, a^2 + b s),
        t = (S/a) (cos(h nu) t1 + sin(h nu) d1),
        v = ((b + s)/S^2) t + (h root/(a S)) (cos(h nu) d1 - sin(h nu) t1)

    with root = sqrt(a^2 - b^2) and d1 of norm a. A float s (one arc length
    of one pair, every field a float) runs in floats and math; otherwise
    the fields broadcast against s and t1, d1 carry a last axis of N."""
    m = math if isinstance(s, float) else np
    S = m.sqrt(a * a + 2.0 * b * s + s * s)
    nu = m.atan2(root * s, a * a + b * s)
    cos, sin = m.cos(h * nu), m.sin(h * nu)
    if velocity:  # ((b + s)/S^2) t is ((b + s)/(a S)) (cos t1 + sin d1)
        along, turn = (b + s) / (a * S), h * root / (a * S)
        c1, c2 = along * cos - turn * sin, along * sin + turn * cos
    else:
        c1, c2 = S / a * cos, S / a * sin
    if m is np:
        c1, c2 = c1[..., None], c2[..., None]
    return c1 * t1 + c2 * d1, nu


def _along(bd: GeodesicBoundary, s, velocity=False):
    """_turn along the curve of bd at arc lengths s, row by row, with
    root = a |t2| sin(alpha) / delta_s, which does not cancel as
    sqrt(a^2 - b^2) does. The radial rows read delta_s = 1: with alpha = 0
    and d1 = 0 they run along the ray, t = (S/a) t1, and coincident ends
    make no 0/0. The per-row fields broadcast over the axes of s past the
    rows."""
    ray, t1, d1 = bd.radial, bd.t1, bd.d1
    m = np if isinstance(ray, np.ndarray) else math  # floats for one pair
    root = bd.a * bd.S_end * m.sin(bd.alpha) / _rows(ray, 1.0, bd.delta_s)
    rows = [bd.a, bd.b, bd.param.h, root]
    if m is math and np.ndim(s) == 0:
        s = float(s)
    else:
        s = np.asarray(s, dtype=float)
        k = s.ndim - t1.ndim + 1
        if k > 0:
            rows = [per_row(v, k) for v in rows]
            t1, d1 = (x.reshape(x.shape[:-1] + (1,) * k + x.shape[-1:]) for x in (t1, d1))
    check_finite(s, "arc length")
    return _turn(*rows, s, t1, d1, velocity)


def qe_geodesic_at(bd: GeodesicBoundary, s: Union[float, np.ndarray]
                   ) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Point t(s) on the geodesic and the intermediate swept angle nu(s).

    nu runs from 0 at s = 0 to alpha at s = delta_s, and the norm law
    (t(s) . t(s)) = a^2 + 2 b s + s^2 holds along the curve.

    For one pair s is one arc length, which gives t of shape (N,) and a
    float nu, or an array of them, which gives t of shape s.shape + (N,) and
    nu of shape s.shape. For a stacked boundary with rows of shape M, s has
    shape M + (trailing axes), row i of s running along row i of bd; t has
    shape s.shape + (N,) and nu shape s.shape. A non-finite s raises
    ValueError.
    """
    return _along(bd, s)


def qe_velocity(bd: GeodesicBoundary, s: Union[float, np.ndarray]) -> np.ndarray:
    """Velocity dt/ds at arc length s, of the shape of qe_geodesic_at's t
    for the same s; unit for the transported metric n."""
    return _along(bd, s, velocity=True)[0]


def endpoint_velocities(bd: GeodesicBoundary) -> Tuple[np.ndarray, np.ndarray]:
    """Initial and final velocities; (t1 . v1) = b, (t2 . v2) = b + delta_s.
    Rows of a stacked boundary give rows of velocities."""
    return qe_velocity(bd, 0.0 * bd.delta_s), qe_velocity(bd, bd.delta_s)


# The closed form assumes unit speed: a v1 from endpoint_velocities is unit
# to 2e-14 (3000 random pairs, alpha < 3.1), and a v1 off by this tolerance
# moves t(s) by at most about 4e-8 |t| per unit of arc.
_UNIT_SPEED_TOL = 1e-8


def qe_geodesic_initial(p: Param, t1: np.ndarray, v1: np.ndarray, s: Union[float, np.ndarray],
                        space: Optional[Space] = None) -> np.ndarray:
    """Initial-value solution t(s): the plane turn of qe_geodesic_at,

        t(s) = (S(s)/a) (cos(h nu) t1 + sin(h nu) d1),

    with a = |t1|, b = (t1 . v1), root = u / h, and u and d1 = (a^2/u) perp
    the Gram root and the turned t1 of the pair (t1, v1). Takes one point
    and velocity (N,) or stacked ones (..., N), with one g or one g per
    row, and s a float or one arc length per row. Requires unit speed
    n_pq(t1) v1^p v1^q = 1, under which u = h sqrt(a^2 - b^2), to within
    _UNIT_SPEED_TOL on every row. A non-finite s raises ValueError.

    A radial launch, (t1, v1) collinear by the kernel's test, runs along
    the line t1 + s v1. Its row reads u as infinite and b as 0 in the
    turn, so that d1 = 0 and S^2 = a^2 + s^2 make no 0/0 and no root of a
    negative number, and then takes the line.
    """
    s = check_finite(np.asarray(s, dtype=float), "arc length")
    sp = space_for(t1, space)
    t1, v1 = sp.check_vector(t1), sp.check_vector(v1)
    speed = np.vecdot(np.matvec(n_metric(p, sp, t1).low, v1), v1)
    if any_row(abs(speed - 1.0) > _UNIT_SPEED_TOL):
        raise NotUnitSpeed(f"n(v1, v1) = {speed}, expected 1")
    pair = sp.gram(t1, v1)
    ray = pair.collinear
    d1 = per_row(pair.a11 / _rows(ray, np.inf, pair.u)) * pair.perp
    t = _turn(np.sqrt(pair.a11), _rows(ray, 0.0, pair.a12), p.h, pair.u / p.h, s, t1, d1)[0]
    return _rows(per_row(ray), t1 + per_row(s) * v1, t)


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
    (T1, T2) = covector_pair(t1, t2), all from one Space.gram record.
    Identities: (t1 . d1) = 0, (d1 . d2) = -(t1 . t2), (d1 . t2) = u;
    at g = 0, b1 = t1 - t2. One pair gives a float u, stacked pairs arrays
    over the rows; a collinear row raises CollinearVectors, as
    covector_pair does.
    """
    pair = checked_pair(t1, t2, space)[1]
    T1, T2 = _covector_pair(p, pair)
    return {"b1": pair.x - T1, "b2": pair.y - T2, "d1": pair.d1, "d2": pair.d2,
            "u": pair.u}
