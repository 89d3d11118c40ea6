"""Angle, scalar product, perpendicularity, two-point length, and the
first-order parallelogram law with its exact numeric companion.

The angle between two vectors is 1/h times the Euclidean angle of their
images under the norm-preserving map; it is normalized so the classical
cosine theorem holds verbatim with anisotropic lengths. It ranges over
[0, pi/h].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Param, Space, checked_pair, scalar_forms, space_for
from .errors import CollinearVectors, DegenerateVector, NoConvergence
from .quasieuclid import sigma_over_j

__all__ = [
    "AnglePair",
    "fins_angle",
    "qe_angle",
    "axis_angle",
    "equator_angle",
    "perpendicular_companion",
    "parallelogram_sum",
    "parallelogram_diff",
    "parallelogram_exact",
    "parallelogram_residuals",
]


@dataclass(frozen=True)
class AnglePair:
    """Angle data for a vector pair: the angle alpha in [0, pi/h], the
    scalar product K1 K2 cos(alpha), and the squared two-point length
    K1^2 + K2^2 - 2 K1 K2 cos(alpha)."""

    alpha: float
    scalar_product: float
    ominus_sq: float


def fins_angle(p: Param, sp: Space, R1: np.ndarray, R2: np.ndarray) -> AnglePair:
    """Angle, scalar product, and squared two-point length of two vectors.

    alpha is 1/h times the Space.gram angle of the images (h R^a, A), which
    equals qe_angle of the sigma images. K1^2 + K2^2 - 2 K1 K2 cos(alpha) is
    formed as (K1 - K2)^2 + 4 K1 K2 sin^2(alpha/2), which does not cancel.
    """
    f1 = scalar_forms(p, sp, R1)
    f2 = scalar_forms(p, sp, R2)
    pair = sp.gram(sigma_over_j(p, R1, f1.A), sigma_over_j(p, R2, f2.A))
    alpha = pair.angle / p.h
    product = f1.K * f2.K * math.cos(alpha)
    half = math.sin(0.5 * alpha)
    ominus_sq = (f1.K - f2.K) ** 2 + 4.0 * f1.K * f2.K * half * half
    return AnglePair(alpha=alpha, scalar_product=product, ominus_sq=ominus_sq)


def qe_angle(p: Param, t1: np.ndarray, t2: np.ndarray,
             space: Optional[Space] = None) -> float:
    """Image-space angle: (1/h) times the Euclidean angle of t1, t2."""
    return checked_pair(t1, t2, space)[1].angle / p.h


def axis_angle(p: Param, sp: Space, R: np.ndarray) -> float:
    """Angle between R and the positive axial direction:
    (1/h) atan2(h q, A), the angle of the image (h R^a, A) with the axis.
    Equals fins_angle(R, e_N).alpha."""
    f = scalar_forms(p, sp, R)
    return math.atan2(p.h * f.q, f.A) / p.h


def equator_angle(p: Param, sp: Space, R: np.ndarray) -> float:
    """Angle between R and its own equatorial direction: (1/h) atan2(h |Z|, L),
    from the product L and Gram root h |Z| of their images (h R^a, A).
    Needs q > 0 for the direction to exist."""
    f = scalar_forms(p, sp, R)
    if f.q == 0.0:
        raise DegenerateVector("equatorial direction undefined on the axis")
    return math.atan2(p.h * abs(float(R[-1])), f.L) / p.h


# Bound on the final |angle - pi/2| of perpendicular_companion when tol is
# tighter. The kernel angle over h carries a few eps/h of rounding, so a run
# that stops on a collapsed bracket still ends far inside 1e-10, the accuracy
# the tests and the benchmark ask for; an end beyond it means no root.
_COMPANION_TOL = 1e-10


def perpendicular_companion(p: Param, sp: Space, R: np.ndarray,
                            seed: Optional[np.ndarray] = None,
                            tol: float = 1e-12) -> np.ndarray:
    """A vector at angle pi/2 from R (so the scalar product vanishes).

    Built by Gram-Schmidt against R in the background metric, then rotated
    by theta in [0, pi] within the span until the image angle is pi/2 to
    tol. The root is bracketed and found by regula falsi with the Pegasus
    weights, with a midpoint step whenever the secant step leaves the
    bracket. Raises NoConvergence when the angle ends more than
    max(tol, 1e-10) from pi/2.
    """
    R = sp.check_vector(np.asarray(R, dtype=float))
    if seed is None:
        seed = np.zeros(sp.dim)
        seed[int(np.argmin(np.abs(R)))] = 1.0
    seed = sp.check_vector(np.asarray(seed, dtype=float))
    pair = sp.gram(R, seed)
    if pair.collinear:
        raise CollinearVectors("seed is parallel to R")
    e = R / math.sqrt(pair.a11)
    w = pair.perp * (math.sqrt(pair.a11) / pair.u)
    A = scalar_forms(p, sp, R).A
    image_R = sigma_over_j(p, R, A)

    def ang(image_v: np.ndarray) -> float:
        return sp.gram(image_R, image_v).angle / p.h - 0.5 * math.pi

    # ang at theta = 0 is -pi/2. At theta = pi, v = -e, whose image needs no
    # new scalar forms (A(-R) = A - 2 Z), and ang > 0: the angle of R and -R
    # is at least 2.
    lo, hi = 0.0, math.pi
    f_lo, f_hi = -0.5 * math.pi, ang(sigma_over_j(p, -R, A - 2.0 * R[-1]))
    kept = 0  # +1 (-1) after a step that kept lo (hi)
    for _ in range(200):
        theta = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
        v = math.cos(theta) * e + math.sin(theta) * w
        f = ang(sigma_over_j(p, v, scalar_forms(p, sp, v).A))
        if abs(f) < tol or hi - lo < 1e-16:
            break
        if f < 0:
            if kept < 0:  # hi kept twice in a row: scale its value (Pegasus)
                f_hi *= f_lo / (f_lo + f)
            lo, f_lo, kept = theta, f, -1
        else:
            if kept > 0:
                f_lo *= f_hi / (f_hi + f)
            hi, f_hi, kept = theta, f, 1
    if abs(f) > max(tol, _COMPANION_TOL):
        raise NoConvergence(f"perpendicular companion ends {abs(f):.2e} from pi/2")
    return v


# ---------------------------------------------------------------------------
# parallelogram law
# ---------------------------------------------------------------------------

def _first_order(p: Param, t1: np.ndarray, t2: np.ndarray,
                 space: Optional[Space], what: str):
    """(space, Gram data, k = 1/h - 1) of an independent pair; warns for k > 0.2."""
    sp, pair = checked_pair(t1, t2, space)
    k = 1.0 / p.h - 1.0
    if k > 0.2:
        warnings.warn(f"first-order {what} with large k = 1/h - 1 = {k:.3f}",
                      stacklevel=3)
    if pair.collinear:
        raise CollinearVectors("parallelogram needs independent vectors")
    return sp, pair, k


def _mix_coeff(sp: Space, x: np.ndarray, y: np.ndarray, a_xy: float,
               a_yy: float, u: float) -> float:
    """m(x, y): coefficient of x in the first-order sum correction."""
    s = x + y
    return (a_xy * sp.gram(x, s).angle - a_yy * sp.gram(y, s).angle) / u


def parallelogram_sum(p: Param, t1: np.ndarray, t2: np.ndarray,
                      space: Optional[Space] = None) -> np.ndarray:
    """First-order anisotropic sum:
    t1 + t2 + (1/h - 1) (m(t1,t2) t1 + m(t2,t1) t2).

    Accurate to O(k^2) in k = 1/h - 1; a warning is issued for k > 0.2.
    """
    sp, pair, k = _first_order(p, t1, t2, space, "sum")
    t1, t2 = pair.x, pair.y
    a12, u = pair.a12, pair.u
    return t1 + t2 + k * (_mix_coeff(sp, t1, t2, a12, pair.a22, u) * t1
                          + _mix_coeff(sp, t2, t1, a12, pair.a11, u) * t2)


def parallelogram_diff(p: Param, t1: np.ndarray, t3: np.ndarray,
                       space: Optional[Space] = None) -> np.ndarray:
    """First-order anisotropic difference t3 - t1 + (1/h - 1) s(t1, t3).

    The correction satisfies (t3 - t1 . s) = u times the (t1, t3) angle
    and (t1 . s) = u times the (t3 - t1, t3) angle.
    """
    sp, pair, k = _first_order(p, t1, t3, space, "difference")
    t1, t3 = pair.x, pair.y
    d = t3 - t1
    d_pair = sp.gram(d, t3)
    e1, e2 = pair.angle, d_pair.angle
    d_t1 = sp.dot(d, t1)
    svec = ((pair.a11 * e1 - d_t1 * e2) * d
            + (d_pair.a11 * e2 - d_t1 * e1) * t1) / pair.u
    return d + k * svec


def _cosine_laws(p: Param, sp: Space, edges: np.ndarray, t3: np.ndarray):
    """Residuals of the two cosine laws at the sum candidate t3 of the edges
    (t1, t2) = edges, and their Jacobian jac[i, j] = d r_i / d (x, y)_j along
    t3 = x t1 + y t2 (None when t3 is collinear with t1 or t2, where the
    angles have a kink).

    r_i = n3 - (a_jj - a_ii) / n3 - 2 sqrt(a_ii) cos(angle(t_i, t3) / h),
    with d n3 / d t3 = r t3 / n3 and d angle(t_i, t3) / d t3 = -r d2 / n3^2
    from the Gram data of (t_i, t3).
    """
    pairs = (sp.gram(edges[0], t3), sp.gram(edges[1], t3))
    collinear = pairs[0].collinear or pairs[1].collinear
    n3_sq = pairs[0].a22
    n3 = math.sqrt(n3_sq)
    res = np.empty(2)
    grads = np.empty((2, len(t3)))
    for i, (pair, other) in enumerate(zip(pairs, (pairs[1].a11, pairs[0].a11))):
        diff = other - pair.a11
        two_n = 2.0 * math.sqrt(pair.a11)
        angle = pair.angle / p.h
        res[i] = n3 - diff / n3 - two_n * math.cos(angle)
        if not collinear:
            grads[i] = ((1.0 + diff / n3_sq) / n3) * t3 - (
                two_n * math.sin(angle) / (p.h * n3_sq)) * pair.d2
    return res, None if collinear else grads @ sp.r_full @ edges.T


def parallelogram_residuals(p: Param, t1: np.ndarray, t2: np.ndarray,
                            t3: np.ndarray,
                            space: Optional[Space] = None) -> np.ndarray:
    """Residuals of the two defining cosine-law equations for the sum
    candidate t3. Both vanish at the exact anisotropic sum."""
    edges = np.array([t1, t2], dtype=float)
    return _cosine_laws(p, space_for(t1, space), edges, t3)[0]


def parallelogram_exact(p: Param, t1: np.ndarray, t2: np.ndarray,
                        space: Optional[Space] = None,
                        tol: float = 1e-12, max_iter: int = 100) -> np.ndarray:
    """Exact anisotropic sum t3 = x t1 + y t2 by damped Newton on the
    residual system, seeded at (x, y) = (1, 1), with the analytic Jacobian
    of the cosine laws."""
    sp, pair = checked_pair(t1, t2, space)
    if pair.collinear:
        raise CollinearVectors("parallelogram needs independent vectors")
    edges = np.array([pair.x, pair.y])

    def laws(xy: np.ndarray):
        r, jac = _cosine_laws(p, sp, edges, xy @ edges)
        return r, jac, abs(r).max()

    xy = np.array([1.0, 1.0])
    r, jac, size = laws(xy)
    for _ in range(max_iter):
        if size < tol:
            return xy @ edges
        if jac is None:
            raise NoConvergence("Newton iterate collinear with an edge")
        (j11, j12), (j21, j22) = jac
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            raise NoConvergence("singular Newton system")
        step = np.array([j22 * r[0] - j12 * r[1], j11 * r[1] - j21 * r[0]]) / det
        lam = 1.0
        while lam > 1e-6:
            trial = xy - lam * step
            rt, jt, st = laws(trial)
            if st < size:
                xy, r, jac, size = trial, rt, jt, st
                break
            lam *= 0.5
        else:
            xy = xy - step
            r, jac, size = laws(xy)
    if size < 1e-10:
        return xy @ edges
    raise NoConvergence(f"parallelogram solver stalled at residual {size:.2e}")
