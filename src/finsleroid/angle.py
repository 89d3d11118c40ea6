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


def perpendicular_companion(p: Param, sp: Space, R: np.ndarray,
                            seed: Optional[np.ndarray] = None,
                            tol: float = 1e-12) -> np.ndarray:
    """A vector at angle pi/2 from R (so the scalar product vanishes).

    Built by Gram-Schmidt against R in the background metric, then a 1-D
    bisection rotation in the span until the image angle hits pi/2.
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
    image_R = sigma_over_j(p, R, scalar_forms(p, sp, R).A)

    def ang(theta: float) -> float:
        v = math.cos(theta) * e + math.sin(theta) * w
        image_v = sigma_over_j(p, v, scalar_forms(p, sp, v).A)
        return sp.gram(image_R, image_v).angle / p.h - 0.5 * math.pi

    lo, hi = 0.0, math.pi  # ang(0) = -pi/2 < 0; ang(pi) = pi/h - pi/2 > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = ang(mid)
        if abs(fm) < tol or hi - lo < 1e-16:
            break
        if fm < 0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return math.cos(theta) * e + math.sin(theta) * w


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


def parallelogram_residuals(p: Param, t1: np.ndarray, t2: np.ndarray,
                            t3: np.ndarray,
                            space: Optional[Space] = None) -> np.ndarray:
    """Residuals of the two defining cosine-law equations for the sum
    candidate t3. Both vanish at the exact anisotropic sum."""
    sp = space_for(t1, space)
    pair1 = sp.gram(t1, t3)
    pair2 = sp.gram(t2, t3)
    a11, a22 = pair1.a11, pair2.a11
    n3 = math.sqrt(pair1.a22)
    r1 = (n3 - (a22 - a11) / n3
          - 2.0 * math.sqrt(a11) * math.cos(pair1.angle / p.h))
    r2 = (n3 - (a11 - a22) / n3
          - 2.0 * math.sqrt(a22) * math.cos(pair2.angle / p.h))
    return np.array([r1, r2])


def parallelogram_exact(p: Param, t1: np.ndarray, t2: np.ndarray,
                        space: Optional[Space] = None,
                        tol: float = 1e-12, max_iter: int = 100) -> np.ndarray:
    """Exact anisotropic sum t3 = x t1 + y t2 by damped Newton on the
    residual system, seeded at (x, y) = (1, 1)."""
    sp, pair = checked_pair(t1, t2, space)
    if pair.collinear:
        raise CollinearVectors("parallelogram needs independent vectors")
    t1, t2 = pair.x, pair.y

    def res(xy: np.ndarray) -> np.ndarray:
        return parallelogram_residuals(p, t1, t2, xy[0] * t1 + xy[1] * t2, space=sp)

    xy = np.array([1.0, 1.0])
    r = res(xy)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            return xy[0] * t1 + xy[1] * t2
        eps = 1e-7
        jac = np.empty((2, 2))
        for j in range(2):
            dxy = np.zeros(2)
            dxy[j] = eps
            jac[:, j] = (res(xy + dxy) - res(xy - dxy)) / (2 * eps)
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Newton system") from exc
        lam = 1.0
        while lam > 1e-6:
            trial = xy - lam * step
            rt = res(trial)
            if np.max(np.abs(rt)) < np.max(np.abs(r)):
                xy, r = trial, rt
                break
            lam *= 0.5
        else:
            xy = xy - step
            r = res(xy)
    if np.max(np.abs(r)) < 1e-10:
        return xy[0] * t1 + xy[1] * t2
    raise NoConvergence(f"parallelogram solver stalled at residual {np.max(np.abs(r)):.2e}")
