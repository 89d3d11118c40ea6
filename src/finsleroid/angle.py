"""Angle, scalar product, perpendicularity, two-point length, and the
parallelogram law: its first-order form and the exact sum.

The angle between two vectors is 1/h times the Euclidean angle of their
images under the norm-preserving map; it is normalized so the classical
cosine theorem holds verbatim with anisotropic lengths. It ranges over
[0, pi/h]. The exact sum and the perpendicular companion are Euclidean
constructions in the image plane of the pair, in closed form.

Every function takes one vector or pair (N,), or vectors and pairs stacked
along leading axes (..., N), with one g or one g per row, and runs one
row formula for both: floats for one vector or pair where a scalar is
returned, arrays over the rows for stacks. A refusal fires when any row
meets it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (Param, Space, any_row, axial, checked_pair, per_row,
                   require_tensor_range, scalar_forms, space_for)
from .errors import AntipodalSingular, CollinearVectors, DegenerateVector
from .quasieuclid import _sigma, mu, sigma_over_j

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
    K1^2 + K2^2 - 2 K1 K2 cos(alpha). Floats for one pair; arrays over the
    rows for stacked pairs."""

    alpha: Union[float, np.ndarray]
    scalar_product: Union[float, np.ndarray]
    ominus_sq: Union[float, np.ndarray]


def fins_angle(p: Param, sp: Space, R1: np.ndarray, R2: np.ndarray) -> AnglePair:
    """Angle, scalar product, and squared two-point length of two vectors,
    one pair (N,) or stacked pairs (..., N) with one g or one g per row.

    alpha is qe_angle of the images sigma(R1), sigma(R2): 1/h times their
    Space.gram angle. The images are the bytes that sigma and g2 form, so
    for one pair g2 and connect, n2, covector_pair and parallelogram_exact
    on those images find this Gram record in the memo of Space.gram.
    K1^2 + K2^2 - 2 K1 K2 cos(alpha) is formed as
    (K1 - K2)^2 + 4 K1 K2 sin^2(alpha/2), which does not cancel. Raises
    ConeLimit where K1^2 or K2^2 would leave the normal doubles, and
    DegenerateVector when a row is zero.
    """
    R1, R2 = np.asarray(R1, dtype=float), np.asarray(R2, dtype=float)
    f1, f2 = scalar_forms(p, sp, R1), scalar_forms(p, sp, R2)
    require_tensor_range(p, f1, 2)
    require_tensor_range(p, f2, 2)
    alpha = qe_angle(p, _sigma(p, R1, f1), _sigma(p, R2, f2), space=sp)
    m = np if isinstance(alpha, np.ndarray) else math  # floats for one pair
    product = f1.K * f2.K * m.cos(alpha)
    half = m.sin(0.5 * alpha)
    ominus_sq = (f1.K - f2.K) ** 2 + 4.0 * f1.K * f2.K * half * half
    return AnglePair(alpha=alpha, scalar_product=product, ominus_sq=ominus_sq)


def qe_angle(p: Param, t1: np.ndarray, t2: np.ndarray,
             space: Optional[Space] = None) -> Union[float, np.ndarray]:
    """Image-space angle: (1/h) times the Euclidean angle of t1, t2. A float
    for one pair; an array over the rows for stacked pairs (..., N), with
    one g or one g per row."""
    sp = space_for(t1, space)
    return sp.gram(t1, t2).angle / p.h


def axis_angle(p: Param, sp: Space, R: np.ndarray) -> Union[float, np.ndarray]:
    """Angle between R and the positive axial direction:
    (1/h) atan2(h q, A), the angle of the image (h R^a, A) with the axis.
    Equals fins_angle(R, e_N).alpha. A float for one vector, an array over
    the rows for a stack."""
    f = scalar_forms(p, sp, R)
    a = np.arctan2(p.h * f.q, f.A) / p.h
    return float(a) if a.ndim == 0 else a


def equator_angle(p: Param, sp: Space, R: np.ndarray) -> Union[float, np.ndarray]:
    """Angle between R and its own equatorial direction: (1/h) atan2(h |Z|, L),
    from the product L and Gram root h |Z| of their images (h R^a, A).
    Needs q > 0 for the direction to exist. A float for one vector, an
    array over the rows for a stack."""
    R = np.asarray(R, dtype=float)
    f = scalar_forms(p, sp, R)
    if any_row(f.q == 0.0):
        raise DegenerateVector("equatorial direction undefined on the axis")
    a = np.arctan2(p.h * np.abs(axial(R)), f.L) / p.h
    return float(a) if a.ndim == 0 else a


def perpendicular_companion(p: Param, sp: Space, R: np.ndarray,
                            seed: Optional[np.ndarray] = None) -> np.ndarray:
    """A vector at angle pi/2 from R (so the scalar product vanishes), with
    the same norm K as R.

    The image t = sigma(R) is turned by h pi/2 toward the image of seed in
    their plane: w = cos(h pi/2) t + sin(h pi/2) d1, with d1 = c1 perp
    from the Space.gram data of (t, sigma(seed)) (c1 = a11/u, the first of
    its coefficients), so that |d1| = |t|, and w formed as coefficients on
    t and perp. The result is mu(w): its image angle to t is h pi/2 by
    construction, and K = |w| = |t| = K(R). It lies in the image plane of
    (sigma(R), sigma(seed)), not in the plane span{R, seed}. seed defaults
    to the unit vector along R's smallest component, row by row. A seed
    whose image is collinear with sigma(R), such as a positive multiple of
    R, raises CollinearVectors; a seed of -R is accepted when g != 0.
    """
    R = np.asarray(R, dtype=float)
    f = scalar_forms(p, sp, R)
    if seed is None:
        seed = np.eye(sp.dim)[np.abs(R).argmin(-1)]
    seed = np.asarray(seed, dtype=float)
    fs = scalar_forms(p, sp, seed)
    t = _sigma(p, R, f)
    pair = sp.gram(t, sigma_over_j(p, seed, fs.A))
    if any_row(pair.collinear):
        raise CollinearVectors("seed's image is parallel to sigma(R)")
    turn = 0.5 * math.pi * p.h
    m = np if isinstance(turn, np.ndarray) else math  # floats for one g
    c1 = pair.coefficients[0]
    return mu(p, sp, per_row(m.cos(turn)) * t + per_row(m.sin(turn) * c1) * pair.perp)


# ---------------------------------------------------------------------------
# parallelogram law
# ---------------------------------------------------------------------------

def _first_order(p: Param, t1: np.ndarray, t2: np.ndarray,
                 space: Optional[Space], what: str):
    """(space, Gram data, k = 1/h - 1) of independent pairs; warns for k > 0.2."""
    sp, pair = checked_pair(t1, t2, space)
    k = 1.0 / p.h - 1.0
    if any_row(k > 0.2):
        warnings.warn(f"first-order {what} with large k = 1/h - 1 = {np.max(k):.3f}",
                      stacklevel=3)
    if any_row(pair.collinear):
        raise CollinearVectors("parallelogram needs independent vectors")
    return sp, pair, k


def _mix_coeff(sp: Space, x: np.ndarray, y: np.ndarray, a_xy, a_yy, u):
    """m(x, y): coefficient of x in the first-order sum correction, row by row."""
    s = x + y
    return per_row((a_xy * sp.gram(x, s).angle - a_yy * sp.gram(y, s).angle) / u)


def parallelogram_sum(p: Param, t1: np.ndarray, t2: np.ndarray,
                      space: Optional[Space] = None) -> np.ndarray:
    """First-order anisotropic sum:
    t1 + t2 + (1/h - 1) (m(t1,t2) t1 + m(t2,t1) t2).

    Accurate to O(k^2) in k = 1/h - 1; a warning is issued for k > 0.2.
    """
    sp, pair, k = _first_order(p, t1, t2, space, "sum")
    t1, t2 = pair.x, pair.y
    a12, u = pair.a12, pair.u
    return t1 + t2 + per_row(k) * (_mix_coeff(sp, t1, t2, a12, pair.a22, u) * t1
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
    svec = (per_row(pair.a11 * e1 - d_t1 * e2) * d
            + per_row(d_pair.a11 * e2 - d_t1 * e1) * t1) / per_row(pair.u)
    return d + per_row(k) * svec


def parallelogram_residuals(p: Param, t1: np.ndarray, t2: np.ndarray,
                            t3: np.ndarray,
                            space: Optional[Space] = None) -> np.ndarray:
    """Residuals of the two defining cosine-law equations for the sum
    candidate t3, r_i = n3 - (a_jj - a_ii) / n3 - 2 sqrt(a_ii) cos(angle(t_i,
    t3) / h) from the Gram data of (t_i, t3). Both vanish at the exact
    anisotropic sum. Shape (2,) for one triple, (..., 2) for stacked ones."""
    sp, pair13 = checked_pair(t1, t3, space)
    pairs = (pair13, sp.gram(t2, t3))
    n3 = np.sqrt(pairs[0].a22)
    return np.stack([n3 - (other.a11 - pair.a11) / n3
                     - 2.0 * np.sqrt(pair.a11) * np.cos(pair.angle / p.h)
                     for pair, other in zip(pairs, pairs[::-1])], axis=-1)


def parallelogram_exact(p: Param, t1: np.ndarray, t2: np.ndarray,
                        space: Optional[Space] = None) -> np.ndarray:
    """Exact anisotropic sum t3: both cosine laws hold, and t3 lies between
    t1 and t2, so the angles (t1, t3) and (t3, t2) add up to (t1, t2).

    The two cosine laws are the two triangles of a Euclidean parallelogram
    with sides n1 = |t1|, n2 = |t2| and angle alpha, the pair angle. Its
    diagonal has length n3 = hypot(x, y) and angle atan2(y, x) to the side
    n1, where x = n1 + n2 cos(alpha) and y = n2 sin(alpha). So t3 has norm
    n3 and image angle beta = h atan2(y, x) from t1 toward t2 in their
    plane: t3 = (n3/n1)(cos(beta) t1 + sin(beta) d1), formed as coefficients
    on t1 and perp with d1 = c1 perp from the pair's coefficients. For
    alpha >= pi no parallelogram exists, and AntipodalSingular is raised.
    """
    sp, pair = checked_pair(t1, t2, space)
    if any_row(pair.collinear):
        raise CollinearVectors("parallelogram needs independent vectors")
    alpha = pair.angle / p.h
    if any_row(alpha >= math.pi):
        raise AntipodalSingular(f"pair angle {np.max(alpha):.6f} >= pi: no parallelogram")
    m = np if isinstance(alpha, np.ndarray) else math  # floats for one pair
    n1, n2 = m.sqrt(pair.a11), m.sqrt(pair.a22)
    x, y = n1 + n2 * m.cos(alpha), n2 * m.sin(alpha)
    n3, beta = m.hypot(x, y), p.h * m.atan2(y, x)
    k, c1 = n3 / n1, pair.coefficients[0]
    return per_row(k * m.cos(beta)) * pair.x + per_row(k * m.sin(beta) * c1) * pair.perp
