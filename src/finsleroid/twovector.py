"""Two-vector metric tensors: the image-space tensor n_pq(g; t1, t2) with
its frame and covariant conversion, and the anisotropic-picture tensor
G_pq(g; R, S) with the scalar-product gradients.

Both tensors are mixed second derivatives of the corresponding two-vector
scalar product and collapse to the one-vector metric tensors in the
coincidence limit. Every angle, Gram root and orthogonal complement here
comes from Space.gram on the image-space points. G_pq and the
scalar-product gradients are pullbacks of n_pq and of the covector pair
of (sigma(R), sigma(S)) through the sigma Jacobians. n2 gives the
one-vector tensor to a pair that is parallel by the kernel's test, and
refuses an antipodal one for g != 0, where the tensor has no limit.

Every function takes one pair (N,) or stacked pairs (..., N), broadcast
as Space.gram takes them, with one g or one g per row, and runs one row
formula on the Space.gram scalars for both. A refusal fires when any row
meets it. Each public function checks its pair once, through Space.gram,
and hands that Gram record to its builder (_n2, _covector_pair), which
g2, scalar_grad and geodesic.difference_gradients call with the record
they already hold. On one pair at one g the scalars stay Python floats,
in math, through the builders, and one pair gets Python floats where a
scalar is returned; stacks and per-row g run the same steps in numpy.

g2 evaluates n2 on the sigma images, and a caller who wants both pictures
of one pair calls n2 on the same images next, so n2 keeps the result of
its last single pair in a one-entry core._Memo, keyed by the Param and the
Space by identity and the bytes of t1 and t2, with read-only components.
Stacked pairs bypass it and get writable arrays. n2 still checks the pair
on every call, and keeps no pair that it refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import (Param, Space, _Memo, _rows, any_row, checked_pair, check_finite,
                   per_row, scalar_forms)
from .errors import (AntipodalSingular, CollinearVectors, DegenerateW,
                     NegativeRadicand, SingularXi)
from .quasieuclid import _sigma, _sigma_jacobian, checked_base_frame, n_metric

__all__ = [
    "TwoVectorTensor",
    "n2",
    "n2_frame",
    "covector_pair",
    "invert_covector_pair",
    "g2",
    "scalar_grad",
]


@dataclass(frozen=True)
class TwoVectorTensor:
    """components[..., p, q] plus the scalar data entering them: the two
    mixing coefficients A1, A2 and the Gram root u(t1, t2), floats for one
    pair and arrays over the rows for stacked pairs. n2 shares one result
    among the calls on one pair, so its components are read-only there."""

    components: np.ndarray
    A1: Union[float, np.ndarray]
    A2: Union[float, np.ndarray]
    u: Union[float, np.ndarray]


def _mixing(p: Param, pair):
    """n1 n2 = |t1| |t2|, cos(alpha), s = sin(alpha)/u and the mixing
    coefficients A1, A2 of pairs that are not collinear, alpha = theta/h,
    row by row. With k = 1/h - 1 and sin(theta)/u = 1/(n1 n2),
    s = cos(k theta)/(n1 n2) + cos(theta) sin(k theta)/u: exact at g = 0,
    and free of sin(theta), whose relative accuracy decays as
    1/(pi - theta) near the antipodal pair. Python floats for one pair at
    one g."""
    theta, h = pair.angle, p.h
    kt = 0.25 * p.g * p.g / ((1.0 + h) * h) * theta  # (1/h - 1) theta, no cancellation
    m = np if isinstance(kt, np.ndarray) else math  # floats for one pair at one g
    n1n2, ca = m.sqrt(pair.a11) * m.sqrt(pair.a22), m.cos(theta / h)
    s = m.cos(kt) / n1n2 + m.cos(theta) * m.sin(kt) / pair.u
    return n1n2, ca, s, ca - pair.a12 * s / h, ca / h - pair.a12 * s


# The n2 of the last single pair, keyed by p, sp and the bytes of t1 and
# t2: one entry, as g2's pullback and an n2 call on the same images come one
# after another.
_n2_memo = _Memo(1)


def n2(p: Param, t1: np.ndarray, t2: np.ndarray,
       space: Optional[Space] = None) -> TwoVectorTensor:
    """Two-vector tensor n_pq(g; t1, t2), the mixed Hessian of the
    image-space scalar product |t1||t2| cos(alpha), of one pair or of every
    row of stacked pairs. A parallel row gets the one-vector tensor
    n_metric(t1) with u = 0, and so does an antipodal row at g = 0, where
    n_pq = r_pq for every pair. An antipodal row raises AntipodalSingular
    for g != 0, where the tensor has no limit: near it the tensor grows as
    1/u for N >= 3, and for N = 2 it tends to two tensors, one from each
    side of the pair.

    The result of the last single pair is kept, keyed by p and the space by
    identity and the bytes of t1 and t2, and shared by every hit: its
    components are read-only. Stacked pairs are evaluated every time."""
    sp, pair = checked_pair(t1, t2, space)
    if pair.x.ndim > 1 or pair.y.ndim > 1:
        return _n2(p, sp, pair)
    key = pair.x.tobytes(), pair.y.tobytes()
    stored = _n2_memo.get(p, sp, key)
    if stored is None:
        stored = _n2(p, sp, pair)
        stored.components.setflags(write=False)  # shared by every hit
        _n2_memo.put(p, sp, key, stored)
    return stored


def _n2(p: Param, sp: Space, pair) -> TwoVectorTensor:
    """n_pq of the checked pairs, evaluated: with n1 n2 = |t1| |t2|,
    (n1 n2 s / h) r_pq + (A1 / (n1 n2)) t1_p t2_q
    - (A2 / (h n1 n2)) d1_p d2_q, with d1_p d2_q = P_p (c1 d2)_q from
    _c1_d2_low, and X1, X2 and P the three lowerings of t1, t2 and perp.
    The collinear rows read u as infinite, so that the formula makes no
    0/0 there, and then get n_metric(t1), A2 = 0 and u = 0."""
    col, h = pair.collinear, p.h
    if any_row(col & (pair.a12 < 0.0) & (p.g != 0.0)):
        raise AntipodalSingular("two-vector tensor unbounded at an antipodal pair "
                                "for g != 0")
    if any_row(col):
        pair = pair._replace(u=_rows(col, math.inf, pair.u))
    n1n2, _, s, A1, A2 = _mixing(p, pair)
    X1, X2, P = sp.lower(pair.x), sp.lower(pair.y), sp.lower(pair.perp)
    comp = (per_row(n1n2 / h * s, 2) * sp.r_full
            + (per_row(A1 / n1n2) * X1)[..., :, None] * X2[..., None, :]
            - (per_row(A2 / (h * n1n2)) * P)[..., :, None] * _c1_d2_low(pair, X1, P)[..., None, :])
    u = pair.u
    if any_row(col):
        comp = _rows(per_row(col, 2), n_metric(p, sp, pair.x).low, comp)
        A1, A2 = _rows(col, 1.0 - 1.0 / h**2, A1), _rows(col, 0.0, A2)
        u = _rows(col, 0.0, u)
    return TwoVectorTensor(components=comp, A1=A1, A2=A2, u=u)


def _c1_d2_low(pair, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """c1 d2 lowered, from the lowerings X of x and P of perp, with
    (c1, c2, c3) = pair.coefficients: as c1 c2 = 1, c1 d2 = x - c1 c3 perp,
    and d1_p d2_q = P_p (c1 d2)_q."""
    c1, _, c3 = pair.coefficients
    return X - per_row(c1 * c3) * P


def n2_frame(p: Param, t1: np.ndarray, t2: np.ndarray,
             base_frame: Optional[np.ndarray] = None,
             space: Optional[Space] = None) -> np.ndarray:
    """Pair-adapted frame f[..., R, p] = f^R_p(g; t1, t2).

    The frame reproduces the closed-form contractions with t1^p, t2^p and
    with the frame components t1^R, t2^R exactly. The pair expansion
    sum_R f^R_p(t1, t2) f^R_q(t2, t1) recovers the symmetric part of
    n_pq(t1, t2) exactly; its antisymmetric defect is
    (A2/h) (t1_p t2_q - t2_p t1_q) / (|t1||t2|).

    base_frame[P, q] must satisfy sum_P base[P, p] base[P, q] = r_pq, as
    in qe_frames (BadFrame otherwise); default is the Cholesky-derived frame
    of the space. One base frame serves every row. Raises CollinearVectors
    for a collinear row and NegativeRadicand for a row outside the validity
    region of the radicals.
    """
    sp, pair = checked_pair(t1, t2, space)
    if any_row(pair.collinear):
        raise CollinearVectors("frame needs independent vectors")
    a12, u, h = pair.a12, pair.u, p.h
    base = checked_base_frame(sp, base_frame)
    n1n2, ca, s, A1, A2 = _mixing(p, pair)
    if any_row(s < 0.0):
        raise NegativeRadicand("sin(alpha)/u negative")
    z, sa = n1n2 * np.sqrt(s), np.sin(pair.angle / h)
    rad1 = h * a12 * ca + u * sa          # = z^2 + a12 h A1
    rad2 = a12 * ca / h + u * sa          # = z^2 + a12 A2
    if any_row((rad1 < 0.0) | (rad2 < 0.0)):
        raise NegativeRadicand("frame radicand negative for this configuration")
    br1 = h * A1 / (z + np.sqrt(rad1))
    br2 = A2 / (z + np.sqrt(rad2))
    # (base d1)_R (d2)_q = (base perp)_R (c1 d2)_q, as in _n2
    X, P = sp.lower(pair.x), sp.lower(pair.perp)
    f = (per_row(z, 2) * base
         + (per_row(br1) * np.matvec(base, pair.y))[..., :, None] * X[..., None, :]
         - (per_row(br2) * np.matvec(base, pair.perp))[..., :, None]
         * _c1_d2_low(pair, X, P)[..., None, :])
    return f / per_row(np.sqrt(h * n1n2), 2)


def covector_pair(p: Param, t1: np.ndarray, t2: np.ndarray,
                  space: Optional[Space] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Covariant conversion (T1, T2) of the pairs, returned raised to
    vectors: lowering T1 with r gives n_pq(t1, t2) t2^q, and lowering T2
    gives t1^p n_pq(t1, t2). A collinear row raises CollinearVectors."""
    return _covector_pair(p, checked_pair(t1, t2, space)[1])


def _covector_pair(p: Param, pair) -> Tuple[np.ndarray, np.ndarray]:
    """The covector pair of the checked pairs from their Gram record."""
    if any_row(pair.collinear):
        raise CollinearVectors("covector pair needs independent vectors")
    alpha = pair.angle / p.h
    m = np if isinstance(alpha, np.ndarray) else math  # floats for one pair
    return _turn(p, pair, m.sin(alpha), m.cos(alpha))


def invert_covector_pair(p: Param, T1: np.ndarray, T2: np.ndarray,
                         alpha: Union[float, np.ndarray],
                         space: Optional[Space] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Recover (t1, t2) from (T1, T2) at the known pair angle alpha, a float
    or one per row, which must be finite (ValueError otherwise). A row of
    collinear covectors raises SingularXi."""
    alpha = check_finite(alpha, "pair angle")
    pair = checked_pair(T1, T2, space)[1]
    if any_row(pair.collinear):
        raise SingularXi("inversion coefficient vanishes for collinear covectors")
    m = math if isinstance(alpha, float) else np  # floats for one angle
    sa, ca = m.sin(alpha), m.cos(alpha)
    cc = ca * ca + sa * sa / p.h**2
    return _turn(p, pair, sa / cc, ca / cc)


def _turn(p: Param, pair, sa, ca) -> Tuple[np.ndarray, np.ndarray]:
    """(|y|/|x|) (ca x + sa d1 / h), (|x|/|y|) (ca y + sa d2 / h): the covector
    pair at (sa, ca) = (sin, cos)(alpha); on (T1, T2), at (sa, ca) / cc, its
    inverse. Formed as per-row coefficients on x, y and perp, with
    d1 = c1 perp and d2 = c2 x - c3 perp from pair.coefficients."""
    (c1, c2, c3), x, perp, sh = pair.coefficients, pair.x, pair.perp, sa / p.h
    m = np if isinstance(pair.a11, np.ndarray) else math  # floats for one pair
    ratio = m.sqrt(pair.a22) / m.sqrt(pair.a11)
    return (per_row(ratio * ca) * x + per_row(ratio * sh * c1) * perp,
            per_row(ca / ratio) * pair.y + per_row(sh * c2 / ratio) * x
            - per_row(sh * c3 / ratio) * perp)


# ---------------------------------------------------------------------------
# anisotropic-picture two-vector tensor
# ---------------------------------------------------------------------------

def _image(p: Param, sp: Space, R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sigma(R) and sigma'(R) from one evaluation of the scalar forms of R."""
    R = np.asarray(R, dtype=float)
    f = scalar_forms(p, sp, R)
    return _sigma(p, R, f), _sigma_jacobian(p, sp, R, f)


def g2(p: Param, sp: Space, R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Two-vector metric tensor G_pq(g; R, S), the mixed Hessian of the
    anisotropic scalar product K(R) K(S) cos(alpha(R, S)), of one pair or
    of every row of stacked pairs.

    That product is the image scalar product of (sigma(R), sigma(S)), so
    G = sigma'(R) n2(sigma(R), sigma(S)) sigma'(S)^T. A row whose images
    are parallel gets n2's one-vector tensor, which pulls back to the
    metric at R; antipodal images raise AntipodalSingular for g != 0, as
    n2 does. Symmetry: G_pq(R, S) = G_qp(S, R). A vector on the axis
    raises AxisSingular for g != 0, as sigma_jacobian does. For one pair,
    an n2 call on the same images next finds the tensor pulled back here
    in its memo.
    """
    (tR, jR), (tS, jS) = _image(p, sp, R), _image(p, sp, S)
    return jR @ n2(p, tR, tS, space=sp).components @ jS.mT


def scalar_grad(p: Param, sp: Space, R: np.ndarray,
                S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of the anisotropic scalar product with respect to R^p and
    S^q: the covector pair of (sigma(R), sigma(S)), lowered by r and pulled
    back by the sigma Jacobians. As S -> R the R-gradient tends to the
    covector R_p. A row with collinear images raises DegenerateW."""
    (tR, jR), (tS, jS) = _image(p, sp, R), _image(p, sp, S)
    try:
        T1, T2 = _covector_pair(p, sp.gram(tR, tS))
    except CollinearVectors as exc:
        raise DegenerateW("two-vector root vanished; gradients undefined") from exc
    return np.matvec(jR, sp.lower(T1)), np.matvec(jS, sp.lower(T2))
