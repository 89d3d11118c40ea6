"""Two-vector metric tensors: the image-space tensor n_pq(g; t1, t2) with
its frame and covariant conversion, and the anisotropic-picture tensor
G_pq(g; R, S) with the scalar-product gradients.

Both tensors are mixed second derivatives of the corresponding two-vector
scalar product and collapse to the one-vector metric tensors in the
coincidence limit. Every angle, Gram root and orthogonal complement here
comes from Space.gram on the image-space points. G_pq and the
scalar-product gradients are pullbacks of n_pq and of the covector pair
of (sigma(R), sigma(S)) through the sigma Jacobians. n2 routes a pair that
is parallel by the kernel's test to the one-vector tensor, and refuses an
antipodal one for g != 0, where the tensor has no limit.

g2 evaluates n2 on the sigma images, and a caller who wants both pictures
of one pair calls n2 on the same images next, so n2 keeps its last result
in a one-entry core._Memo, keyed by the Param and the Space by identity and
the bytes of t1 and t2, with read-only components. n2 still checks the pair
on every call, and keeps no pair that it refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import Param, Space, _Memo, checked_forms, checked_pair, check_finite
from .errors import (AntipodalSingular, CollinearVectors, DegenerateW,
                     NegativeRadicand, SingularXi)
from .quasieuclid import _sigma_jacobian, checked_base_frame, n_metric, sigma_over_j

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
    """components[p, q] plus the scalar data entering them: the two mixing
    coefficients A1, A2 and the Gram root u(t1, t2). n2 shares one result
    among the calls on one pair, so components is read-only."""

    components: np.ndarray
    A1: float
    A2: float
    u: float


def _mixing(p: Param, pair) -> Tuple[float, float, float, float, float]:
    """sin(alpha), cos(alpha), s = sin(alpha)/u and the mixing coefficients
    A1, A2 of a pair that is not collinear, alpha = theta/h. With k = 1/h - 1
    and sin(theta)/u = 1/sqrt(a11 a22), s = cos(k theta)/sqrt(a11 a22) +
    cos(theta) sin(k theta)/u: exact at g = 0, and free of sin(theta), whose
    relative accuracy decays as 1/(pi - theta) near the antipodal pair."""
    theta, h = pair.angle, p.h
    kt = 0.25 * p.g * p.g / ((1.0 + h) * h) * theta  # (1/h - 1) theta, no cancellation
    sa, ca = math.sin(theta / h), math.cos(theta / h)
    s = (math.cos(kt) / math.sqrt(pair.a11 * pair.a22)
         + math.cos(theta) * math.sin(kt) / pair.u)
    return sa, ca, s, ca - pair.a12 * s / h, ca / h - pair.a12 * s


# The n2 of the last pair, keyed by p, sp and the bytes of t1 and t2: one
# entry, as g2's pullback and an n2 call on the same images come one after
# another.
_n2_memo = _Memo(1)


def n2(p: Param, t1: np.ndarray, t2: np.ndarray,
       space: Optional[Space] = None) -> TwoVectorTensor:
    """Two-vector tensor n_pq(g; t1, t2), the mixed Hessian of the
    image-space scalar product |t1||t2| cos(alpha). A parallel pair
    returns the one-vector tensor n_metric(t1) with u = 0, and so does an
    antipodal pair at g = 0, where n_pq = r_pq for every pair. An antipodal
    pair raises AntipodalSingular for g != 0, where the tensor has no limit:
    near it the tensor grows as 1/u for N >= 3, and for N = 2 it tends to
    two tensors, one from each side of the pair.

    The result of the last pair is kept, keyed by p and the space by
    identity and the bytes of t1 and t2, and shared by every hit: its
    components are read-only."""
    sp, pair = checked_pair(t1, t2, space)
    key = pair.x.tobytes(), pair.y.tobytes()
    stored = _n2_memo.get(p, sp, key)
    if stored is None:
        stored = _n2(p, sp, pair)
        stored.components.setflags(write=False)  # shared by every hit
        _n2_memo.put(p, sp, key, stored)
    return stored


def _n2(p: Param, sp: Space, pair) -> TwoVectorTensor:
    """n_pq of the checked pair, evaluated: with n1 n2 = |t1| |t2|,
    (a11 a22 s / (h n1 n2)) r_pq + (A1 / (n1 n2)) t1_p t2_q
    - (A2 / (h n1 n2)) d1_p d2_q, with d1_p d2_q = P_p (c1 d2)_q from
    _c1_d2_low, and X1, X2 and P the three lowerings of t1, t2 and perp."""
    t1, t2 = pair.x, pair.y
    if pair.collinear:
        if pair.a12 < 0.0 and p.g != 0.0:
            raise AntipodalSingular("two-vector tensor unbounded at an antipodal pair "
                                    "for g != 0")
        return TwoVectorTensor(components=n_metric(p, sp, t1).low,
                               A1=1.0 - 1.0 / p.h**2, A2=0.0, u=0.0)
    a11, a22, h = pair.a11, pair.a22, p.h
    _, _, s, A1, A2 = _mixing(p, pair)
    n1n2 = math.sqrt(a11) * math.sqrt(a22)
    X1, X2, P = sp.lower(t1), sp.lower(t2), sp.lower(pair.perp)
    comp = (a11 * a22 / (h * n1n2) * s * sp.r_full
            + (A1 / n1n2 * X1)[:, None] * X2
            - (A2 / (h * n1n2) * P)[:, None] * _c1_d2_low(pair, X1, P))
    return TwoVectorTensor(components=comp, A1=A1, A2=A2, u=pair.u)


def _c1_d2_low(pair, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """c1 d2 lowered, from the lowerings X of x and P of perp, with
    (c1, c2, c3) = pair.coefficients: as c1 c2 = 1, c1 d2 = x - c1 c3 perp,
    and d1_p d2_q = P_p (c1 d2)_q."""
    c1, _, c3 = pair.coefficients
    return X - (c1 * c3) * P


def n2_frame(p: Param, t1: np.ndarray, t2: np.ndarray,
             base_frame: Optional[np.ndarray] = None,
             space: Optional[Space] = None) -> np.ndarray:
    """Pair-adapted frame f[R, p] = f^R_p(g; t1, t2).

    The frame reproduces the closed-form contractions with t1^p, t2^p and
    with the frame components t1^R, t2^R exactly. The pair expansion
    sum_R f^R_p(t1, t2) f^R_q(t2, t1) recovers the symmetric part of
    n_pq(t1, t2) exactly; its antisymmetric defect is
    (A2/h) (t1_p t2_q - t2_p t1_q) / (|t1||t2|).

    base_frame[P, q] must satisfy sum_P base[P, p] base[P, q] = r_pq, as
    in qe_frames (BadFrame otherwise); default is the Cholesky-derived frame
    of the space. Raises NegativeRadicand outside the validity region of the
    radicals.
    """
    sp, pair = checked_pair(t1, t2, space)
    if pair.collinear:
        raise CollinearVectors("frame needs independent vectors")
    a11, a22, a12, u = pair.a11, pair.a22, pair.a12, pair.u
    h = p.h
    base = checked_base_frame(sp, base_frame)
    sa, ca, s, A1, A2 = _mixing(p, pair)
    if s < 0.0:
        raise NegativeRadicand("sin(alpha)/u negative")
    z = math.sqrt(a11 * a22 * s)
    rad1 = h * a12 * ca + u * sa          # = z^2 + a12 h A1
    rad2 = a12 * ca / h + u * sa          # = z^2 + a12 A2
    if rad1 < 0.0 or rad2 < 0.0:
        raise NegativeRadicand("frame radicand negative for this configuration")
    br1 = h * A1 / (z + math.sqrt(rad1))
    br2 = A2 / (z + math.sqrt(rad2))
    # (base d1)_R (d2)_q = (base perp)_R (c1 d2)_q, as in _n2
    X, P = sp.lower(pair.x), sp.lower(pair.perp)
    f = (z * base + (br1 * (base @ pair.y))[:, None] * X
         - (br2 * (base @ pair.perp))[:, None] * _c1_d2_low(pair, X, P))
    return f / math.sqrt(h * math.sqrt(a11) * math.sqrt(a22))


def covector_pair(p: Param, t1: np.ndarray, t2: np.ndarray,
                  space: Optional[Space] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Covariant conversion (T1, T2) of the pair, returned raised to
    vectors: lowering T1 with r gives n_pq(t1, t2) t2^q, and lowering T2
    gives t1^p n_pq(t1, t2)."""
    sp, pair = checked_pair(t1, t2, space)
    if pair.collinear:
        raise CollinearVectors("covector pair needs independent vectors")
    alpha = pair.angle / p.h
    return _turn(p, pair, math.sin(alpha), math.cos(alpha))


def invert_covector_pair(p: Param, T1: np.ndarray, T2: np.ndarray,
                         alpha: float,
                         space: Optional[Space] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Recover (t1, t2) from (T1, T2) at the known pair angle alpha, which
    must be finite (ValueError otherwise)."""
    alpha = check_finite(float(alpha), "pair angle")
    sp, pair = checked_pair(T1, T2, space)
    if pair.collinear:
        raise SingularXi("inversion coefficient vanishes for collinear covectors")
    sa, ca = math.sin(alpha), math.cos(alpha)
    cc = ca * ca + sa * sa / p.h**2
    return _turn(p, pair, sa / cc, ca / cc)


def _turn(p: Param, pair, sa: float, ca: float) -> Tuple[np.ndarray, np.ndarray]:
    """(|y|/|x|) (ca x + sa d1 / h), (|x|/|y|) (ca y + sa d2 / h): the covector
    pair at (sa, ca) = (sin, cos)(alpha); on (T1, T2), at (sa, ca) / cc, its
    inverse. Formed as scalar coefficients on x, y and perp, with
    d1 = c1 perp and d2 = c2 x - c3 perp from pair.coefficients."""
    (c1, c2, c3), x, perp, sh = pair.coefficients, pair.x, pair.perp, sa / p.h
    ratio = math.sqrt(pair.a22) / math.sqrt(pair.a11)
    return (ratio * ca * x + ratio * sh * c1 * perp,
            ca / ratio * pair.y + sh * c2 / ratio * x - sh * c3 / ratio * perp)


# ---------------------------------------------------------------------------
# anisotropic-picture two-vector tensor
# ---------------------------------------------------------------------------

def _image(p: Param, sp: Space, R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sigma(R) and sigma'(R) from one evaluation of the scalar forms of R."""
    R, f = checked_forms(p, sp, R)
    return sigma_over_j(p, R, f.A) * f.J, _sigma_jacobian(p, sp, R, f)


def g2(p: Param, sp: Space, R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Two-vector metric tensor G_pq(g; R, S), the mixed Hessian of the
    anisotropic scalar product K(R) K(S) cos(alpha(R, S)).

    That product is the image scalar product of (sigma(R), sigma(S)), so
    G = sigma'(R) n2(sigma(R), sigma(S)) sigma'(S)^T. A pair whose images
    are parallel gets n2's one-vector tensor, which pulls back to the
    metric at R; antipodal images raise AntipodalSingular for g != 0, as
    n2 does. Symmetry: G_pq(R, S) = G_qp(S, R). A vector on the axis
    raises AxisSingular for g != 0, as sigma_jacobian does. An n2 call on
    the same images next finds the tensor pulled back here in its memo.
    """
    (tR, jR), (tS, jS) = _image(p, sp, R), _image(p, sp, S)
    return jR @ n2(p, tR, tS, space=sp).components @ jS.T


def scalar_grad(p: Param, sp: Space, R: np.ndarray,
                S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of the anisotropic scalar product with respect to R^p and
    S^q: the covector pair of (sigma(R), sigma(S)), lowered by r and pulled
    back by the sigma Jacobians. As S -> R the R-gradient tends to the
    covector R_p. A pair with collinear images raises DegenerateW."""
    (tR, jR), (tS, jS) = _image(p, sp, R), _image(p, sp, S)
    try:
        T1, T2 = covector_pair(p, tR, tS, space=sp)
    except CollinearVectors as exc:
        raise DegenerateW("two-vector root vanished; gradients undefined") from exc
    return jR @ sp.lower(T1), jS @ sp.lower(T2)
