"""Two-vector metric tensors: the image-space tensor n_pq(g; t1, t2) with
its frame and covariant conversion, and the anisotropic-picture tensor
G_pq(g; R, S) with the scalar-product gradients.

Both tensors are mixed second derivatives of the corresponding two-vector
scalar product and collapse to the one-vector metric tensors in the
coincidence limit. Every angle, Gram root and orthogonal complement here
comes from Space.gram, on the image-space points or, for G_pq, on the
images (h R^a, A). n2 routes a pair that is collinear by the kernel's test
to the one-vector tensor; g2 routes at the wider COINCIDENCE_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import Param, Space, checked_pair, scalar_forms
from .errors import (CollinearVectors, DegenerateW, NegativeRadicand,
                     SingularXi)
from .quasieuclid import n_metric, sigma_over_j
from .tensors import grad_covector, metric

__all__ = [
    "COINCIDENCE_TOL",
    "TwoVectorTensor",
    "n2",
    "n2_frame",
    "covector_pair",
    "invert_covector_pair",
    "g2",
    "scalar_grad",
]

# Relative Gram root of the images (h R^a, A) at or below which g2 returns
# the one-vector metric and scalar_grad refuses the pair. At g = 0.4,
# R = (0.3, 0.5, 1), S = R + eps (0.6, -0.8, 0), the distance of
# n2(sigma(R), sigma(S)) to n_metric over eps stays 0.020 from eps = 1e-3 to
# 1e-11, while that of g2 to metric reads 0.25 down to 1e-6, 0.24 at 1e-7,
# 4.2 at 1e-8 and 390 at 1e-9: g2's M-vector forms cancel, not the root.
COINCIDENCE_TOL = 1e-7


@dataclass(frozen=True)
class TwoVectorTensor:
    """components[p, q] plus the scalar data entering them: the two mixing
    coefficients A1, A2 and the Gram root u(t1, t2)."""

    components: np.ndarray
    A1: float
    A2: float
    u: float


def n2(p: Param, t1: np.ndarray, t2: np.ndarray,
       space: Optional[Space] = None) -> TwoVectorTensor:
    """Two-vector tensor n_pq(g; t1, t2), the mixed Hessian of the
    image-space scalar product |t1||t2| cos(alpha). A collinear pair
    returns the one-vector tensor n_metric(t1) with u = 0."""
    sp, pair = checked_pair(t1, t2, space)
    t1, t2 = pair.x, pair.y
    if pair.collinear:
        return TwoVectorTensor(components=n_metric(p, sp, t1).low,
                               A1=1.0 - 1.0 / p.h**2, A2=0.0, u=0.0)
    a11, a22, a12, u = pair.a11, pair.a22, pair.a12, pair.u
    h = p.h
    alpha = pair.angle / h
    sa, ca = math.sin(alpha), math.cos(alpha)
    A1 = ca - a12 * sa / (h * u)
    A2 = ca / h - a12 * sa / u
    r = sp.r_full
    n1n2 = math.sqrt(a11) * math.sqrt(a22)
    comp = (a11 * a22 / (h * n1n2) * (sa / u) * r
            + A1 * np.outer(r @ t1, r @ t2) / n1n2
            - A2 * np.outer(r @ pair.d1, r @ pair.d2) / (h * n1n2))
    return TwoVectorTensor(components=comp, A1=A1, A2=A2, u=u)


def n2_frame(p: Param, t1: np.ndarray, t2: np.ndarray,
             base_frame: Optional[np.ndarray] = None,
             space: Optional[Space] = None) -> np.ndarray:
    """Pair-adapted frame f[R, p] = f^R_p(g; t1, t2).

    The frame reproduces the closed-form contractions with t1^p, t2^p and
    with the frame components t1^R, t2^R exactly. The pair expansion
    sum_R f^R_p(t1, t2) f^R_q(t2, t1) recovers the symmetric part of
    n_pq(t1, t2) exactly; its antisymmetric defect is
    (A2/h) (t1_p t2_q - t2_p t1_q) / (|t1||t2|).

    Raises NegativeRadicand outside the validity region of the radicals.
    """
    sp, pair = checked_pair(t1, t2, space)
    if pair.collinear:
        raise CollinearVectors("frame needs independent vectors")
    a11, a22, a12, u = pair.a11, pair.a22, pair.a12, pair.u
    h = p.h
    base = sp.base_frame if base_frame is None else np.asarray(base_frame, float)
    alpha = pair.angle / h
    sa, ca = math.sin(alpha), math.cos(alpha)
    if sa / u < 0.0:
        raise NegativeRadicand("sin(alpha)/u negative")
    z = math.sqrt(a11 * a22 * sa / u)
    A1 = ca - a12 * sa / (h * u)
    A2 = ca / h - a12 * sa / u
    rad1 = h * a12 * ca + u * sa          # = z^2 + a12 h A1
    rad2 = a12 * ca / h + u * sa          # = z^2 + a12 A2
    if rad1 < 0.0 or rad2 < 0.0:
        raise NegativeRadicand("frame radicand negative for this configuration")
    br1 = h * A1 / (z + math.sqrt(rad1))
    br2 = A2 / (z + math.sqrt(rad2))
    r = sp.r_full
    f = (z * base + br1 * np.outer(base @ pair.y, r @ pair.x)
         - br2 * np.outer(base @ pair.d1, r @ pair.d2))
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
    """Recover (t1, t2) from (T1, T2) at the known pair angle alpha."""
    sp, pair = checked_pair(T1, T2, space)
    if pair.collinear:
        raise SingularXi("inversion coefficient vanishes for collinear covectors")
    sa, ca = math.sin(alpha), math.cos(alpha)
    cc = ca * ca + sa * sa / p.h**2
    t1, t2 = _turn(p, pair, sa, ca)
    return t1 / cc, t2 / cc


def _turn(p: Param, pair, sa: float, ca: float) -> Tuple[np.ndarray, np.ndarray]:
    """(|y|/|x|) (ca x + sa d1 / h), (|x|/|y|) (ca y + sa d2 / h): the covector
    pair at (sa, ca) = (sin, cos)(alpha); on (T1, T2), over cc, its inverse."""
    ratio = math.sqrt(pair.a22) / math.sqrt(pair.a11)
    return (ratio * (ca * pair.x + (sa / p.h) * pair.d1),
            (ca * pair.y + (sa / p.h) * pair.d2) / ratio)


# ---------------------------------------------------------------------------
# anisotropic-picture two-vector tensor
# ---------------------------------------------------------------------------

def _rs_pieces(p: Param, sp: Space, R: np.ndarray, S: np.ndarray):
    """(fR, fS, r_ab R^a S^b, P, W2), with the product P and squared Gram
    root W2 of the images (h R^a, A) from Space.gram; (fS, fR, ...) serves (S, R)."""
    fR = scalar_forms(p, sp, R)
    fS = scalar_forms(p, sp, S)
    spatial = float(R[:-1] @ sp.r_spatial @ S[:-1])
    pair = sp.gram(sigma_over_j(p, R, fR.A), sigma_over_j(p, S, fS.A))
    return fR, fS, spatial, pair.a12, pair.u * pair.u


def _rs_trig(p: Param, pieces) -> Tuple[float, float]:
    """(sin, cos) of alpha = atan2(W, P) / h, the Space.gram angle over h."""
    alpha = math.atan2(math.sqrt(pieces[4]), pieces[3]) / p.h
    return math.sin(alpha), math.cos(alpha)


def _m_vector(p: Param, sp: Space, R: np.ndarray, S: np.ndarray,
              fR, fS, spatial: float) -> np.ndarray:
    """M_p(g; R, S): simplified gradient components; M_p R^p = 0."""
    g = p.g
    rR = sp.r_spatial @ R[:-1]
    rS = sp.r_spatial @ S[:-1]
    out = np.empty(sp.dim)
    out[-1] = fR.q**2 * fS.A - spatial * fR.A
    out[:-1] = (-R[-1] * fS.A * rR + fR.B * rS
                - spatial * (fR.q + 0.5 * g * R[-1]) * rR / fR.q)
    return out


def _s_covector(p: Param, sp: Space, R: np.ndarray, S: np.ndarray,
                pieces) -> np.ndarray:
    fR, fS, spatial, P, W2 = pieces
    W = math.sqrt(W2)
    M = _m_vector(p, sp, R, S, fR, fS, spatial)
    return M * fR.K / (W * fR.B)


def _s_matrix(p: Param, sp: Space, R: np.ndarray, S: np.ndarray,
              pieces) -> np.ndarray:
    """s_pq(g; R, S) = K(S) d s_p(R, S) / d S^q, fully analytic."""
    g, h = p.g, p.h
    fR, fS, spatial, P, W2 = pieces
    W = math.sqrt(W2)
    rR = sp.r_spatial @ R[:-1]
    rS = sp.r_spatial @ S[:-1]
    n = sp.dim
    dAS = np.empty(n)
    dAS[-1] = 1.0
    dAS[:-1] = 0.5 * g * rS / fS.q
    dBS = np.empty(n)
    dBS[-1] = 2.0 * S[-1] + g * fS.q
    dBS[:-1] = (g * S[-1] / fS.q + 2.0) * rS
    dsp = np.empty(n)
    dsp[-1] = 0.0
    dsp[:-1] = rR
    dP = fR.A * dAS + h * h * dsp
    dW = (fR.B * dBS - 2.0 * P * dP) / (2.0 * W)
    M = _m_vector(p, sp, R, S, fR, fS, spatial)
    dM = np.empty((n, n))  # dM[p, q] = d M_p / d S^q
    dM[-1, :] = fR.q**2 * dAS - fR.A * dsp
    coef = (fR.q + 0.5 * g * R[-1]) / fR.q
    for q in range(n):
        dM[:-1, q] = -R[-1] * rR * dAS[q] - dsp[q] * coef * rR
        if q < n - 1:
            dM[:-1, q] += fR.B * sp.r_spatial[:, q]
    ds = (fR.K / fR.B) * (dM / W - np.outer(M, dW) / W2)
    return fS.K * ds


def g2(p: Param, sp: Space, R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Two-vector metric tensor G_pq(g; R, S), the mixed Hessian of the
    anisotropic scalar product K(R) K(S) cos(alpha(R, S)).

    Near-coincident pairs (relative two-vector root below COINCIDENCE_TOL)
    return the one-vector metric at R. Symmetry: G_pq(R, S) = G_qp(S, R);
    the pullback of n2 through the sigma Jacobians reproduces it exactly.
    """
    R = sp.check_vector(np.asarray(R, dtype=float))
    S = sp.check_vector(np.asarray(S, dtype=float))
    fR, fS, _, _, W2 = pieces = _rs_pieces(p, sp, R, S)
    if W2 <= fR.B * fS.B * COINCIDENCE_TOL**2:
        # near-coincident pair: the limit is the one-vector tensor
        return metric(p, sp, R)
    h = p.h
    sa, ca = _rs_trig(p, pieces)
    Rlow = grad_covector(p, sp, R)
    Slow = grad_covector(p, sp, S)
    s_RS = _s_covector(p, sp, R, S, pieces)
    s_SR = _s_covector(p, sp, S, R, (fS, fR) + pieces[2:])
    spq = _s_matrix(p, sp, R, S, pieces)
    return ((np.outer(Rlow, Slow) / (fR.K * fS.K) - h * h * np.outer(s_RS, s_SR)) * ca
            + h * (np.outer(Rlow, s_SR) / fR.K + np.outer(s_RS, Slow) / fS.K + spq) * sa)


def scalar_grad(p: Param, sp: Space, R: np.ndarray,
                S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of the anisotropic scalar product with respect to R^p and
    S^q. As S -> R the R-gradient tends to the covector R_p."""
    R = sp.check_vector(np.asarray(R, dtype=float))
    S = sp.check_vector(np.asarray(S, dtype=float))
    fR, fS, _, _, W2 = pieces = _rs_pieces(p, sp, R, S)
    if W2 <= fR.B * fS.B * COINCIDENCE_TOL**2:
        raise DegenerateW("two-vector root vanished; gradients undefined")
    h = p.h
    sa, ca = _rs_trig(p, pieces)
    product = fR.K * fS.K * ca
    Rlow = grad_covector(p, sp, R)
    Slow = grad_covector(p, sp, S)
    dR = Rlow * product / fR.K**2 + h * fS.K * _s_covector(p, sp, R, S, pieces) * sa
    dS = (Slow * product / fS.K**2
          + h * fR.K * _s_covector(p, sp, S, R, (fS, fR) + pieces[2:]) * sa)
    return dR, dS
