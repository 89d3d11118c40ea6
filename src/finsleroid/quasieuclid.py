"""The quasi-Euclidean picture: the norm-preserving map sigma carrying the
unit body onto the Euclidean unit ball, its inverse mu, both Jacobians,
the transported metric tensor n, and the full geometric apparatus of n
(Christoffel symbols, curvature, orthonormal frames, Ricci rotation
coefficients, conformal flatness, induced sphere geometry).

Image-space points are plain arrays t with the axial slot last. Their
Euclidean norm is S(t) = sqrt(r_pq t^p t^q); sigma satisfies
S(sigma(R)) = K(R). mu also takes points stacked along leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Param, Space, scalar_forms
from .errors import AxisSingular, BadFrame, ChartOutOfRange, DegenerateVector

__all__ = [
    "snorm",
    "mnorm",
    "unit_l",
    "sigma",
    "mu",
    "sigma_jacobian",
    "mu_jacobian",
    "n_metric",
    "NMetric",
    "qe_christoffel",
    "qe_curvature",
    "qe_frames",
    "QEFrames",
    "conformal_factor",
    "conformal_check",
    "sphere_curvature",
]


def snorm(sp: Space, t: np.ndarray) -> float:
    """S(t), the full Euclidean norm of an image-space point."""
    return sp.norm(t)


def mnorm(sp: Space, t: np.ndarray) -> Union[float, np.ndarray]:
    """m(t), the spatial norm of an image-space point; broadcasts over the
    leading axes of t like Space.spatial_norm."""
    return sp.spatial_norm(t)


def unit_l(sp: Space, t: np.ndarray) -> np.ndarray:
    """Unit radial vector L^p = t^p / S(t)."""
    S = snorm(sp, t)
    if S == 0.0:
        raise DegenerateVector("unit vector undefined at the origin")
    return t / S


def sigma_over_j(p: Param, R: np.ndarray, A: float) -> np.ndarray:
    """sigma(R) / J = (h R^a, A), from the axial combination A of R: norm
    sqrt(B), and the angle of two of them is that of their sigma images."""
    t = np.empty(len(R))
    t[:-1] = np.multiply(R[:-1], p.h)
    t[-1] = A
    return t


def sigma(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Forward map: t^a = R^a h J, t^N = A J. Positively homogeneous,
    and S(sigma(R)) = K(R)."""
    f = scalar_forms(p, sp, R)
    return sigma_over_j(p, R, f.A) * f.J


def mu(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Inverse map. mu(sigma(R)) = R identically.

    t is one image point of shape (N,) or points stacked along leading
    axes, shape (..., N); the result has the shape of t. The whole stack
    is checked: a non-finite entry or a wrong last axis raises ValueError,
    a row at the origin DegenerateVector.
    """
    t = sp.check_vector(t)
    m = mnorm(sp, t)
    tN = t[..., -1]
    if np.count_nonzero((m == 0.0) & (tN == 0.0)):
        raise DegenerateVector("inverse map undefined at the origin")
    k = np.exp(0.5 * p.G * np.arctan2(tN, m))
    R = np.empty(t.shape)
    R[..., :-1] = t[..., :-1] / (p.h * k)[..., None]
    R[..., -1] = (tN - 0.5 * p.G * m) / k
    return R


def sigma_jacobian(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Jacobian jac[p, q] = d sigma^q / d R^p.

    Requires q > 0 unless g = 0 (identity). det = h^(N-1) J^N.
    """
    f = scalar_forms(p, sp, R)
    if f.q == 0.0:
        if p.g == 0.0:
            return np.eye(sp.dim)
        raise AxisSingular("sigma Jacobian undefined on the axis (q = 0) for g != 0")
    g, h, J = p.g, p.h, f.J
    q, B, A, Z = f.q, f.B, f.A, float(R[-1])
    rR = sp.r_spatial @ R[:-1]
    out = np.empty((sp.dim, sp.dim))
    out[-1, -1] = (B + 0.5 * g * q * A) * J / B
    out[:-1, -1] = -g * (Z * A - B) / (2 * q) * J * rR / B
    out[-1, :-1] = 0.5 * g * q * J * R[:-1] * h / B
    out[:-1, :-1] = (B * np.eye(sp.dim - 1) - 0.5 * g * Z / q * np.outer(rR, R[:-1])) * J * h / B
    return out


def mu_jacobian(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Jacobian jac[q, p] = d mu^p / d t^q; the matrix inverse of
    sigma_jacobian at matched points.

    Requires m(t) > 0 unless g = 0 (identity).
    """
    t = sp.check_vector(t)
    m = mnorm(sp, t)
    if m == 0.0:
        if p.g == 0.0:
            return np.eye(sp.dim)
        raise AxisSingular("mu Jacobian undefined on the axis (m = 0) for g != 0")
    h, G = p.h, p.G
    tN = float(t[-1])
    S2 = snorm(sp, t) ** 2
    phi = math.atan2(tN, m)
    k = math.exp(0.5 * G * phi)
    I = tN - 0.5 * G * m
    rt = sp.r_spatial @ t[:-1]
    out = np.empty((sp.dim, sp.dim))
    out[-1, -1] = 1.0 / k - 0.5 * G * m * I / (k * S2)
    out[:-1, -1] = -0.5 * G * (m + 0.5 * G * tN) * rt / (k * S2)
    out[-1, :-1] = -0.5 * G * m * t[:-1] / (h * k * S2)
    out[:-1, :-1] = np.eye(sp.dim - 1) / (h * k) + 0.5 * G * tN * np.outer(rt, t[:-1]) / (h * k * m * S2)
    return out


@dataclass(frozen=True)
class NMetric:
    """Transported metric n at an image point: covariant, contravariant,
    and the (point-independent) determinant of the covariant form."""

    low: np.ndarray
    up: np.ndarray
    det: float


def n_metric(p: Param, sp: Space, t: np.ndarray) -> NMetric:
    """n^rs = h^2 r^rs + (g^2/4) L^r L^s and its inverse
    n_rs = r_rs / h^2 - (G^2/4) L_r L_s; det(n_rs) = h^(2(1-N)) det(r_ab)."""
    L = unit_l(sp, t)
    Llow = sp.r_full @ L
    up = p.h**2 * sp.r_full_inv + 0.25 * p.g**2 * np.outer(L, L)
    low = sp.r_full / p.h**2 - 0.25 * p.G**2 * np.outer(Llow, Llow)
    det = p.h ** (2 * (1 - sp.dim)) * float(np.linalg.det(sp.r_spatial))
    return NMetric(low=low, up=up, det=det)


def qe_christoffel(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Christoffel symbols of n: chris[p, r, q] = N_p^r_q
    = -(G^2/4) L^r H_pq / S with H_pq = r_pq - L_p L_q.

    Identities: t^p N_p^r_q = 0, trace-free, nilpotent product.
    """
    S = snorm(sp, t)
    if S == 0.0:
        raise DegenerateVector("Christoffel symbols undefined at the origin")
    L = t / S
    Llow = sp.r_full @ L
    H = sp.r_full - np.outer(Llow, Llow)
    return -0.25 * p.G**2 * np.einsum("r,pq->prq", L, H) / S


def qe_curvature(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Curvature tensor of n: R_prqs = -(G^2/4)(H_pq H_rs - H_ps H_qr)/S^2.

    All contractions with the radial unit vector vanish.
    """
    S = snorm(sp, t)
    if S == 0.0:
        raise DegenerateVector("curvature undefined at the origin")
    L = t / S
    Llow = sp.r_full @ L
    H = sp.r_full - np.outer(Llow, Llow)
    return -0.25 * p.G**2 * (np.einsum("pq,rs->prqs", H, H)
                             - np.einsum("ps,qr->prqs", H, H)) / S**2


@dataclass(frozen=True)
class QEFrames:
    """Orthonormal frames of n and the Ricci rotation coefficients.

    f[P, q] = f^P_q with sum_P f^P_p f^P_q = n_pq,
    m[P, q] = m_P^q with sum_P m_P^p m_P^q = n^pq,
    ricci[P, Q, p] antisymmetric under P <-> Q.
    """

    f: np.ndarray
    m: np.ndarray
    ricci: np.ndarray


def qe_frames(p: Param, sp: Space, t: np.ndarray,
              base_frame: Optional[np.ndarray] = None) -> QEFrames:
    """Frames adapted to n from an orthonormal base frame of r_pq.

    base_frame[P, q] must satisfy sum_P base[P, p] base[P, q] = r_pq;
    default is the Cholesky-derived frame of the space.
    """
    S = snorm(sp, t)
    if S == 0.0:
        raise DegenerateVector("frames undefined at the origin")
    if base_frame is None:
        base = sp.base_frame
        base_inv = sp.base_frame_inv
    else:
        base = np.asarray(base_frame, dtype=float)
        if base.shape != (sp.dim, sp.dim):
            raise BadFrame(f"frame must be {sp.dim}x{sp.dim}")
        if not np.allclose(base.T @ base, sp.r_full, rtol=0, atol=1e-10):
            raise BadFrame("frame is not orthonormal for the background metric")
        base_inv = np.linalg.inv(base).T
    h = p.h
    L = t / S
    Llow = sp.r_full @ L
    L_P = base @ L            # frame components L^P
    L_P_low = base_inv @ Llow
    f = base / h + (h - 1.0) / h * np.outer(L_P, Llow)
    m = h * base_inv + (1.0 - h) * np.outer(L_P_low, L)
    ricci = (h - 1.0) * (np.einsum("P,Qp->PQp", L_P, f)
                         - np.einsum("Q,Pp->PQp", L_P, f)) / S
    return QEFrames(f=f, m=m, ricci=ricci)


def conformal_factor(p: Param, sp: Space, t: np.ndarray) -> float:
    """Conformal scale xi = (S^2/2)^((h-1)/2); equals 1 at S = sqrt(2)."""
    S = snorm(sp, t)
    if S == 0.0:
        raise DegenerateVector("conformal factor undefined at the origin")
    return (0.5 * S * S) ** (0.5 * (p.h - 1.0))


def conformal_check(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Transport n^rs through the radial rescaling map and return the
    result c^pq, which equals xi^2 r^pq (conformal flatness)."""
    S2 = snorm(sp, t) ** 2
    if S2 == 0.0:
        raise DegenerateVector("conformal transport undefined at the origin")
    h = p.h
    xi = (0.5 * S2) ** (0.5 * (h - 1.0))
    a_prime = 0.5 * (h - 1.0) * (0.5 * S2) ** (0.5 * (h - 3.0))
    tlow = sp.r_full @ t
    k = (xi * np.eye(sp.dim) + a_prime * np.outer(t, tlow)) / h  # k[p, q] = dtilde^p/dt^q pattern
    nm = n_metric(p, sp, t)
    return np.einsum("pr,qs,rs->pq", k, k, nm.up)


def _sphere_q(h: float, rs: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    ul = rs @ u
    w2 = radius * radius - float(u @ ul)
    return (rs + np.outer(ul, ul) / w2) / h**2


def sphere_curvature(p: Param, r_radius: float, u: np.ndarray,
                     space: Optional[Space] = None) -> float:
    """Sectional curvature of the radius-r sphere S(t) = r inside the
    quasi-Euclidean space, evaluated on the graph chart
    t^a = u^a, t^N = sqrt(r^2 - |u|^2). Equals h^2 / r^2.

    The chart point u is an (N-1)-vector with |u| < r, and N - 1 >= 2 is
    required for the curvature tensor fit to be meaningful.
    """
    u = np.asarray(u, dtype=float)
    nm = len(u)
    if nm < 2:
        raise ValueError("sphere curvature needs a chart of dimension >= 2")
    rs = np.eye(nm) if space is None else space.r_spatial
    ul = rs @ u
    u2 = float(u @ ul)
    if u2 >= r_radius * r_radius:
        raise ChartOutOfRange("chart point outside the sphere patch |u| < r")
    h = p.h
    w2 = r_radius * r_radius - u2
    q = _sphere_q(h, rs, u, r_radius)
    # Christoffels I_a^e_b = (h^2/r^2) u^e q_ab, differentiated analytically
    dq = np.empty((nm, nm, nm))  # dq[a, c, b] = d q_ac / d u^b
    for b in range(nm):
        dq[:, :, b] = ((np.outer(rs[:, b], ul) + np.outer(ul, rs[:, b])) / w2
                       + 2.0 * ul[b] * np.outer(ul, ul) / w2**2) / h**2
    pref = h * h / (r_radius * r_radius)
    I = pref * np.einsum("e,ab->aeb", u, q)          # I[a, e, b] = I_a^e_b
    # dI[a, e, b, c] = d I_a^e_b / d u^c
    dI = pref * (np.einsum("ec,ab->aebc", np.eye(nm), q)
                 + np.einsum("e,abc->aebc", u, dq))
    # R_e^c_ab = d_b I_e^c_a - d_a I_e^c_b + I_e^d_a I_d^c_b - I_e^d_b I_d^c_a
    R4 = (np.einsum("ecab->ecab", dI) - np.einsum("ecba->ecab", dI)
          + np.einsum("eda,dcb->ecab", I, I) - np.einsum("edb,dca->ecab", I, I))
    low = np.einsum("ecab,fc->efab", R4, q)          # R_efab
    M = np.einsum("ea,cb->ecab", q, q) - np.einsum("eb,ac->ecab", q, q)
    return float(np.sum(low * M) / np.sum(M * M))
