"""The quasi-Euclidean picture: the norm-preserving map sigma carrying the
unit body onto the Euclidean unit ball, its inverse mu, both Jacobians,
the transported metric tensor n, and the full geometric apparatus of n
(Christoffel symbols, curvature, orthonormal frames, Ricci rotation
coefficients, conformal flatness, induced sphere geometry).

Image-space points are plain arrays t with the axial slot last. Their
Euclidean norm is S(t) = sqrt(r_pq t^p t^q); sigma satisfies
S(sigma(R)) = K(R). Every function but sphere_curvature, which takes a
chart point, takes one point (N,) or points stacked along leading axes,
(..., N), with one g or one g per row, and runs one row formula for both:
each row of a stack gets the bits of its one-point result. A tensor of
shape T at one point comes back with shape t.shape[:-1] + T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (Param, Space, axial, diagonal, g_zero_rows, half_G_angle, per_row,
                   refuse, require_off_axis, scalar_forms, write_rows)
from .errors import BadFrame, ChartOutOfRange, DegenerateVector

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


def snorm(sp: Space, t: np.ndarray) -> Union[float, np.ndarray]:
    """S(t), the full Euclidean norm of an image-space point, as the hypot
    of m(t) and t^N; broadcasts over the leading axes of t like mnorm."""
    t = np.asarray(t, dtype=float)
    S = np.hypot(sp.spatial_norm(t), t[..., -1])  # spatial_norm checks t
    return float(S) if S.ndim == 0 else S


def mnorm(sp: Space, t: np.ndarray) -> Union[float, np.ndarray]:
    """m(t), the spatial norm of an image-space point; broadcasts over the
    leading axes of t like Space.spatial_norm."""
    return sp.spatial_norm(t)


def _radial(sp: Space, t: np.ndarray, what: str):
    """The image point t as a float array, S(t) and L = t / S(t), for one
    point or a stack (..., N): snorm checks t, and a row at the origin
    raises DegenerateVector."""
    t = np.asarray(t, dtype=float)
    S = snorm(sp, t)
    refuse(S == 0.0, DegenerateVector, f"{what} undefined at the origin", S)
    return t, S, t / per_row(S)


def _transverse(sp: Space, t: np.ndarray, what: str):
    """S and L of _radial plus H_pq = r_pq - L_p L_q, the projector
    transverse to the radial direction in the Christoffel symbols and the
    curvature, of shape t.shape + (N,)."""
    t, S, L = _radial(sp, t, what)
    Llow = sp.lower(L)
    return S, L, sp.r_full - Llow[..., :, None] * Llow[..., None, :]


def unit_l(sp: Space, t: np.ndarray) -> np.ndarray:
    """Unit radial vector L^p = t^p / S(t); broadcasts like snorm."""
    return _radial(sp, t, "unit vector")[2]


def sigma_over_j(p: Param, R: np.ndarray, A) -> np.ndarray:
    """sigma(R) / J = (h R^a, A), from the axial combination A of R: norm
    sqrt(B), and the angle of two of them is that of their sigma images."""
    t = R * per_row(p.h)
    t[..., -1] = A
    return t


def sigma(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Forward map: t^a = R^a h J, t^N = A J. Positively homogeneous,
    and S(sigma(R)) = K(R)."""
    R = np.asarray(R, dtype=float)
    return _sigma(p, R, scalar_forms(p, sp, R))


def _sigma(p: Param, R: np.ndarray, f) -> np.ndarray:
    """sigma(R) from the checked R and its forms f: the one place of the
    image, so that every caller gets the same bytes for the same R."""
    return sigma_over_j(p, R, f.A) * per_row(f.J)


def _inverse(p: Param, sp: Space, t: np.ndarray, what: str):
    """The checked image point t, m(t), t^N and k = exp(G atan2(t^N, m) / 2)
    of one point or of every row of a stack, for mu and its Jacobian; a row
    at the origin raises DegenerateVector."""
    t = np.asarray(t, dtype=float)
    m, tN = sp.spatial_norm(t), axial(t)  # spatial_norm checks t
    refuse((m == 0.0) & (tN == 0.0), DegenerateVector, f"{what} undefined at the origin", t)
    return t, m, tN, np.exp(half_G_angle(p, np.arctan2(tN, m)))


def mu(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Inverse map. mu(sigma(R)) = R identically.

    t is one image point of shape (N,) or points stacked along leading
    axes, shape (..., N); the result has the shape of t. The whole stack
    is checked: a non-finite entry or a wrong last axis raises ValueError,
    a row at the origin DegenerateVector.
    """
    t, m, tN, k = _inverse(p, sp, t, "inverse map")
    R = np.empty(t.shape)
    R[..., :-1] = t[..., :-1] / per_row(p.h * k)
    R[..., -1] = (tN - 0.5 * p.G * m) / k
    return R


def sigma_jacobian(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Jacobian jac[p, q] = d sigma^q / d R^p.

    Requires q > 0 unless g = 0 (identity). det = h^(N-1) J^N.
    """
    R = np.asarray(R, dtype=float)
    return _sigma_jacobian(p, sp, R, scalar_forms(p, sp, R))


def _sigma_jacobian(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    """The Jacobian at the checked R and its forms f. The spatial block is
    (J h / B)(B delta_ab - (g Z / (2 q)) rR_a R^b): the rank-one product,
    then J h added on its diagonal in place."""
    require_off_axis(p, f.q, "sigma Jacobian")
    z, q = g_zero_rows(p, f.q)
    g, h, J, B, A, Z = p.g, p.h, f.J, f.B, f.A, axial(R)
    Rs = R[..., :-1]
    rR = sp.lower(R)[..., :-1]
    out = np.empty(R.shape + R.shape[-1:])
    out[..., -1, -1] = (B + 0.5 * g * q * A) * J / B
    out[..., :-1, -1] = per_row(-g * (Z * A - B) / (2 * q) * J / B) * rR
    out[..., -1, :-1] = per_row(0.5 * g * q * J * h / B) * Rs
    out[..., :-1, :-1] = ((per_row(-0.5 * g * Z / q * (J * h / B)) * rR)[..., :, None]
                          * Rs[..., None, :])
    diagonal(out, sp.dim - 1)[...] += per_row(J * h)
    if z is not False:  # so that no np.eye is built when no row has g = 0
        write_rows(z, R, out, np.eye(sp.dim))
    return out


def mu_jacobian(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Jacobian jac[q, p] = d mu^p / d t^q; the matrix inverse of
    sigma_jacobian at matched points.

    Requires m(t) > 0 unless g = 0 (identity).
    """
    t, m, tN, k = _inverse(p, sp, t, "mu Jacobian")
    require_off_axis(p, m, "mu Jacobian")
    z, m = g_zero_rows(p, m)
    h, G, S2 = p.h, p.G, m * m + tN * tN
    ts = t[..., :-1]
    rt = sp.lower(t)[..., :-1]
    out = np.empty(t.shape + t.shape[-1:])
    out[..., -1, -1] = 1.0 / k - 0.5 * G * m * (tN - 0.5 * G * m) / (k * S2)
    out[..., :-1, -1] = per_row(-0.5 * G * (m + 0.5 * G * tN)) * rt / per_row(k * S2)
    out[..., -1, :-1] = per_row(-0.5 * G * m) * ts / per_row(h * k * S2)
    out[..., :-1, :-1] = (per_row(0.5 * G * tN, 2) * (rt[..., :, None] * ts[..., None, :])
                          / per_row(h * k * m * S2, 2))
    diagonal(out, sp.dim - 1)[...] += per_row(1.0 / (h * k))  # delta_ab / (h k)
    if z is not False:  # so that no np.eye is built when no row has g = 0
        write_rows(z, t, out, np.eye(sp.dim))
    return out


@dataclass(frozen=True)
class NMetric:
    """Transported metric n at an image point: covariant, contravariant,
    and the (point-independent) determinant of the covariant form."""

    low: np.ndarray
    up: np.ndarray
    det: Union[float, np.ndarray]


def n_metric(p: Param, sp: Space, t: np.ndarray) -> NMetric:
    """n^rs = h^2 r^rs + (g^2/4) L^r L^s and its inverse
    n_rs = r_rs / h^2 - (G^2/4) L_r L_s; det(n_rs) = h^(2(1-N)) det(r_ab).
    The det does not depend on t: it is an array only for per-row g."""
    L = unit_l(sp, t)
    Llow = sp.lower(L)
    h2 = per_row(p.h * p.h, 2)
    up = (h2 * sp.r_full_inv
          + per_row(0.25 * p.g * p.g, 2) * (L[..., :, None] * L[..., None, :]))
    low = (sp.r_full / h2
           - per_row(0.25 * p.G * p.G, 2) * (Llow[..., :, None] * Llow[..., None, :]))
    # (h^2)^(N-1) as products: float ** k and numpy's power can differ by an ulp
    det = sp.r_spatial_det / math.prod((p.h * p.h,) * (sp.dim - 1))
    return NMetric(low=low, up=up, det=det)


def qe_christoffel(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Christoffel symbols of n: chris[..., p, r, q] = N_p^r_q
    = -(G^2/4) L^r H_pq / S with H_pq = r_pq - L_p L_q.

    Identities: t^p N_p^r_q = 0, trace-free, nilpotent product.
    """
    S, L, H = _transverse(sp, t, "Christoffel symbols")
    return (per_row(-0.25 * (p.G * p.G), 3) * (L[..., None, :, None] * H[..., :, None, :])
            / per_row(S, 3))


def qe_curvature(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Curvature tensor of n: R_prqs = -(G^2/4)(H_pq H_rs - H_ps H_qr)/S^2.

    All contractions with the radial unit vector vanish.
    """
    S, L, H = _transverse(sp, t, "curvature")
    Hqr = H.swapaxes(-1, -2)[..., None, :, :, None]  # [p, r, q, s] = H_qr
    return (per_row(-0.25 * (p.G * p.G), 4)
            * (H[..., :, None, :, None] * H[..., None, :, None, :]
               - H[..., :, None, None, :] * Hqr) / per_row(S * S, 4))


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


def checked_base_frame(sp: Space, base_frame: Optional[np.ndarray]) -> np.ndarray:
    """base_frame as a float array, or the Cholesky-derived frame of sp when
    it is None. Raises BadFrame unless it is N x N and orthonormal for the
    background metric: sum_P base[P, p] base[P, q] = r_pq, entry by entry to
    1e-10 sqrt(r_pp r_qq), at any scale of r."""
    if base_frame is None:
        return sp.base_frame
    base = np.asarray(base_frame, dtype=float)
    if base.shape != (sp.dim, sp.dim):
        raise BadFrame(f"frame must be {sp.dim}x{sp.dim}, got shape {base.shape}")
    d = np.sqrt(np.diagonal(sp.r_full))
    if not np.all(abs(base.T @ base - sp.r_full) <= 1e-10 * np.outer(d, d)):
        raise BadFrame("frame is not orthonormal for the background metric")
    return base


def qe_frames(p: Param, sp: Space, t: np.ndarray,
              base_frame: Optional[np.ndarray] = None) -> QEFrames:
    """Frames adapted to n from an orthonormal base frame of r_pq.

    base_frame[P, q] must satisfy sum_P base[P, p] base[P, q] = r_pq;
    default is the Cholesky-derived frame of the space. One base frame
    serves every row of a stack.
    """
    t, S, L = _radial(sp, t, "frames")
    base = checked_base_frame(sp, base_frame)
    base_inv = sp.base_frame_inv if base_frame is None else np.linalg.inv(base).T
    h2, h3 = per_row(p.h, 2), per_row(p.h, 3)
    Llow = sp.lower(L)
    L_P = np.matvec(base, L)            # frame components L^P
    L_P_low = np.matvec(base_inv, Llow)
    f = base / h2 + (h2 - 1.0) / h2 * (L_P[..., :, None] * Llow[..., None, :])
    m = h2 * base_inv + (1.0 - h2) * (L_P_low[..., :, None] * L[..., None, :])
    ricci = (h3 - 1.0) * (L_P[..., :, None, None] * f[..., None, :, :]
                          - L_P[..., None, :, None] * f[..., :, None, :]) / per_row(S, 3)
    return QEFrames(f=f, m=m, ricci=ricci)


def conformal_factor(p: Param, sp: Space, t: np.ndarray) -> Union[float, np.ndarray]:
    """Conformal scale xi = (S^2/2)^((h-1)/2); equals 1 at S = sqrt(2). A
    float for one point, an array of shape t.shape[:-1] for a stack."""
    S = _radial(sp, t, "conformal factor")[1]
    xi = np.power(0.5 * S * S, 0.5 * (p.h - 1.0))
    return float(xi) if xi.ndim == 0 else xi


def conformal_check(p: Param, sp: Space, t: np.ndarray) -> np.ndarray:
    """Transport n^rs through the radial rescaling map and return the
    result c^pq, which equals xi^2 r^pq (conformal flatness)."""
    t, S = _radial(sp, t, "conformal transport")[:2]
    h, half_S2 = per_row(p.h), per_row(0.5 * S * S)
    xi = np.power(half_S2, 0.5 * (h - 1.0))
    a_prime = 0.5 * (h - 1.0) * np.power(half_S2, 0.5 * (h - 3.0))
    tlow = sp.lower(t)
    # k[p, q] = dtilde^p/dt^q pattern: (xi delta_pq + a' t^p t_q) / h
    k = np.multiply(t[..., :, None], tlow[..., None, :], order="C")  # for diagonal
    k *= per_row(a_prime)
    diagonal(k, sp.dim)[...] += xi
    k /= per_row(h)
    return np.einsum("...pr,...qs,...rs->...pq", k, k, n_metric(p, sp, t).up)


def sphere_curvature(p: Param, r_radius: float, u: np.ndarray,
                     space: Optional[Space] = None) -> float:
    """Sectional curvature of the radius-r sphere S(t) = r inside the
    quasi-Euclidean space, evaluated on the graph chart
    t^a = u^a, t^N = sqrt(r^2 - |u|^2). Equals h^2 / r^2.

    The radius r must be finite and > 0 and the chart point u one finite
    (N-1)-vector with |u| < r; N - 1 >= 2 is required for the curvature
    tensor fit to be meaningful.
    """
    u = np.asarray(u, dtype=float)
    nm = len(u)
    if nm < 2:
        raise ValueError("sphere curvature needs a chart of dimension >= 2")
    if not (0.0 < r_radius < np.inf and np.all(np.isfinite(u))):  # NaN fails too
        raise ValueError("sphere curvature needs a finite radius > 0 and a finite chart point")
    rs = (Space.euclidean(nm + 1) if space is None else space).r_spatial
    ul = rs @ u
    u2 = float(u @ ul)
    if u2 >= r_radius * r_radius:
        raise ChartOutOfRange("chart point outside the sphere patch |u| < r")
    h = p.h
    w2 = r_radius * r_radius - u2
    uu = ul[:, None] * ul
    q = (rs + uu / w2) / h**2
    # Christoffels I_a^e_b = (h^2/r^2) u^e q_ab, differentiated analytically:
    # dq[a, c, b] = d q_ac / d u^b
    dq = (((rs[:, None, :] * ul[None, :, None] + ul[:, None, None] * rs[None, :, :]) / w2
           + (2.0 * ul)[None, None, :] * uu[:, :, None] / w2**2) / h**2)
    pref = h * h / (r_radius * r_radius)
    I = pref * np.einsum("e,ab->aeb", u, q)          # I[a, e, b] = I_a^e_b
    # dI[a, e, b, c] = d I_a^e_b / d u^c = pref (delta_ec q_ab + u^e dq[a, b, c])
    dI = np.einsum("e,abc->aebc", u, dq)
    diag = np.arange(nm)
    dI[:, diag, :, diag] += q
    dI *= pref
    # R_e^c_ab = d_b I_e^c_a - d_a I_e^c_b + I_e^d_a I_d^c_b - I_e^d_b I_d^c_a
    R4 = (dI - np.einsum("ecba->ecab", dI)
          + np.einsum("eda,dcb->ecab", I, I) - np.einsum("edb,dca->ecab", I, I))
    low = np.einsum("ecab,fc->efab", R4, q)          # R_efab
    M = np.einsum("ea,cb->ecab", q, q) - np.einsum("eb,ac->ecab", q, q)
    return float(np.sum(low * M) / np.sum(M * M))
