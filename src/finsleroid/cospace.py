"""Hamiltonian co-function H on the dual space, co-metric tensors, and the
Legendre-style duality maps between vectors and covectors.

Covectors are 1-D arrays (R_1, ..., R_{N-1}, Zhat) with the axial slot
last; their spatial norm uses the inverse spatial matrix r^ab. fhf,
co_scalar_forms and to_costate also take covectors stacked along leading
axes, shape (..., N); from_costate and co_metric take one covector.

H is implemented from its own closed form, not as K at -g, so the mirror
symmetry H(g; X) = K(-g; X) stays a nontrivial cross-check.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .core import Param, Space, any_row, axial, half_G_angle
from .errors import AxisSingular, DegenerateVector
from .tensors import grad_covector

__all__ = ["fhf", "co_scalar_forms", "to_costate", "from_costate", "co_metric"]


def _co_forms(p: Param, sp: Space, Rhat: np.ndarray):
    """The checked covector and its characteristic scalars (qh, Bh, Ah, Lh,
    Phih, Jh, H): floats for one covector (N,), arrays of shape
    Rhat.shape[:-1] for a stack (..., N)."""
    Rhat = sp.check_vector(Rhat)
    Rs = Rhat[..., :-1]
    qh = np.sqrt(abs(np.vecdot(Rs @ sp.r_spatial_inv, Rs)))
    qh = float(qh) if qh.ndim == 0 else qh
    Zh = axial(Rhat)
    if any_row((qh == 0.0) & (Zh == 0.0)):
        raise DegenerateVector("co-function undefined at the origin")
    g = p.g
    Bh = Zh * Zh - g * qh * Zh + qh * qh
    Ah = Zh - 0.5 * g * qh
    Lh = qh - 0.5 * g * Zh
    # on the axis atan2(Zh, +0) = +-pi/2
    Phih = np.arctan2(Ah, p.h * qh)
    Jh = np.exp(half_G_angle(p, -Phih))
    H = np.sqrt(Bh) * Jh
    if Rhat.ndim == 1:
        Phih, Jh, H = float(Phih), float(Jh), float(H)
    return Rhat, (qh, Bh, Ah, Lh, Phih, Jh, H)


def _one_co_forms(p: Param, sp: Space, Rhat: np.ndarray):
    """_co_forms for the functions of one covector: a stack raises
    ValueError."""
    if np.ndim(Rhat) != 1:
        raise ValueError(f"expected one covector, got shape {np.shape(Rhat)}")
    return _co_forms(p, sp, Rhat)


def co_scalar_forms(p: Param, sp: Space, Rhat: np.ndarray) -> dict:
    """Characteristic scalars of a covector, or of every row of a stack,
    keyed like the vector-side set."""
    return dict(zip(("q", "B", "A", "L", "Phi", "J", "H"), _co_forms(p, sp, Rhat)[1]))


def fhf(p: Param, sp: Space, Rhat: np.ndarray) -> Union[float, np.ndarray]:
    """Hamiltonian co-function H(g; Rhat), the dual norm of a covector: a
    float for one covector, an array of shape Rhat.shape[:-1] for a stack."""
    return _co_forms(p, sp, Rhat)[1][-1]


def to_costate(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Gradient map R_p = (1/2) d K^2 / d R^p (vector -> covector): the
    covector tensors.grad_covector."""
    return grad_covector(p, sp, R)


def from_costate(p: Param, sp: Space, Rhat: np.ndarray) -> np.ndarray:
    """Inverse gradient map R^p = (1/2) d H^2 / d R_p (covector -> vector).

    Closed form; inverts to_costate exactly, including on the axis.
    """
    Rhat, (qh, Bh, Ah, Lh, Phih, Jh, H) = _one_co_forms(p, sp, Rhat)
    out = np.empty(sp.dim)
    out[:-1] = (sp.r_spatial_inv @ Rhat[:-1]) * H**2 / Bh
    out[-1] = (Rhat[-1] - p.g * qh) * H**2 / Bh
    return out


def co_metric(p: Param, sp: Space, Rhat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Co-metric pair (g^pq, g_pq) at a covector with qhat > 0.

    Substituting Rhat = to_costate(R) reproduces metric_inverse(R) and
    metric(R) exactly.
    """
    Rhat, (qh, Bh, Ah, Lh, Phih, Jh, H) = _one_co_forms(p, sp, Rhat)
    if qh == 0.0:
        if p.g == 0.0:
            return sp.r_full_inv.copy(), sp.r_full.copy()
        raise AxisSingular("co-metric undefined on the axis (qhat = 0) for g != 0")
    g = p.g
    Zh = float(Rhat[-1])
    H2 = H * H
    Rup = sp.r_spatial_inv @ Rhat[:-1]
    n = sp.dim
    up = np.empty((n, n))
    up[-1, -1] = ((Zh - g * qh) ** 2 + qh * qh) * H2 / Bh**2
    up[-1, :-1] = up[:-1, -1] = -g * qh * Rup * H2 / Bh**2
    up[:-1, :-1] = (H2 / Bh) * sp.r_spatial_inv + g * np.outer(Rup, Rup) * Zh / qh * H2 / Bh**2
    low = np.empty((n, n))
    low[-1, -1] = (Zh * Zh + qh * qh) / H2
    low[-1, :-1] = low[:-1, -1] = g * qh * Rhat[:-1] / H2
    low[:-1, :-1] = (Bh / H2) * sp.r_spatial - g * (Zh - g * qh) * np.outer(Rhat[:-1], Rhat[:-1]) / (qh * H2)
    return up, low
