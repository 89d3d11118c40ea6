"""Hamiltonian co-function H on the dual space, co-metric tensors, and the
Legendre-style duality maps between vectors and covectors.

Covectors are 1-D arrays (R_1, ..., R_{N-1}, Zhat) with the axial slot
last; their spatial norm uses the inverse spatial matrix r^ab.

H is implemented from its own closed form, not as K at -g, so the mirror
symmetry H(g; X) = K(-g; X) stays a nontrivial cross-check.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import Param, Space
from .errors import AxisSingular, DegenerateVector
from .tensors import grad_covector

__all__ = ["fhf", "co_scalar_forms", "to_costate", "from_costate", "co_metric"]


def _co_forms(p: Param, sp: Space, Rhat: np.ndarray):
    Rhat = sp.check_vector(Rhat)
    Rs = Rhat[:-1]
    qh = math.sqrt(max(float(Rs @ sp.r_spatial_inv @ Rs), 0.0))
    Zh = float(Rhat[-1])
    if qh == 0.0 and Zh == 0.0:
        raise DegenerateVector("co-function undefined at the origin")
    g, h, G = p.g, p.h, p.G
    Bh = Zh * Zh - g * qh * Zh + qh * qh
    Ah = Zh - 0.5 * g * qh
    Lh = qh - 0.5 * g * Zh
    if qh > 0.0:
        Phih = math.atan2(Ah, h * qh)
    else:
        Phih = math.copysign(0.5 * math.pi, Zh)
    Jh = math.exp(-0.5 * G * Phih)
    H = math.sqrt(Bh) * Jh
    return qh, Bh, Ah, Lh, Phih, Jh, H


def co_scalar_forms(p: Param, sp: Space, Rhat: np.ndarray) -> dict:
    """Characteristic scalars of a covector, keyed like the vector-side set."""
    qh, Bh, Ah, Lh, Phih, Jh, H = _co_forms(p, sp, Rhat)
    return {"q": qh, "B": Bh, "A": Ah, "L": Lh, "Phi": Phih, "J": Jh, "H": H}


def fhf(p: Param, sp: Space, Rhat: np.ndarray) -> float:
    """Hamiltonian co-function H(g; Rhat), the dual norm of a covector."""
    return _co_forms(p, sp, Rhat)[-1]


def to_costate(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Gradient map R_p = (1/2) d K^2 / d R^p (vector -> covector): the
    covector tensors.grad_covector."""
    return grad_covector(p, sp, R)


def from_costate(p: Param, sp: Space, Rhat: np.ndarray) -> np.ndarray:
    """Inverse gradient map R^p = (1/2) d H^2 / d R_p (covector -> vector).

    Closed form; inverts to_costate exactly, including on the axis.
    """
    qh, Bh, Ah, Lh, Phih, Jh, H = _co_forms(p, sp, Rhat)
    out = np.empty(sp.dim)
    out[:-1] = (sp.r_spatial_inv @ Rhat[:-1]) * H**2 / Bh
    out[-1] = (Rhat[-1] - p.g * qh) * H**2 / Bh
    return out


def co_metric(p: Param, sp: Space, Rhat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Co-metric pair (g^pq, g_pq) at a covector with qhat > 0.

    Substituting Rhat = to_costate(R) reproduces metric_inverse(R) and
    metric(R) exactly.
    """
    Rhat = sp.check_vector(Rhat)
    qh, Bh, Ah, Lh, Phih, Jh, H = _co_forms(p, sp, Rhat)
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
