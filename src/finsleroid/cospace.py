"""Hamiltonian co-function H on the dual space, co-metric tensors, and the
Legendre-style duality maps between vectors and covectors.

Covectors are arrays (R_1, ..., R_{N-1}, Zhat) with the axial slot last,
one covector of shape (N,) or covectors stacked along leading axes,
shape (..., N), with one g or one g per row. H is the metric function at
-g on the dual space, whose spatial metric is r^ab, so every function here
is one call into the vector-side stack at (p.mirrored(), sp.dual()).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .core import Param, ScalarForms, Space, scalar_forms
from .tensors import grad_covector, metric, metric_inverse

__all__ = ["fhf", "co_scalar_forms", "to_costate", "from_costate", "co_metric"]


def co_scalar_forms(p: Param, sp: Space, Rhat: np.ndarray) -> ScalarForms:
    """Characteristic scalars of a covector, or of every row of a stack:
    the vector-side forms at -g on the dual space, with H as their K."""
    return scalar_forms(p.mirrored(), sp.dual(), Rhat)


def fhf(p: Param, sp: Space, Rhat: np.ndarray) -> Union[float, np.ndarray]:
    """Hamiltonian co-function H(g; Rhat), the dual norm of a covector: a
    float for one covector, an array of shape Rhat.shape[:-1] for a stack."""
    return scalar_forms(p.mirrored(), sp.dual(), Rhat).K


def to_costate(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Gradient map R_p = (1/2) d K^2 / d R^p (vector -> covector): the
    covector tensors.grad_covector."""
    return grad_covector(p, sp, R)


def from_costate(p: Param, sp: Space, Rhat: np.ndarray) -> np.ndarray:
    """Inverse gradient map R^p = (1/2) d H^2 / d R_p (covector -> vector):
    the gradient at -g on the dual space. Inverts to_costate, including on
    the axis."""
    return grad_covector(p.mirrored(), sp.dual(), Rhat)


def co_metric(p: Param, sp: Space, Rhat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Co-metric pair (g^pq, g_pq) = (1/2) d^2 H^2 / dR_p dR_q and its
    inverse: metric and metric_inverse at -g on the dual space. Substituting
    Rhat = to_costate(R) reproduces metric_inverse(R) and metric(R)."""
    m, d = p.mirrored(), sp.dual()
    return metric(m, d, Rhat), metric_inverse(m, d, Rhat)
