"""The identity battery of ``finsleroid check``: the paper's headline
identities, each declared once in IDENTITIES with its tolerance, the
reason for that tolerance and a residual over one random sample.

draw_sample takes 40 rows (g, R) from the caller's generator, in N = 3
with r = I unless the caller passes a Space, then the second vectors of
the two pair identities. No residual assumes N = 3 or r = I. Each residual
evaluates its identity over the stacked rows, one g per row, and returns
the worst row. The pair, plane and shape identities run stacked too, with
per-row g: geodesic_norm_law and angle_laws each solve their pairs in one
connect call, over the rows whose image angle connect accepts.

Each tolerance sits well above the rounding its reason names (over seeds
0-299 the worst residual is 5e-2 of its tolerance, metric_hessian's, and
the others stay below 6e-3) and, for the identities that depend on h,
well below what an h off by 1e-3 gives (2e-4 and up).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import angle, cospace, geodesic, plane, quasieuclid, shape, tensors
from .core import Param, Space, fmf, make_param, scalar_forms

__all__ = ["Identity", "IDENTITIES", "Sample", "draw_sample", "run_battery"]

SAMPLE_ROWS = 40
PAIR_ROWS = 10


@dataclasses.dataclass(frozen=True)
class Sample:
    """The battery's inputs in the Space sp: SAMPLE_ROWS vectors X of shape
    (rows, N), row i at g = P.g[i], and PAIR_ROWS second vectors for each
    pair identity. With fault set every Param of the battery has h raised
    by 1e-3, a fault the battery must catch."""

    sp: Space
    P: Param
    X: np.ndarray
    geodesic_ends: np.ndarray
    angle_ends: np.ndarray
    fault: bool

    def param(self, g) -> Param:
        """make_param(g), with the fault when it is set."""
        return _param(g, self.fault)

    def head(self, n) -> Tuple[Param, np.ndarray]:
        """The Param and the vectors of the rows n selects (a slice or a
        boolean mask)."""
        return _take(self.P, n), self.X[n]


def _param(g, fault: bool) -> Param:
    p = make_param(g)
    return dataclasses.replace(p, h=p.h + 1e-3) if fault else p


def _take(P: Param, index) -> Param:
    """The rows index of a per-row Param; Python floats for one row."""
    vals = [getattr(P, f.name)[index] for f in dataclasses.fields(P)]
    return Param(*(float(v) if np.ndim(v) == 0 else v for v in vals))


def _rand_vec(rng, sp: Space, min_q: float = 0.2) -> np.ndarray:
    # q > min_q implies |v| > min_q, since |v|^2 = q^2 + Z^2
    while True:
        v = rng.normal(size=sp.dim)
        if sp.spatial_norm(v) > min_q:
            return v


def draw_sample(rng, fault: bool = False, sp: Optional[Space] = None) -> Sample:
    """The battery's inputs in the Space sp (default Space.euclidean(3)),
    drawn in a fixed order: SAMPLE_ROWS pairs (g, R), then the second
    vectors of geodesic_norm_law, then those of angle_laws."""
    sp = Space.euclidean(3) if sp is None else sp
    g, X = np.empty(SAMPLE_ROWS), np.empty((SAMPLE_ROWS, sp.dim))
    for i in range(SAMPLE_ROWS):
        g[i] = rng.uniform(-1.8, 1.8)
        X[i] = _rand_vec(rng, sp)
    ends = [np.array([_rand_vec(rng, sp) for _ in range(PAIR_ROWS)]) for _ in range(2)]
    return Sample(sp, _param(g, fault), X, ends[0], ends[1], fault)


def _worst(values) -> float:
    return float(np.max(values, initial=0.0))


def _form_identities(s: Sample) -> float:
    f = scalar_forms(s.P, s.sp, s.X)
    h2, Z = s.P.h**2, s.X[:, -1]
    return max(_worst(np.abs(f.A**2 + h2 * f.q**2 - f.B) / f.B),
               _worst(np.abs(f.L**2 + h2 * Z**2 - f.B) / f.B))


def _homogeneity(s: Sample) -> float:
    P, X = s.head(slice(20))
    lam = np.array([1.0, 0.5, 2.0, 10.0])[:, None]
    K = fmf(P, s.sp, lam[..., None] * X)  # one call over (R, 0.5 R, 2 R, 10 R)
    return _worst(np.abs(K[1:] - lam[1:] * K[0]) / (lam[1:] * K[0]))


def _euler_identity(s: Sample) -> float:
    K2 = fmf(s.P, s.sp, s.X) ** 2
    return _worst(np.abs(np.vecdot(tensors.grad_covector(s.P, s.sp, s.X), s.X) - K2) / K2)


def _metric_det_law(s: Sample) -> float:
    d = np.linalg.det(tensors.metric(s.P, s.sp, s.X))
    return _worst(np.abs(d - tensors.metric_det(s.P, s.sp, s.X)) / np.abs(d))


def _metric_hessian(s: Sample) -> float:
    P, X = s.head(slice(8))
    # a step relative to |R|: a fixed one is dominated by rounding for |R| ~ 3
    eps = 1e-4 * s.sp.norm(X)
    # Y[k, i, j, m] = R_m + di e_i + dj e_j for the k-th sign pair (di, dj)
    signs = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
    di, dj = (signs[:, c, None, None, None, None] * eps[:, None] for c in (0, 1))
    E = np.eye(s.sp.dim)
    Y = (X + di * E[:, None, None, :]) + dj * E[:, None, :]
    k2 = 0.5 * fmf(P, s.sp, Y) ** 2
    H = np.moveaxis((k2[0] - k2[1] - k2[2] + k2[3]) / (4 * eps * eps), -1, 0)
    gm = tensors.metric(P, s.sp, X)
    return _worst(np.max(np.abs(gm - H), axis=(1, 2)) / np.max(np.abs(gm), axis=(1, 2)))


def _cartan_contraction(s: Sample) -> float:
    P, X = s.head(np.abs(s.P.g) >= 1e-3)  # the target N^2 g^2 / 4 vanishes at g = 0
    ct = tensors.cartan(P, s.sp, X)
    target = s.sp.dim**2 * P.g**2 / 4
    K2 = fmf(P, s.sp, X) ** 2
    return _worst(np.abs(K2 * np.vecdot(ct.covector, ct.vector) - target) / target)


def _curvature_constant(s: Sample) -> float:
    P, X = s.head(slice(12))
    return _worst(np.abs(1.0 + tensors.curvature_S(P, s.sp, X).s_star - P.h**2))


def _duality(s: Sample) -> float:
    P, sp, X = s.P, s.sp, s.X
    K = fmf(P, sp, X)
    legendre = cospace.fhf(P, sp, cospace.to_costate(P, sp, X))
    mirror = cospace.fhf(P, sp, X) - fmf(s.param(-P.g), sp.dual(), X)
    return max(_worst(np.abs(legendre - K) / K), _worst(np.abs(mirror) / K))


def _qe_roundtrip(s: Sample) -> float:
    P, sp, X = s.P, s.sp, s.X
    t = quasieuclid.sigma(P, sp, X)
    return max(_worst(np.abs(quasieuclid.mu(P, sp, t) - X)),
               _worst(np.abs(quasieuclid.snorm(sp, t) - fmf(P, sp, X))))


def _metric_pullback(s: Sample) -> float:
    P, X = s.head(slice(12))
    jac = quasieuclid.sigma_jacobian(P, s.sp, X)
    nm = quasieuclid.n_metric(P, s.sp, quasieuclid.sigma(P, s.sp, X))
    gm = tensors.metric(P, s.sp, X)
    pulled = jac @ nm.low @ np.swapaxes(jac, -1, -2)
    return _worst(np.max(np.abs(pulled - gm), axis=(1, 2)) / np.max(np.abs(gm), axis=(1, 2)))


def _images(s: Sample, ends: np.ndarray):
    """(P, X, sigma / J, sigma) of the PAIR_ROWS pair rows: each image array
    holds those of X and of ends on a first axis of 2, from one scalar_forms
    call on each, sigma formed from sigma / J = (h R^a, A) as
    quasieuclid.sigma forms it."""
    P, X = s.head(slice(PAIR_ROWS))
    forms = [scalar_forms(P, s.sp, V) for V in (X, ends)]
    over_j = np.stack([quasieuclid.sigma_over_j(P, V, f.A) for V, f in zip((X, ends), forms)])
    return P, X, over_j, over_j * np.stack([f.J for f in forms])[..., None]


def _connected(P: Param, T1: np.ndarray, T2: np.ndarray, sp: Space, alpha: np.ndarray):
    """(rows, GeodesicBoundary): the mask of the pair rows that connect
    solves, by their image angle alpha (the same Space.gram test connect
    makes), and one connect call over those rows."""
    rows = alpha < math.pi - geodesic.ANTIPODAL_TOL
    return rows, geodesic.connect(_take(P, rows), T1[rows], T2[rows], space=sp)


def _geodesic_norm_law(s: Sample) -> float:
    P, _, _, (T1, T2) = _images(s, s.geodesic_ends)
    _, bd = _connected(P, T1, T2, s.sp, angle.qe_angle(P, T1, T2, space=s.sp))
    sv = np.linspace(0.1, 0.9, 5) * bd.delta_s[:, None]
    t, _ = geodesic.qe_geodesic_at(bd, sv)
    a, b = bd.a[:, None], bd.b[:, None]
    S2 = a * a + 2 * b * sv + sv * sv
    return _worst(np.abs(s.sp.dot(t, t) - S2) / S2)


def _angle_laws(s: Sample) -> float:
    # fins_angle takes the angle of the sigma images, so it is compared with
    # that of the images sigma / J = (h R^a, A), an independent rounding of
    # the same angle, and it picks the rows for connect itself
    P, X, over_j, images = _images(s, s.angle_ends)
    pair = angle.fins_angle(P, s.sp, X, s.angle_ends)
    alpha = angle.qe_angle(P, *over_j, space=s.sp)
    rows, bd = _connected(P, *images, s.sp, pair.alpha)
    return max(_worst(np.abs(pair.alpha - alpha)),
               _worst(np.abs(pair.ominus_sq[rows] - bd.delta_s**2)))


def _shape_mirror(s: Sample) -> float:
    g = np.array([0.2, 0.4, 0.6])
    prof = shape.indicatrix_profile(s.param(np.concatenate([g, -g])[:, None]), 64)
    flipped = prof[len(g):, ::-1] * (1.0, -1.0)
    return _worst(np.abs(prof[:len(g)] - flipped))


def _plane_identities(s: Sample) -> float:
    fs = np.linspace(0.05, math.pi - 0.05, 40)
    p = s.param(np.array([0.0, 0.4, -0.6, 1.2])[:, None])
    chk = plane.landsberg_check(p, fs)
    return max(plane.rund_residual(p, fs), chk["wronskian"], chk["sqrt_det"],
               chk["convexity"])


class Identity(NamedTuple):
    """One identity of the battery: its name, its default tolerance, the
    reason for that tolerance, and its residual over a Sample."""

    name: str
    tol: float
    reason: str
    residual: Callable[[Sample], float]


IDENTITIES: Tuple[Identity, ...] = (
    Identity("form_identities", 1e-12,
             "A^2 + h^2 q^2 = B and L^2 + h^2 Z^2 = B: a few roundings of O(B) terms, relative to B",
             _form_identities),
    Identity("homogeneity", 1e-12,
             "K(lam R) = lam K(R): each side carries a few eps of relative rounding",
             _homogeneity),
    Identity("euler_identity", 1e-11,
             "R_p R^p = K^2: a dot product whose terms can exceed K^2, relative to K^2",
             _euler_identity),
    Identity("metric_det_law", 1e-10,
             "an LU determinant of g against J^(2N) det r: eps times the condition number of g",
             _metric_det_law),
    Identity("metric_hessian", 1e-5,
             "second differences at step 1e-4 |R|: truncation and rounding are each ~1e-8 of K^2",
             _metric_hessian),
    Identity("cartan_contraction", 1e-12,
             "K^2 C_p C^p = N^2 g^2 / 4 from closed forms, relative; rows with |g| < 1e-3 skipped",
             _cartan_contraction),
    Identity("curvature_constant", 1e-12,
             "1 + S* = h^2: a least-squares fit over O(1) angular products, absolute",
             _curvature_constant),
    Identity("duality", 1e-9,
             "H(R_p) = K(R): the Legendre half is the independent check, through "
             "exp(+-G Phi/2) at g and -g; H(g) = K(-g) on the dual space holds by construction",
             _duality),
    Identity("qe_roundtrip", 1e-10,
             "mu(sigma(R)) = R and S(sigma(R)) = K, absolute, with K up to ~25 |R| at |g| = 1.8",
             _qe_roundtrip),
    Identity("metric_pullback", 1e-10,
             "J n J^T = g: a product of three matrices, relative to max |g|",
             _metric_pullback),
    Identity("geodesic_norm_law", 1e-10,
             "S^2 = a^2 + 2 b s + s^2 along the closed-form geodesic, relative",
             _geodesic_norm_law),
    Identity("angle_laws", 1e-9,
             "alpha against the angle of the images sigma / J and ominus^2 against delta_s^2: "
             "arccos routes, absolute",
             _angle_laws),
    Identity("shape_mirror", 1e-10,
             "the generatrix at -g is that at g flipped: O(1) coordinates, absolute",
             _shape_mirror),
    Identity("plane_identities", 1e-8,
             "the plane profile equation, Wronskian, sqrt det g and convexity, absolute",
             _plane_identities),
)


def run_battery(rng, fault: bool = False,
                sp: Optional[Space] = None) -> List[Tuple[str, float, float]]:
    """(name, residual, default tolerance) of every identity, in table
    order, over draw_sample(rng, fault, sp)."""
    sample = draw_sample(rng, fault, sp)
    return [(i.name, float(i.residual(sample)), i.tol) for i in IDENTITIES]
