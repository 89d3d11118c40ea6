"""Parameter algebra, characteristic scalar forms, and the Finsleroid
metric function.

The geometry lives on an N-dimensional vector space split into an
(N-1)-dimensional spatial part and a distinguished axial direction.
Vectors are plain 1-D numpy arrays with the axial component stored last:
``R = (R^1, ..., R^{N-1}, Z)``. ``scalar_forms``, the one place of the
forms and of K (``fmf`` is its K), also takes vectors stacked along leading
axes, shape ``(..., N)``, and evaluates every row with one numpy formula.

Every one-vector function starts from the forms of its vector, so
``scalar_forms`` keeps those of the last two single vectors it evaluated at
a float g, keyed by the Param and the Space by identity and the bytes of R:
two, for the two vectors of a pair (a vector and its costate, the ends of an
angle). A hit returns the stored tuple of Python floats. ``Space.gram`` keeps
its last one-pair record the same way. Both run through ``_Memo``, the one
memo of the package (``tensors`` keeps its Cartan tensors in a third and
``twovector`` its last n2 in a fourth): stacks bypass it, as keying one
would copy it, and an input that raises is not kept.

The anisotropy is controlled by a single parameter ``g`` in (-2, 2), or by
one ``g`` per row of a stack (``make_param`` of an array of g).
At g = 0 everything collapses to the Euclidean geometry of the input
metric; as |g| -> 2 the unit body stretches toward a cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import AxisSingular, ConeLimit, DegenerateVector, OutOfRange

__all__ = [
    "COLLINEAR_TOL",
    "Gram",
    "Param",
    "Space",
    "ScalarForms",
    "make_param",
    "scalar_forms",
    "fmf",
]


@dataclass(frozen=True)
class Param:
    """Characteristic parameter g with its derived constants.

    h = sqrt(1 - g^2/4), G = g/h, and the two conjugate root pairs
    g_plus/g_minus (roots of the characteristic form in -Z/q) and
    g_up_plus/g_up_minus (their mirror under g -> -g).

    Every field is a float for a float g. For an array of g every field is
    an array of g's shape, one entry per row, and broadcasts with the rows
    of a stack of vectors: R of shape (..., N) with g of shape R.shape[:-1]
    evaluates row i at g[i].

    G_max, the largest |G| over the rows, is a float that the cone-limit
    checks compare before they look at any angle; it is no field.
    """

    g: Union[float, np.ndarray]
    h: Union[float, np.ndarray]
    G: Union[float, np.ndarray]
    g_plus: Union[float, np.ndarray]
    g_minus: Union[float, np.ndarray]
    g_up_plus: Union[float, np.ndarray]
    g_up_minus: Union[float, np.ndarray]

    def mirrored(self) -> "Param":
        """The parameter set for -g, built from these fields: g -> -g swaps
        the root pairs, so it equals make_param(-g) bit for bit and keeps a
        replaced h. Built on the first call and paired both ways:
        p.mirrored().mirrored() is p."""
        if self._mirror is None:
            m = Param(-self.g, self.h, -self.G, self.g_up_plus, self.g_up_minus,
                      self.g_plus, self.g_minus)
            object.__setattr__(m, "_mirror", self)
            object.__setattr__(self, "_mirror", m)
        return self._mirror

    def __post_init__(self):
        # plain attributes: dataclasses.replace sets them anew, and unlike a
        # cached_property they leave the instance __dict__ unfilled, which
        # keeps every attribute read of the Param fast (a filled one costs
        # about 35 ns more a read on CPython 3.11)
        object.__setattr__(self, "_mirror", None)
        G = self.G
        object.__setattr__(self, "G_max", abs(G) if isinstance(G, float)
                           else float(np.max(np.abs(G), initial=0.0)))


def make_param(g: Union[float, np.ndarray]) -> Param:
    """Build a Param from the characteristic parameter g in (-2, 2): a float,
    or an array of g for per-row parameters. Every entry must be finite with
    |g| < 2."""
    ga = np.array(g, dtype=float)
    if np.count_nonzero(~(np.abs(ga) < 2.0)):  # NaN fails the test too
        raise OutOfRange(f"characteristic parameter must satisfy |g| < 2, got {g}")
    # the product of the two factors: 1 - g^2/4 cancels as |g| -> 2
    h = np.sqrt((1.0 - 0.5 * ga) * (1.0 + 0.5 * ga))
    if ga.ndim == 0:
        ga, h = float(ga), float(h)
    return Param(
        g=ga,
        h=h,
        G=ga / h,
        g_plus=0.5 * ga + h,
        g_minus=0.5 * ga - h,
        g_up_plus=-0.5 * ga + h,
        g_up_minus=-0.5 * ga - h,
    )


def any_row(mask) -> bool:
    """Whether a row mask holds on some row. The mask of one vector at a
    float g is a bool, read as it is: np.count_nonzero would first make it
    an array."""
    return mask if isinstance(mask, bool) else bool(np.count_nonzero(mask))


class _Memo:
    """The last few successful evaluations of a function on one input,
    newest first: the memo of scalar_forms, Space.gram, the Cartan tensors
    and n2. An entry is keyed by two objects, compared by identity (None
    in place of an unused one), and the bytes of the input arrays, a bytes
    object or a tuple of them. It holds its objects, so they live as long
    as it does.

    The entries are one tuple, rebound in one assignment and never changed
    in place, so a concurrent call can at worst miss. A caller looks up one
    input only, as keying a stack would copy it, and stores a result only
    after its evaluation succeeded, so an input that raises is not kept. A
    stored result is shared by every hit: it holds floats or read-only
    arrays."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int):
        self.size = size
        self.entries: tuple = ()

    def get(self, a, b, data):
        """The result stored for the objects a, b and data, or None."""
        for entry in self.entries:
            if entry[0] is a and entry[1] is b and entry[2] == data:
                return entry[3]
        return None

    def put(self, a, b, data, result) -> None:
        """Store result as the newest entry, and drop the oldest past size."""
        self.entries = ((a, b, data, result),) + self.entries[:self.size - 1]


# J = exp(G a / 2) at an angle a in [-pi/2, pi/2]: J^k and J^-k are normal
# doubles while |k G a / 2| <= 1022 ln 2. Only k |G| > (4/pi) 1022 ln 2 ~ 902,
# for J itself 2 - |g| < 5e-6, can leave that range. The tensors' bound of
# require_tensor_range can be reached only above half that.
_CONE_EXP_LIMIT = 1022 * math.log(2.0)
_CONE_G = _CONE_EXP_LIMIT / (0.25 * math.pi)
_TENSOR_CONE_G = 0.5 * _CONE_G


def _cone_limit(power: int) -> ConeLimit:
    return ConeLimit(f"cone limit: |g| is so near 2 that J = exp(G Phi / 2) to the "
                     f"power {power} leaves the double range")


def half_G_angle(p: Param, a, power: int = 1):
    """G a / 2, the exponent of J = exp(G a / 2) at an angle a (a float or
    an array of angles) in [-pi/2, pi/2]. Raises ConeLimit where J^power or
    J^-power would leave the normal doubles; while power |G| <= ~902 that
    takes one comparison."""
    x = 0.5 * p.G * a
    if power * p.G_max > _CONE_G and any_row(abs(power * x) > _CONE_EXP_LIMIT):
        raise _cone_limit(power)
    return x


def require_tensor_range(p: Param, f: "ScalarForms", power: int) -> None:
    """Raise ConeLimit where a tensor built on J^power (power <= 4) at the
    forms f would leave the normal doubles. Its rational factors in R carry
    up to G^2 per power of J (1/B <= 2 / ((1 - |g|/2) |R|^2) ~ G^2 / |R|^2,
    and curvature_S forms J^4 G^8), so the bound is on
    power (|G Phi / 2| + 2 ln |G|). While power |G| <= ~451 that takes one
    comparison: below it the bound cannot be reached."""
    if power * p.G_max > _TENSOR_CONE_G and any_row(
            power * (abs(0.5 * p.G * f.Phi) + 2.0 * math.log(p.G_max)) > _CONE_EXP_LIMIT):
        raise _cone_limit(power)


def require_off_axis(p: Param, q, what: str) -> None:
    """Raise AxisSingular when a row with g != 0 lies on the axis: its
    spatial norm q (q of R, or m of an image point t) is 0."""
    if any_row((q == 0.0) & (p.g != 0.0)):
        raise AxisSingular(f"{what} undefined on the axis (q = 0) for g != 0")


def g_zero_rows(p: Param, q):
    """The g = 0 rows of a tensor builder: (z, q). z is False when no row has
    g = 0, else p.g == 0.0: a bool for a float g, a row mask for per-row g.
    The builder runs its one formula on every row and ends in write_rows,
    which sets the g = 0 rows to their exact value. q is the spatial norm
    for the formula's 1/q terms: its axis rows, which have g = 0 once the
    axis check has passed, read 1, so they stay finite until write_rows sets
    them."""
    z = p.g == 0.0
    if not any_row(z):
        return False, q
    return z, (q or 1.0) if isinstance(q, float) else np.where(q == 0.0, 1.0, q)


def write_rows(z, R: np.ndarray, out: np.ndarray, value) -> None:
    """Write value on the rows of out where the z of g_zero_rows holds, and
    nothing when z is False: one vector, a float-g stack and a row mask
    alike."""
    if z is not False:
        out[np.broadcast_to(z, R.shape[:-1])] = value


def diagonal(a: np.ndarray, n: int) -> np.ndarray:
    """A writable view of the first n diagonal entries of the last two axes
    of a C-contiguous array a of shape (..., N, N), such as one from np.empty
    or a product with order="C": adding to it adds c delta_pq to a block of a
    without building an identity matrix. Any other layout raises ValueError,
    since its reshape would be a copy and the addition would be lost."""
    if not a.flags.c_contiguous:
        raise ValueError("diagonal needs a C-contiguous array")
    N = a.shape[-1]
    return a.reshape(a.shape[:-2] + (N * N,))[..., :n * (N + 1):N + 1]


def check_finite(x, what: str):
    """x, a float or an array, once it is finite in every entry (ValueError
    otherwise): the check of a caller's scalars (arc lengths, an angle) that
    check_vector makes of a vector."""
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError(f"{what} must be finite")
    return x


def per_row(x, k: int = 1):
    """A per-row scalar with k trailing axes, so that it broadcasts over the
    components of each row of a stack; a float stays a float."""
    return x[(...,) + (None,) * k] if isinstance(x, np.ndarray) else x


# Veltkamp's splitter 2^27 + 1. _SPLIT * a overflows for |a| above about
# 1.3e300, so a caller scales its factors below _SPLIT_MAX by powers of two.
_SPLIT = 134217729.0
_SPLIT_MAX = 2.0 ** 996


def two_product(a, b, b_split=None):
    """Dekker's two-product, elementwise: hi = fl(a b) and lo with
    hi + lo = a b exactly, barring underflow (Dekker 1971), from Veltkamp's
    split of each factor into two halves of at most 26 bits. A caller with a
    constant b may pass its split (bhi, blo)."""
    hi = a * b
    ahi, alo = split(a)
    bhi, blo = split(b) if b_split is None else b_split
    return hi, ((ahi * bhi - hi) + ahi * blo + alo * bhi) + alo * blo


def split(a):
    """Veltkamp's split, elementwise: ahi + alo = a exactly, for |a| < _SPLIT_MAX."""
    c = _SPLIT * a
    ahi = c - (c - a)
    return ahi, a - ahi


def axial(R: np.ndarray) -> Union[float, np.ndarray]:
    """The axial component Z of a checked vector (a float) or of every row
    of a stack (an array of shape R.shape[:-1])."""
    return float(R[-1]) if R.ndim == 1 else R[..., -1]


# The one collinearity threshold of the pair code, on u / sqrt(a11 a22), the
# sine of the pair's angle. The residual of Space.gram carries a few eps |y|
# of rounding, so a pair at or below 1e-14 spans no plane at working precision.
COLLINEAR_TOL = 1e-14


class Gram(NamedTuple):
    """Pair geometry of nonzero x, y from Space.gram: the products a11, a22,
    a12, the residual perp = y - (a12/a11) x (formed from the exact
    y - lam x, lam = a12/a11 rounded, near (anti)parallel pairs), the Gram root
    u = |x| |perp|, the angle atan2(u, a12) in [0, pi] and u / sqrt(a11 a22) <= COLLINEAR_TOL.
    Taking u from the residual, not from a11 a22 - a12^2, keeps u and the
    angle accurate near 0 and pi (Kahan 2006). d1 = (a11 y - a12 x) / u and
    d2 = (a22 x - a12 y) / u: (x.d1) = (d2.y) = 0, (d1.y) = (x.d2) = u.

    coefficients holds (c1, c2, c3) = (a11/u, u/a11, a12/u), so that
    d1 = c1 perp and d2 = c2 x - c3 perp; the d1 and d2 properties build
    these vectors anew on every read. They are kept for difference_gradients,
    which returns both. The pair constructions of twovector, angle and
    geodesic read neither: they take d1 and d2 only through coefficients,
    as scalars on x, y and perp.

    For one pair the scalar fields are Python floats and collinear a bool;
    for stacked pairs they are arrays over the rows, and x, y, perp, d1 and
    d2 have the pairs' shape (..., N)."""

    x: np.ndarray
    y: np.ndarray
    perp: np.ndarray
    a11: Union[float, np.ndarray]
    a22: Union[float, np.ndarray]
    a12: Union[float, np.ndarray]
    u: Union[float, np.ndarray]
    angle: Union[float, np.ndarray]
    collinear: Union[bool, np.ndarray]

    @property
    def coefficients(self) -> tuple:
        return self.a11 / self.u, self.u / self.a11, self.a12 / self.u

    @property
    def d1(self) -> np.ndarray:
        return per_row(self.coefficients[0]) * self.perp

    @property
    def d2(self) -> np.ndarray:
        _, c2, c3 = self.coefficients
        return per_row(c2) * self.x - per_row(c3) * self.perp


# The Gram fields past x and y of the last one-pair evaluation of Space.gram,
# keyed by the Space and the bytes of x and y. One entry: the pair
# functions called on one pair (connect, n2, covector_pair,
# parallelogram_exact on the same image pair) come one after another, so a
# second entry catches no more repeats.
_gram_memo = _Memo(1)


class Space:
    """Dimension N plus the spatial metric matrix r_ab ((N-1) x (N-1)).

    The full background tensor r_pq extends r_ab by a unit axial slot
    (r_NN = 1, r_Na = 0). The matrix must be symmetric positive definite.
    Its inverse, determinant and frames are set here once, as plain
    write-protected attributes: unlike a cached_property they leave the
    instance __dict__ unfilled, which keeps every attribute read fast.
    """

    def __init__(self, dim: int, r_spatial: Optional[np.ndarray] = None):
        dim = int(dim)
        if dim < 2:
            raise ValueError(f"dimension must be >= 2, got {dim}")
        if r_spatial is None:
            r_spatial = np.eye(dim - 1)
        r_spatial = np.array(r_spatial, dtype=float)  # own copy: frozen below
        if r_spatial.shape != (dim - 1, dim - 1):
            raise ValueError(
                f"spatial metric must be {(dim - 1, dim - 1)}, got {r_spatial.shape}"
            )
        if not np.all(np.isfinite(r_spatial)):
            raise ValueError("spatial metric must be finite")
        # asymmetry at rounding level of the largest entry, at any scale of r
        scale = np.max(np.abs(r_spatial))
        if not np.allclose(r_spatial, r_spatial.T, rtol=0, atol=1e-12 * scale):
            raise ValueError("spatial metric must be symmetric")
        if np.any(np.linalg.eigvalsh(r_spatial) <= 0):
            raise ValueError("spatial metric must be positive definite")
        inv = np.linalg.inv(r_spatial)
        self._fill(r_spatial, 0.5 * (inv + inv.T))

    def _fill(self, r_spatial: np.ndarray, inv: np.ndarray) -> None:
        """Set the matrices from the checked spatial metric and its inverse."""
        dim = len(r_spatial) + 1
        r_full, r_full_inv = np.zeros((dim, dim)), np.zeros((dim, dim))
        r_full[:-1, :-1], r_full_inv[:-1, :-1] = r_spatial, inv
        r_full[-1, -1] = r_full_inv[-1, -1] = 1.0
        chol = np.linalg.cholesky(r_full)
        self.dim = dim
        self.r_spatial = r_spatial
        self.r_spatial_inv = inv
        self.r_spatial_det = float(np.linalg.det(r_spatial))
        self.r_full = r_full
        self.r_full_inv = r_full_inv
        # Cholesky-derived orthonormal frame, frame[P, q] with
        # sum_P frame[P, p] frame[P, q] = r_pq, and its dual frame with
        # sum_P inv[P, p] inv[P, q] = r^pq
        self.base_frame = chol.T
        self.base_frame_inv = np.linalg.inv(chol)
        for a in (r_spatial, inv, r_full, r_full_inv, self.base_frame, self.base_frame_inv):
            a.setflags(write=False)
        # row a of the spatial frame U = base_frame[:-1, :-1] from its diagonal
        # on, U_ab for b >= a, as Python floats (U_aa, [U_ab for b > a]):
        # U^T U = r_ab
        U = self.base_frame[:-1, :-1].tolist()
        self._frame_rows = [(row[a], row[a + 1:]) for a, row in enumerate(U)]
        self._dual: Optional[Space] = None

    @staticmethod
    def euclidean(dim: int) -> "Space":
        """The Euclidean space of dimension dim: one shared instance per
        int(dim). Sharing is safe, since its matrices are write-protected
        and its dual is deterministic."""
        return _euclidean(int(dim))

    def dual(self) -> "Space":
        """Space whose spatial metric is the inverse matrix (covector side),
        with this space's metric as its inverse, exactly. Built on the first
        call and paired both ways: sp.dual().dual() is sp."""
        if self._dual is None:
            d = Space.__new__(Space)
            d._fill(self.r_spatial_inv, self.r_spatial)
            d._dual, self._dual = self, d
        return self._dual

    def lower(self, x: np.ndarray) -> np.ndarray:
        """r_pq x^q of one vector (N,) or of every row of a stack (..., N):
        the one product of a vector with the background metric. np.matvec
        sums each row as it sums one vector, where a stacked @ runs through
        BLAS gemm, whose sums differ in the last bit."""
        return np.matvec(self.r_full, x)

    def dot(self, x: np.ndarray, y: np.ndarray) -> Union[float, np.ndarray]:
        """Full background product r_pq x^p y^q of one pair (N,), a float,
        or of every row of stacked pairs (..., N), an array over the rows."""
        d = np.vecdot(self.lower(x), y)
        return float(d) if d.ndim == 0 else d

    def norm(self, x: np.ndarray) -> Union[float, np.ndarray]:
        """sqrt(r_pq x^p x^q) of one vector or of every row of a stack, as dot."""
        n = np.sqrt(np.maximum(self.dot(x, x), 0.0))
        return float(n) if n.ndim == 0 else n

    def gram(self, x: np.ndarray, y: np.ndarray) -> Gram:
        """The pair kernel: every angle and Gram root of two vectors in the
        package comes from here. Takes one pair, shape (N,), or pairs
        stacked along leading axes, (..., N), each row on its own: the
        residual branch and COLLINEAR_TOL apply row by row. x and y are
        checked as check_vector does, and a row of x or y at zero raises
        DegenerateVector.

        One pair is looked up first in the record of the last one-pair
        evaluation, keyed by this Space by identity and the bytes of x and
        y; a hit returns the stored record with the caller's x and y and
        skips the checks, which that pair has passed. The stored perp is
        read-only. Stacks are evaluated every time, and only a successful
        evaluation is kept."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        key = None
        if x.ndim == 1 and y.ndim == 1:
            key = x.tobytes(), y.tobytes()
            stored = _gram_memo.get(self, None, key)
            if stored is not None:
                return Gram(x, y, *stored)
        x, y = self.check_vector(x), self.check_vector(y)
        rx = self.lower(x)
        a11, a12, a22 = np.vecdot(rx, x), np.vecdot(rx, y), np.vecdot(self.lower(y), y)
        if a12.ndim:
            m = np
        else:  # one pair: Python floats, and math for its scalar steps
            m, a11, a12, a22 = math, float(a11), float(a12), float(a22)
        if any_row((a11 == 0.0) | (a22 == 0.0)):
            raise DegenerateVector("pair geometry needs two nonzero vectors")
        s, c = y, a12 / a11
        near = 16.0 * c * a12 >= 15.0 * a22  # 16 a12^2 >= 15 a11 a22
        if any_row(near):
            # within about 15 degrees of (anti)parallel y - (a12/a11) x
            # cancels. lam x = hi + lo exactly for lam = a12/a11 rounded, and
            # y - hi is exact for y near lam x, so s = (y - hi) - lo is
            # y - lam x in one rounding and s - (r x.s / a11) x the same
            # residual without the cancellation. lam is 0 on the other rows,
            # where s = y and r x.s = a12 bit for bit. lam can leave the range
            # of the split (|y| / |x| above about 1e300; x cannot, as a11 is
            # finite), so it is scaled by 2^-64 there and x by 2^64
            lam = c if m is math else np.where(near, c, 0.0)
            k = per_row(2.0 ** (64 * (abs(lam) >= _SPLIT_MAX)))
            hi, lo = two_product(per_row(lam) / k, x * k)
            s = (y - hi) - lo
            c = np.vecdot(rx, s) / a11
        perp = s - per_row(c) * x
        # |perp|^2 as a sum of squares in the orthonormal frame: never below 0.
        # u, the branch test above and the collinear test are products that
        # stay finite while |x| |y| does, not only while |x|^2 |y|^2 does
        w = np.matvec(self.base_frame, perp)
        u = m.sqrt(a11) * m.sqrt(np.vecdot(w, w))
        pair = Gram(x, y, perp, a11, a22, a12, u, m.atan2(u, a12),
                    u <= COLLINEAR_TOL * (m.sqrt(a11) * m.sqrt(a22)))
        if key is not None:
            perp.setflags(write=False)  # shared by every hit
            _gram_memo.put(self, None, key, pair[2:])
        return pair

    def spatial_norm(self, R: np.ndarray) -> Union[float, np.ndarray]:
        """q = sqrt(r_ab R^a R^b) of the spatial part, over the leading axes
        of R: a float for one vector, an array of shape R.shape[:-1] for a
        stack of them. R is checked as check_vector checks it.

        q^2 is a sum of squares in the frame of the Cholesky factor U of r_ab,
        w_a = sum_{b >= a} U_ab R^b and q^2 = sum_a w_a^2, summed in that fixed
        order by elementwise products and sums: on the Python floats of one
        vector and on the columns of a stack alike, so that each row of a
        stack gets the bits of its one-vector q. It is never below 0."""
        R = self.check_vector(R)
        x = R[:-1].tolist() if R.ndim == 1 else [R[..., b] for b in range(self.dim - 1)]
        q2 = 0.0
        for a, (diagonal, rest) in enumerate(self._frame_rows):
            w = diagonal * x[a]
            for u, xb in zip(rest, x[a + 1:]):
                w += u * xb
            q2 += w * w
        return math.sqrt(q2) if R.ndim == 1 else np.sqrt(q2)

    def check_vector(self, R: np.ndarray) -> np.ndarray:
        """R as a float array of shape (..., N): one vector, or vectors
        stacked along leading axes. Every entry must be finite."""
        R = np.asarray(R, dtype=float)
        if R.shape[-1:] != (self.dim,):
            raise ValueError(f"expected vectors of length {self.dim}, got shape {R.shape}")
        if np.count_nonzero(np.isfinite(R)) < R.size:
            raise ValueError("vector has non-finite components")
        return R

    def __repr__(self) -> str:  # pragma: no cover
        return f"Space(dim={self.dim})"


@lru_cache(maxsize=None)
def _euclidean(dim: int) -> Space:
    return Space(dim, np.eye(dim - 1))


def space_for(t: np.ndarray, space: Optional[Space]) -> Space:
    """space, or the Euclidean space of the last axis of t (one vector or
    a stack) when it is None."""
    return space if space is not None else Space.euclidean(np.shape(t)[-1])


def checked_pair(t1: np.ndarray, t2: np.ndarray,
                 space: Optional[Space]) -> Tuple[Space, Gram]:
    """space_for(t1, space) and the Space.gram data of t1, t2, which
    Space.gram checks: one pair (N,) or stacked pairs (..., N), broadcast
    as Space.gram takes them. Gram.x and Gram.y hold the float arrays of t1
    and t2."""
    sp = space_for(t1, space)
    return sp, sp.gram(t1, t2)


class ScalarForms(NamedTuple):
    """Characteristic scalars of a vector, or of every row of a stack.

    q   spatial norm of R
    B   characteristic quadratic form Z^2 + g q Z + q^2 (always > 0)
    A   axial combination Z + g q / 2
    L   spatial combination q + g Z / 2
    Phi angular argument atan2(A, h q) in [-pi/2, pi/2]
    J   exponential factor exp(G Phi / 2)
    K   metric function value sqrt(B) J

    Each field is a float for one vector, shape (N,), and an array of
    shape R.shape[:-1] for a stack (..., N).
    """

    q: Union[float, np.ndarray]
    B: Union[float, np.ndarray]
    A: Union[float, np.ndarray]
    L: Union[float, np.ndarray]
    Phi: Union[float, np.ndarray]
    J: Union[float, np.ndarray]
    K: Union[float, np.ndarray]


# The forms of the last one-vector evaluations at a float g, keyed by p, sp
# and the bytes of R. One entry for each vector of a pair: the one-vector
# calls on a vector and its costate, or on the two ends of an angle,
# alternate between the two. Four or eight entries catch no more repeats.
_forms_memo = _Memo(2)


def scalar_forms(p: Param, sp: Space, R: np.ndarray) -> ScalarForms:
    """All characteristic scalars of one nonzero vector (N,), or of every
    row of a stack (..., N). The whole stack is checked: a non-finite entry
    or a wrong last axis raises ValueError, a row at the origin
    DegenerateVector.

    One vector takes a float g (an array of g raises ValueError) and is
    looked up first among the last two such evaluations, keyed by p and sp
    by identity and the bytes of R; its fields are Python floats, so the
    shared result cannot change. A stack is evaluated every time, and only
    a successful evaluation is kept."""
    R = np.asarray(R, dtype=float)
    key = None
    if R.ndim == 1:
        if not isinstance(p.g, float):
            raise ValueError(f"one vector of shape {R.shape} needs one g, got g of "
                             f"shape {np.shape(p.g)}: stack the vector to give it per-row g")
        key = R.tobytes()
        stored = _forms_memo.get(p, sp, key)
        if stored is not None:
            return stored
    one = R.ndim == 1
    q = sp.spatial_norm(R)  # checks R
    Z = axial(R)
    if any_row((q == 0.0) & (Z == 0.0)):
        raise DegenerateVector("scalar forms are undefined at the origin")
    g = p.g
    B = Z * Z + g * q * Z + q * q
    A = Z + 0.5 * g * q
    L = q + 0.5 * g * Z
    # branch-free: agrees with the +-pi/2 split, is continuous across Z = 0
    # at fixed q, and on the axis atan2(Z, +0) = +-pi/2
    Phi = np.arctan2(A, p.h * q)
    J = np.exp(half_G_angle(p, Phi))
    K = np.sqrt(B) * J
    if one:
        Phi, J, K = float(Phi), float(J), float(K)
    f = ScalarForms(q, B, A, L, Phi, J, K)
    if key is not None:
        _forms_memo.put(p, sp, key, f)
    return f


def fmf(p: Param, sp: Space, R: np.ndarray) -> Union[float, np.ndarray]:
    """Finsleroid metric function K(g; R), the anisotropic norm of R:
    scalar_forms(p, sp, R).K, a float for one vector of shape (N,) and an
    array of shape R.shape[:-1] for a stack (..., N)."""
    return scalar_forms(p, sp, R).K
