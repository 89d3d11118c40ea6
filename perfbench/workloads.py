"""The benchmark's four workloads.

Each workload is a list of inputs made from the seed, one op that runs the
same sequence of library or CLI calls on any input, and a check of that
op's outputs against the independent reference. A pass runs every input
once. A call that raises is recorded in the op's outputs and the op runs
its remaining calls, so a pass does the same work whether or not a fault
fires.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import finsleroid as fd
from finsleroid import cli

import reference as ref

# One (name, residual, tolerance) per checked property.
Item = Tuple[str, float, float]


@dataclass
class Workload:
    name: str
    inputs: list
    run: Callable[[object], dict]
    check: Callable[[object, dict], List[Item]]


@dataclass(frozen=True)
class Vec:
    g: float
    p: fd.Param
    sp: fd.Space
    r: np.ndarray
    R: np.ndarray
    fault: Optional[str] = None


@dataclass(frozen=True)
class Pair:
    g: float
    p: fd.Param
    sp: fd.Space
    R: np.ndarray
    S: np.ndarray
    fault: Optional[str] = None


@dataclass(frozen=True)
class Command:
    argv: Tuple[Tuple[str, ...], ...]   # one cli.main call each
    files: Tuple[Path, ...]             # outputs the commands write
    config: dict                        # inputs the check needs
    fault: Optional[str] = None


def _call(out: dict, key: str, fn, *args):
    """Run one call of an op; a raised error is recorded, not propagated."""
    try:
        out[key] = value = fn(*args)
        return value
    except Exception as exc:  # counted as a failed op by the check
        out[key] = exc
        return None


def outcome(out: dict) -> Tuple[tuple, int]:
    """(digest, bytes written) of an op. Every pass of one input must give
    the digest of the checked pass: the calls that raised, the exit codes,
    standard output and the bytes of every file written."""
    raised = tuple(k for k, v in out.items() if isinstance(v, Exception))
    stdout = out.get("stdout", ())
    nbytes = sum(len(s.encode()) for s in stdout)
    digest = hashlib.blake2b()
    for path in out.get("files", ()):
        data = path.read_bytes()
        nbytes += len(data)
        digest.update(data)
    return (raised, out.get("rc"), stdout, digest.hexdigest()), nbytes


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def _abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _raised(out: dict) -> List[Item]:
    return [(f"{k} raised {type(v).__name__}: {v}", math.inf, 0.0)
            for k, v in out.items() if isinstance(v, Exception)]


def _spd(rng, m: int) -> np.ndarray:
    a = rng.normal(size=(m, m))
    r = a @ a.T / m + 0.5 * np.eye(m)
    return 0.5 * (r + r.T)


def _vector(rng, r: np.ndarray, min_ratio: float) -> np.ndarray:
    """A vector of norm > 0.3 whose spatial part is at least min_ratio of it."""
    while True:
        R = rng.normal(size=len(r) + 1)
        n = float(np.linalg.norm(R))
        if n > 0.3 and ref.forms(0.0, r, R)[0] > min_ratio * n:
            return R


def _endpoints(rng, g: float, r: np.ndarray, lo: float, hi: float):
    """Two generic vectors whose reference angle lies in [lo, hi]."""
    while True:
        R, S = _vector(rng, r, 0.2), _vector(rng, r, 0.2)
        if lo <= float(ref.pair(g, r, R, S)[0]) <= hi:
            return R, S


def _nums(x) -> str:
    return ",".join(repr(float(v)) for v in np.ravel(x))


# ---------------------------------------------------------------------------
# tensor_field: one vector through the one-vector tensor stack
# ---------------------------------------------------------------------------

# N = 2 is left out: curvature_S returns a noise S* there (see README)
TENSOR_DIMS = (3, 4, 5)
TENSOR_VECTORS = 48
# a fixed share of each pass: 1 in 8 near the axis, 1 in 8 on the equator
TENSOR_KINDS = ("axis", "equator", "generic", "generic",
                "generic", "generic", "generic", "generic")


def tensor_field_inputs(rng) -> list:
    spaces = []
    for dim in TENSOR_DIMS:
        spaces.append(fd.Space(dim))
        spaces.append(fd.Space(dim, _spd(rng, dim - 1)))
    inputs = []
    for i in range(TENSOR_VECTORS):
        sp = spaces[(i // len(TENSOR_KINDS)) % len(spaces)]
        kind = TENSOR_KINDS[i % len(TENSOR_KINDS)]
        r = np.array(sp.r_spatial)
        g = float(rng.uniform(-1.9, 1.9))
        R = _vector(rng, r, 0.05)
        if kind == "axis":
            # spatial part 1e-6 .. 1e-3 of the axial one
            R[-1] = math.copysign(max(abs(R[-1]), 0.3), R[-1])
            R[:-1] *= abs(R[-1]) * 10.0 ** rng.uniform(-6, -3) / ref.forms(0.0, r, R)[0]
        elif kind == "equator":
            R[-1] = 0.0
        inputs.append(Vec(g, fd.make_param(g), sp, r, R))
    return inputs


def tensor_field_op(x: Vec) -> dict:
    p, sp, R = x.p, x.sp, x.R
    out = {}
    _call(out, "K", fd.fmf, p, sp, R)
    _call(out, "metric", fd.metric, p, sp, R)
    _call(out, "metric_inverse", fd.metric_inverse, p, sp, R)
    _call(out, "metric_det", fd.metric_det, p, sp, R)
    _call(out, "cartan", fd.cartan, p, sp, R)
    _call(out, "curvature_S", fd.curvature_S, p, sp, R)
    co = _call(out, "to_costate", fd.to_costate, p, sp, R)
    if co is not None:
        _call(out, "fhf", fd.fhf, p, sp, co)
    t = _call(out, "sigma", fd.sigma, p, sp, R)
    _call(out, "sigma_jacobian", fd.sigma_jacobian, p, sp, R)
    if t is not None:
        _call(out, "n_metric", fd.n_metric, p, sp, t)
    return out


def tensor_field_check(x: Vec, out: dict) -> List[Item]:
    bad = _raised(out)
    if bad:
        return bad
    g, r, R, N = x.g, x.r, x.R, len(x.R)
    q, _, _, J, K = ref.forms(g, r, R)
    K2 = K * K
    gm, gi = out["metric"], out["metric_inverse"]
    ct, t, jac = out["cartan"], out["sigma"], out["sigma_jacobian"]
    det_ref = J ** (2 * N) * np.linalg.det(r)
    items = [
        ("K", _rel(out["K"], K), 1e-13),
        ("euler g(R,R) = K^2", _rel(R @ gm @ R, K2), 1e-12),
        ("euler g R = R_p", _rel(gm @ R, out["to_costate"]), 1e-12),
        ("euler R_p R^p = K^2", _rel(out["to_costate"] @ R, K2), 1e-13),
        ("g g^-1 = I", _abs(gm @ gi, np.eye(N)), 1e-11),
        ("det g = J^2N det r", _rel(np.linalg.det(gm), det_ref), 1e-11),
        ("metric_det", _rel(out["metric_det"], det_ref), 1e-13),
        ("K^2 C_p C^p = N^2 g^2 / 4", _rel(K2 * (ct.covector @ ct.vector), N * N * g * g / 4), 1e-12),
        ("1 + S* = h^2", _abs(1.0 + out["curvature_S"].s_star, ref.h_of(g) ** 2), 1e-12),
        ("sigma image", _rel(t, ref.sigma_image(g, r, R)), 1e-13),
        ("|sigma(R)| = K", _rel(ref.K(0.0, r, t), K), 1e-13),
        ("mu(sigma(R)) = R", _rel(fd.mu(x.p, x.sp, t), R), 1e-13),
        ("H(to_costate R) = K", _rel(out["fhf"], K), 1e-12),
        ("sigma jacobian pulls n back to g",
         _rel(jac @ out["n_metric"].low @ jac.T, gm), 1e-11),
    ]
    if q > 0.05 * np.linalg.norm(R):
        # the finite-difference Hessian needs the metric to vary on the
        # scale of |R|, which fails near the axis
        hess = ref.hessian_half_sq(lambda y: ref.K(g, r, y), R)
        items.append(("metric = Hessian of K^2/2", _rel(gm, hess), 3e-5))
    return items


# ---------------------------------------------------------------------------
# geodesic_csv: the CLI geodesic command with 10k samples
# ---------------------------------------------------------------------------

GEODESIC_CONFIGS = 6
GEODESIC_SAMPLES = 10000


def geodesic_csv_inputs(rng, tmp: Path) -> list:
    inputs = []
    for i in range(GEODESIC_CONFIGS):
        g = float(rng.uniform(-1.9, 1.9))
        with_r = i % 3 == 2  # a fixed share of configurations pass --r
        r = _spd(rng, 2) if with_r else np.eye(2)
        R1, R2 = _endpoints(rng, g, r, 0.3, 0.9 * math.pi)
        path = tmp / f"geodesic-{i}.csv"
        argv = ["geodesic", "--g", repr(g), f"--vec={_nums(R1)}", f"--vec2={_nums(R2)}",
                "--samples", str(GEODESIC_SAMPLES), "--out", str(path)]
        if with_r:
            argv += ["--r", _nums(r)]
        inputs.append(Command((tuple(argv),), (path,), {"g": g, "r": r, "R1": R1, "R2": R2}))
    return inputs


def cli_op(x: Command) -> dict:
    stdout, rc = [], []
    for argv in x.argv:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc.append(cli.main(list(argv)))
        stdout.append(buf.getvalue())
    return {"rc": tuple(rc), "stdout": tuple(stdout), "files": x.files}


def _read_csv(path: Path):
    """(comment key/values, rows) of a CSV written by the CLI."""
    meta = {}
    lines = path.read_text().splitlines()
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = float(val)
    body = [line for line in lines if not line.startswith("#")][1:]
    rows = np.array([[float(v) for v in line.split(",")] for line in body])
    return meta, rows


def geodesic_csv_check(x: Command, out: dict) -> List[Item]:
    if out["rc"] != (0,):
        return [(f"geodesic exit code {out['rc']}", math.inf, 0.0)]
    c = x.config
    g, r, R1, R2 = c["g"], c["r"], c["R1"], c["R2"]
    meta, rows = _read_csv(x.files[0])
    s, R, K = rows[:, 0], rows[:, 1:-1], rows[:, -1]
    alpha, _, ominus_sq = ref.pair(g, r, R1, R2)
    K1, K2 = ref.K(g, r, R1), ref.K(g, r, R2)
    a, b = meta["a"], meta["b"]
    return [
        ("rows", abs(len(rows) - GEODESIC_SAMPLES), 0.0),
        ("K column", _rel(K, ref.K(g, r, R)), 1e-13),
        ("K^2 = a^2 + 2bs + s^2", _rel(K * K, a * a + 2 * b * s + s * s), 1e-12),
        ("a = K(R1)", _rel(a, K1), 1e-13),
        ("alpha", _rel(meta["alpha"], alpha), 1e-11),
        ("delta_s^2 = cosine-theorem length", _rel(meta["delta_s"] ** 2, ominus_sq), 1e-11),
        ("b", _rel(b, K1 * (K2 * math.cos(alpha) - K1) / math.sqrt(ominus_sq)), 1e-10),
        ("first row = R1", _rel(R[0], R1), 1e-13),
        ("last row = R2", _rel(R[-1], R2), 1e-12),
    ]


# ---------------------------------------------------------------------------
# pair_geometry: angle, two-vector tensors and the pair solvers
# ---------------------------------------------------------------------------

PAIRS = 127
# A near-coincident pair at fixed inputs, run once in every pass: connect
# raises AntipodalSingular and fins_angle is off its reference by 2.9%.
FAULT_PAIR = (0.4, (1.0, 0.0, 1.0), (1.0, 1e-7, 1.0))


def pair_geometry_inputs(rng) -> list:
    sp = fd.Space.euclidean(3)
    inputs = []
    for _ in range(PAIRS):
        g = float(rng.uniform(-1.9, 1.9))
        R, S = _endpoints(rng, g, np.eye(2), 0.3, 0.8 * math.pi)
        inputs.append(Pair(g, fd.make_param(g), sp, R, S))
    g, R, S = FAULT_PAIR
    inputs.append(Pair(g, fd.make_param(g), sp, np.array(R), np.array(S),
                       fault="near-coincident pair (connect, fins_angle)"))
    return inputs


def pair_geometry_op(x: Pair) -> dict:
    p, sp, R, S = x.p, x.sp, x.R, x.S
    out = {}
    _call(out, "fins_angle", fd.fins_angle, p, sp, R, S)
    _call(out, "g2", fd.g2, p, sp, R, S)
    t1 = _call(out, "sigma_R", fd.sigma, p, sp, R)
    t2 = _call(out, "sigma_S", fd.sigma, p, sp, S)
    if t1 is not None and t2 is not None:
        # image-space calls take the default space=None path
        bd = _call(out, "connect", fd.connect, p, t1, t2)
        if bd is not None:
            _call(out, "mid_arc", fd.qe_geodesic_at, bd, 0.5 * bd.delta_s)
        _call(out, "n2", fd.n2, p, t1, t2)
        _call(out, "covector_pair", fd.covector_pair, p, t1, t2)
        _call(out, "parallelogram_exact", fd.parallelogram_exact, p, t1, t2)
    _call(out, "perpendicular_companion", fd.perpendicular_companion, p, sp, R)
    return out


def pair_geometry_check(x: Pair, out: dict) -> List[Item]:
    g, R, S, I2 = x.g, x.R, x.S, np.eye(2)
    alpha, product, ominus_sq = ref.pair(g, I2, R, S)
    K1, K2 = ref.K(g, I2, R), ref.K(g, I2, S)
    t1, t2 = ref.sigma_image(g, I2, R), ref.sigma_image(g, I2, S)
    items = _raised(out)
    ok = lambda *keys: all(k in out and not isinstance(out[k], Exception) for k in keys)
    if ok("fins_angle"):
        pa = out["fins_angle"]
        items += [("fins_angle alpha", _rel(pa.alpha, alpha), 1e-11),
                  ("scalar product", _abs(pa.scalar_product, product) / (K1 * K2), 1e-12),
                  ("cosine theorem", _abs(pa.ominus_sq, ominus_sq) / (K1 * K1 + K2 * K2), 1e-12)]
    if ok("g2"):
        hess = ref.mixed_hessian(lambda a, b: ref.scalar_product(g, I2, a, b), R, S)
        items.append(("g2 = mixed Hessian of the scalar product", _rel(out["g2"], hess), 3e-5))
    if ok("sigma_R", "sigma_S"):
        items += [("sigma images", max(_rel(out["sigma_R"], t1), _rel(out["sigma_S"], t2)), 1e-13)]
    if ok("connect"):
        bd = out["connect"]
        items += [("connect alpha", _rel(bd.alpha, alpha), 1e-11),
                  ("delta_s^2 = cosine-theorem length", _rel(bd.delta_s ** 2, ominus_sq), 1e-11)]
    if ok("connect", "mid_arc"):
        bd, mid = out["connect"], out["mid_arc"][0]
        ds = bd.delta_s
        items += [("mid-arc norm law", _rel(mid @ mid, K1 * K1 + bd.b * ds + 0.25 * ds * ds), 1e-12),
                  ("mid-arc angles add",
                   _abs(ref.image_angle(g, I2, t1, mid) + ref.image_angle(g, I2, mid, t2), alpha), 1e-11)]
    if ok("n2"):
        hess = ref.mixed_hessian(lambda a, b: ref.image_scalar_product(g, I2, a, b), t1, t2)
        items.append(("n2 = mixed Hessian of the image scalar product",
                      _rel(out["n2"].components, hess), 3e-5))
    if ok("n2", "covector_pair"):
        n2c = out["n2"].components
        T1, T2 = out["covector_pair"]
        items.append(("covector pair lowers n2", max(_rel(T1, n2c @ t2), _rel(T2, t1 @ n2c)), 1e-12))
    if ok("parallelogram_exact"):
        t3 = out["parallelogram_exact"]
        n1, n2_, n3 = (float(np.linalg.norm(v)) for v in (t1, t2, t3))
        c13 = math.cos(ref.image_angle(g, I2, t1, t3))
        c23 = math.cos(ref.image_angle(g, I2, t2, t3))
        scale = n1 * n1 + n2_ * n2_
        items.append(("parallelogram cosine laws", max(
            abs(n1 * n1 + n3 * n3 - 2 * n1 * n3 * c13 - n2_ * n2_),
            abs(n2_ * n2_ + n3 * n3 - 2 * n2_ * n3 * c23 - n1 * n1)) / scale, 1e-10))
    if ok("perpendicular_companion"):
        V = out["perpendicular_companion"]
        items.append(("companion angle = pi/2", _abs(ref.pair(g, I2, R, V)[0], 0.5 * math.pi), 1e-10))
    return items


# ---------------------------------------------------------------------------
# cli_reports: check battery and figure files
# ---------------------------------------------------------------------------

CHECK_SEEDS_PER_PASS = 8
CHECK_SEED_RANGE = 300
# `check --seed k` fails metric_hessian at these k in range(300): its fixed
# difference step of 1e-5 is dominated by rounding for |R| ~ 3 (the library
# is right, the check is wrong). A failure that depends on the drawn k
# cannot be counted the same way in every run, so these k are not drawn.
CHECK_SEEDS_FAILING = (6, 26, 29, 61, 69, 102, 148, 157, 158, 175,
                       177, 200, 206, 213, 223, 247, 262, 267, 273, 298)


def cli_reports_inputs(rng, tmp: Path) -> list:
    pool = [k for k in range(CHECK_SEED_RANGE) if k not in CHECK_SEEDS_FAILING]
    ks = rng.choice(pool, size=CHECK_SEEDS_PER_PASS, replace=False)
    csv_dir, svg_dir = tmp / "figures-csv", tmp / "figures-svg"
    names = [f"indicatrix_g{g:+.1f}" for g in cli.FIGURE_G_VALUES]
    curves = ["equator_radius_curve.csv", "width_height_curve.csv"]
    files = tuple([csv_dir / f"{n}.csv" for n in names] + [csv_dir / c for c in curves]
                  + [svg_dir / f"{n}.svg" for n in names] + [svg_dir / c for c in curves])
    return [Command((("check", "--json", "--seed", str(int(k))),
                     ("figures", "--out", str(csv_dir)),
                     ("figures", "--format", "svg", "--out", str(svg_dir))),
                    files, {"k": int(k)}) for k in ks]


def _svg_points(text: str):
    """(x, z) points of the body polyline of an SVG figure."""
    start = text.index('id="body"')
    pts = text[text.index('points="', start) + 8:]
    pts = pts[:pts.index('"')]
    xy = np.array([[float(v) for v in pair.split(",")] for pair in pts.split()])
    return xy[:, 0], -xy[:, 1]


def cli_reports_check(x: Command, out: dict) -> List[Item]:
    if out["rc"] != (0, 0, 0):
        return [(f"exit codes {out['rc']}", math.inf, 0.0)]
    report = json.loads(out["stdout"][0])
    items = [(f"check {c['name']}", c["residual"], c["tol"]) for c in report["checks"]]
    items.append(("check reports its seed", abs(report["seed"] - x.config["k"]), 0.0))
    listed = set(out["stdout"][1].split() + out["stdout"][2].split())
    items.append(("figures lists its files", len(set(map(str, x.files)) ^ listed), 0.0))
    worst_row = worst_svg = worst_circle = worst_star = 0.0
    for path in x.files:
        if path.suffix == ".svg":
            g = float(path.stem[len("indicatrix_g"):])
            q, Z = _svg_points(path.read_text())
            # coordinates are written with 6 decimals
            worst_svg = max(worst_svg, _abs(ref.unit_level_rows(g, q, Z), 1.0))
            continue
        meta, rows = _read_csv(path)
        if path.stem == "equator_radius_curve":
            for g, q_star in rows:
                worst_star = max(worst_star, _abs(ref.unit_level_rows(g, [q_star], [0.0]), 1.0))
        elif path.stem == "width_height_curve":
            for g, Z_2star in rows:
                q_ref, Z_ref = ref.widest_point(g)
                worst_star = max(worst_star, abs(Z_2star - Z_ref),
                                 _abs(ref.unit_level_rows(g, [q_ref], [Z_2star]), 1.0))
        else:
            worst_row = max(worst_row, _abs(ref.unit_level_rows(meta["g"], rows[:, 1], rows[:, 2]), 1.0))
            worst_circle = max(worst_circle, _abs(np.hypot(rows[:, 3], rows[:, 4]), 1.0))
    items += [("figure rows on K = 1", worst_row, 1e-13),
              ("svg points on K = 1", worst_svg, 1e-5),
              ("circle rows", worst_circle, 1e-15),
              ("q_star, (q_2star, Z_2star) on K = 1", worst_star, 1e-12)]
    return items


def build(name: str, seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng(seed)
    if name == "tensor_field":
        return Workload(name, tensor_field_inputs(rng), tensor_field_op, tensor_field_check)
    if name == "geodesic_csv":
        return Workload(name, geodesic_csv_inputs(rng, tmp), cli_op, geodesic_csv_check)
    if name == "pair_geometry":
        return Workload(name, pair_geometry_inputs(rng), pair_geometry_op, pair_geometry_check)
    if name == "cli_reports":
        return Workload(name, cli_reports_inputs(rng, tmp), cli_op, cli_reports_check)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tensor_field", "geodesic_csv", "pair_geometry", "cli_reports")
