"""Command-line front end.

Subcommands: eval | angle | geodesic | indicatrix | figures | check.
Exit codes: 0 ok, 1 check failure, 2 bad input, 3 geometric singularity,
4 I/O error.

Configuration comes from flags or from a single JSON document
(--config FILE); flags win on conflict. CSV numbers are Python's "%.17g"
(17 significant digits, so they round-trip), written by one exact
vectorised pass over each block of rows (finsleroid.csvtext); identical
configuration produces byte-identical output.

Every file a command writes (--out of eval, angle, geodesic, indicatrix
and check, and the files of figures) goes through _write. An existing
regular file is overwritten in place and trimmed to the new bytes, so it
keeps its inode and mode; a new file gets mode 0o666 less the umask.
As before, the write is neither atomic nor fsynced. Other targets, such as
/dev/null or a pipe, are written without trimming.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import angle as angle_mod
from . import cospace, geodesic, identities, quasieuclid, shape, tensors
from .core import Space, checked_forms, fmf, make_param
from .csvtext import csv_lines
from .errors import FinsleroidError, OutOfRange

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SINGULAR = 3
EXIT_IO = 4

FIGURE_G_VALUES = (0.2, -0.2, 0.4, -0.4, 0.6, -0.6)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"cannot parse number list {text!r}") from exc


def _build_space(dim: Optional[int], r_text: Optional[str],
                 vec: Optional[np.ndarray]) -> Space:
    if dim is None:
        if vec is None:
            raise ValueError("need --dim or --vec to fix the dimension")
        dim = len(vec)
    if r_text:
        vals = _parse_floats(r_text)
        m = dim - 1
        if len(vals) != m * m:
            raise ValueError(f"--r needs {m * m} entries for dimension {dim}")
        return Space(dim, vals.reshape(m, m))
    return Space.euclidean(dim)


def _write(path, text: str) -> None:
    """Write text to the file at path, overwriting it in place: no O_TRUNC,
    whose freeing of the old blocks and allocating them again costs more
    than the write. A regular file is then trimmed to the bytes written,
    also after a failed write, so no tail of the old file is left."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, done)
        finally:
            os.close(fd)


def _emit(path: Optional[str], text: str) -> None:
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _csv(header: List[str], table: np.ndarray,
         comments: Optional[List[str]] = None) -> str:
    """Comment lines, the header and one line per row of the 2-D table, each
    number written as "%.17g" % x, the bytes of _fmt."""
    head = "".join(f"# {c}\n" for c in comments or ()) + ",".join(header) + "\n"
    return head + csv_lines(table)


def _svg(polylines: List[Tuple[str, np.ndarray]]) -> str:
    pts = np.vstack([poly for _, poly in polylines])
    lo = pts.min(axis=0) - 0.1
    hi = pts.max(axis=0) + 0.1
    width, height = hi - lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo[0]:.6f} '
        f'{-hi[1]:.6f} {width:.6f} {height:.6f}">'
    ]
    styles = {"body": 'fill="none" stroke="black" stroke-width="0.01"',
              "circle": 'fill="none" stroke="gray" stroke-width="0.005"'}
    for name, poly in polylines:
        # one %-format pass; z * -1 keeps the sign of -z, -0.0 too
        xz = tuple((poly * (1, -1)).ravel().tolist())
        coords = " ".join(["%.6f,%.6f"] * len(poly)) % xz
        style = styles.get(name, styles["body"])
        parts.append(f'<polyline id="{name}" {style} points="{coords}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    p = make_param(args.g)
    vec = _parse_floats(args.vec)
    sp = _build_space(args.dim, args.r, vec)
    f = checked_forms(p, sp, vec)[1]
    record = {
        "K": f.K,
        "H_dual": cospace.fhf(p, sp, cospace.to_costate(p, sp, vec)),
        "Phi": f.Phi,
        "B": f.B,
        "metric_det": tensors.metric_det(p, sp, vec),
        "indicatrix_curvature": p.h**2,
    }
    if args.json:
        _emit(args.out, json.dumps(record, sort_keys=True) + "\n")
    else:
        _emit(args.out, "".join(f"{k}: {_fmt(v)}\n" for k, v in record.items()))
    return EXIT_OK


def cmd_angle(args) -> int:
    p = make_param(args.g)
    v1 = _parse_floats(args.vec)
    v2 = _parse_floats(args.vec2)
    sp = _build_space(args.dim, args.r, v1)
    pair = angle_mod.fins_angle(p, sp, v1, v2)
    record = {"alpha": pair.alpha, "scalar_product": pair.scalar_product,
              "ominus_sq": pair.ominus_sq, "alpha_max": math.pi / p.h}
    if args.json:
        _emit(args.out, json.dumps(record, sort_keys=True) + "\n")
    else:
        _emit(args.out, "".join(f"{k}: {_fmt(v)}\n" for k, v in record.items()))
    return EXIT_OK


def cmd_geodesic(args) -> int:
    p = make_param(args.g)
    R1 = _parse_floats(args.vec)
    R2 = _parse_floats(args.vec2)
    sp = _build_space(args.dim, args.r, R1)
    bd = geodesic.connect(p, quasieuclid.sigma(p, sp, R1),
                          quasieuclid.sigma(p, sp, R2), space=sp)
    s = np.linspace(0.0, bd.delta_s, max(2, args.samples))
    t, _ = geodesic.qe_geodesic_at(bd, s)
    R = quasieuclid.mu(p, sp, t)
    # K is evaluated at the written R, not taken from the norm law, so the
    # law stays a check of the output
    table = np.column_stack([s, R, fmf(p, sp, R)])
    header = ["s"] + [f"R_{i + 1}" for i in range(sp.dim)] + ["K"]
    comments = [f"a={_fmt(bd.a)}", f"b={_fmt(bd.b)}",
                f"delta_s={_fmt(bd.delta_s)}", f"alpha={_fmt(bd.alpha)}"]
    _emit(args.out, _csv(header, table, comments))
    return EXIT_OK


def cmd_indicatrix(args) -> int:
    p = make_param(args.g)
    n = max(8, args.samples)
    table = np.column_stack([np.linspace(0.0, math.pi, n), shape.indicatrix_profile(p, n)])
    _emit(args.out, _csv(["f", "q", "Z"], table, [f"g={_fmt(args.g)}"]))
    return EXIT_OK


def cmd_figures(args) -> int:
    outdir = Path(args.out or "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    n = max(8, args.samples)
    fs = np.linspace(0.0, math.pi, n)
    circle = np.column_stack([np.sin(fs), np.cos(fs)])
    written = []
    # one profile call for every g: a per-row Param with g of shape (k, 1)
    profiles = shape.indicatrix_profile(make_param(np.array(FIGURE_G_VALUES)[:, None]), n)
    for g, prof in zip(FIGURE_G_VALUES, profiles):
        name = f"indicatrix_g{g:+.1f}"
        if args.format == "svg":
            path = outdir / f"{name}.svg"
            _write(path, _svg([("body", prof), ("circle", circle)]))
        else:
            path = outdir / f"{name}.csv"
            _write(path, _csv(["f", "q", "Z", "circle_q", "circle_Z"],
                              np.column_stack([fs, prof, circle]), [f"g={_fmt(g)}"]))
        written.append(path)
    gs = np.linspace(-1.9, 1.9, 191)
    report = shape.shape_report(make_param(gs))
    path = outdir / "equator_radius_curve.csv"
    _write(path, _csv(["g", "q_star"], np.column_stack([gs, report.q_star])))
    written.append(path)
    path = outdir / "width_height_curve.csv"
    _write(path, _csv(["g", "Z_2star"], np.column_stack([gs, report.Z_2star])))
    written.append(path)
    sys.stdout.write("".join(f"{p}\n" for p in written))
    return EXIT_OK


def cmd_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    tol_over = {}
    for item in args.tol or []:
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"--tol expects KEY=VAL, got {item!r}")
        tol_over[key] = float(val)
    names = [identity.name for identity in identities.IDENTITIES]
    unknown = sorted(set(tol_over) - set(names))
    if unknown:
        raise ValueError(f"--tol names no identity: {', '.join(unknown)}; "
                         f"the identities are {', '.join(names)}")
    results = identities.run_battery(rng, args.inject_fault)
    checks = []
    all_ok = True
    for name, residual, tol in results:
        tol = tol_over.get(name, tol)
        ok = residual <= tol
        all_ok &= ok
        checks.append({"name": name, "residual": residual, "tol": tol,
                       "pass": bool(ok)})
    if args.json:
        report = {"seed": args.seed, "fault_injected": bool(args.inject_fault),
                  "checks": checks, "pass": bool(all_ok)}
        _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"seed: {args.seed}"]
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{c['name']:<22} {c['residual']:.3e}  tol {c['tol']:.1e}  {status}")
        lines.append("overall: " + ("PASS" if all_ok else "FAIL"))
        _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub, *, vec=False, vec2=False, samples=None):
    sub.add_argument("--g", type=float, default=None, help="characteristic parameter")
    sub.add_argument("--dim", type=int, default=None, help="dimension N")
    sub.add_argument("--r", type=str, default=None,
                     help="comma list of the (N-1)^2 spatial metric entries")
    if vec:
        sub.add_argument("--vec", type=str, default=None, help="vector, comma separated")
    if vec2:
        sub.add_argument("--vec2", type=str, default=None, help="second vector")
    if samples is not None:
        sub.add_argument("--samples", type=int, default=None)
        sub.set_defaults(_samples_default=samples)
    sub.add_argument("--format", choices=("csv", "json", "svg"), default=None)
    sub.add_argument("--out", type=str, default=None, help="output path")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--tol", action="append", default=None, metavar="KEY=VAL")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON document with the same keys; flags win")
    sub.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    doc = json.loads(Path(args.config).read_text())
    for key, val in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        cur = getattr(args, attr)
        if cur is None or cur is False:  # flag absent: config value applies
            if attr == "tol" and isinstance(val, dict):
                val = [f"{k}={v}" for k, v in val.items()]
            setattr(args, attr, val)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ValueError, so main returns EXIT_BAD_INPUT
    instead of argparse exiting the process."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


# argparse takes a value that starts with "-" and is not a plain negative
# number, such as "-1,0.2", for an option
_LIST_FLAGS = ("--vec", "--vec2", "--r")
_NUMBER_LIST = re.compile(r"-\.?\d")


def _join_number_lists(argv: Sequence[str]) -> List[str]:
    """Rewrite "--vec -1,0.2" as "--vec=-1,0.2" for every number-list flag."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and _NUMBER_LIST.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args does not change it."""
    ap = _Parser(prog="finsleroid", description="Finsleroid geometry toolkit")
    subs = ap.add_subparsers(dest="command", required=True)
    handlers = {}

    s = subs.add_parser("eval", help="metric function and tensor scalars at a vector")
    _add_common(s, vec=True)
    handlers["eval"] = cmd_eval

    s = subs.add_parser("angle", help="angle and scalar product of two vectors")
    _add_common(s, vec=True, vec2=True)
    handlers["angle"] = cmd_angle

    s = subs.add_parser("geodesic", help="closed-form geodesic samples as CSV")
    _add_common(s, vec=True, vec2=True, samples=50)
    handlers["geodesic"] = cmd_geodesic

    s = subs.add_parser("indicatrix", help="unit-body generatrix as CSV")
    _add_common(s, samples=181)
    handlers["indicatrix"] = cmd_indicatrix

    s = subs.add_parser("figures", help="emit the standard figure data files")
    _add_common(s, samples=361)
    handlers["figures"] = cmd_figures

    s = subs.add_parser("check", help="run the identity suite")
    _add_common(s)
    handlers["check"] = cmd_check

    ap.set_defaults(_handlers=handlers)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_join_number_lists(argv))
        _apply_config(args)
        if args.seed is None:
            args.seed = 0
        if args.format is None:
            args.format = "csv"
        if getattr(args, "samples", "absent") is None:
            args.samples = args._samples_default
        if args.command in ("eval", "angle", "geodesic", "indicatrix") and args.g is None:
            raise ValueError("--g is required")
        if getattr(args, "vec", None) is None and args.command in (
                "eval", "angle", "geodesic"):
            raise ValueError("--vec is required")
        if getattr(args, "vec2", None) is None and args.command in ("angle", "geodesic"):
            raise ValueError("--vec2 is required")
        handler = args._handlers[args.command]
        return handler(args)
    except (OutOfRange, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FinsleroidError as exc:
        print(f"geometric singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
