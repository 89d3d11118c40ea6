"""Command-line front end.

Subcommands: eval | angle | geodesic | indicatrix | figures | check.
Exit codes: 0 ok, 1 check failure, 2 bad input, 3 geometric singularity,
4 I/O error.

Configuration comes from flags or from a single JSON document
(--config FILE); flags win on conflict. Each subcommand accepts only the
flags it reads: any other flag, or config key, is a usage error. CSV
numbers are Python's "%.17g" (17 significant digits, so they round-trip),
written by one exact vectorised pass over each block of rows of a table,
and each block's ASCII bytes go to the file as they are;
figures formats the columns its files share once, in one pass over the
columns of its six body files and one over those of its two curves. The
SVG coordinates of figures are Python's "%.6f", written by one exact
vectorised pass over all the polylines of a call (finsleroid.csvtext). Identical
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
from .core import Space, fmf, make_param, scalar_forms
from .csvtext import csv_lines, csv_tables, points_text
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
    """The Space of --dim and --r. Without --dim the dimension is that of
    vec, else the one whose (N-1)^2 entries --r lists."""
    vals = _parse_floats(r_text) if r_text else None
    if dim is None:
        if vec is not None:
            dim = len(vec)
        elif vals is not None:
            dim = math.isqrt(len(vals)) + 1
            if (dim - 1) ** 2 != len(vals):
                raise ValueError(f"--r needs (N-1)^2 entries, got {len(vals)}")
        else:
            raise ValueError("need --dim or --vec to fix the dimension")
    if vals is not None:
        m = dim - 1
        if len(vals) != m * m:
            raise ValueError(f"--r needs {m * m} entries for dimension {dim}")
        return Space(dim, vals.reshape(m, m))
    return Space.euclidean(dim)


def _write(path, pieces: Sequence[bytes]) -> None:
    """Write the pieces one after the other to the file at path, each as it
    is (the CSV text block by block: no whole-file string is built),
    overwriting the file in place: no O_TRUNC, whose freeing of the old
    blocks and allocating them again costs more than the write. A regular
    file is then trimmed to the bytes written, also after a failed write, so
    no tail of the old file is left."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    done = 0  # the bytes written, over all the pieces
    try:
        for piece in pieces:
            data = memoryview(piece)
            while data:
                n = os.write(fd, data)
                done += n
                data = data[n:]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, done)
        finally:
            os.close(fd)


def _emit(path: Optional[str], pieces: Sequence[bytes]) -> None:
    """Write the pieces to the file at path, or else to standard output,
    one piece at a time."""
    if path:
        _write(path, pieces)
    else:
        for piece in pieces:
            sys.stdout.write(piece.decode())


def _emit_record(args, record: dict) -> int:
    """A record of eval or angle: sorted JSON with --json, else one
    "key: value" line per entry in record order."""
    if args.json:
        text = json.dumps(record, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k}: {_fmt(v)}\n" for k, v in record.items())
    _emit(args.out, [text.encode()])
    return EXIT_OK


def _csv_head(header: List[str], comments: Optional[List[str]] = None) -> bytes:
    """The comment lines and the header line of a CSV file."""
    return ("".join(f"# {c}\n" for c in comments or ()) + ",".join(header) + "\n").encode()


def _csv(header: List[str], table: np.ndarray,
         comments: Optional[List[str]] = None) -> List[bytes]:
    """The pieces of a CSV file: its comment lines and header, then the
    csv_lines blocks of the 2-D table, each number written as "%.17g" % x,
    the bytes of _fmt."""
    return [_csv_head(header, comments), *csv_lines(table)]


def _svg(polylines: List[Tuple[str, np.ndarray, str]]) -> str:
    """The SVG document of (name, (n, 2) points, their points text) polylines,
    the text from _svg_points; the view box spans every point."""
    pts = np.vstack([poly for _, poly, _ in polylines])
    lo = pts.min(axis=0) - 0.1
    hi = pts.max(axis=0) + 0.1
    width, height = hi - lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo[0]:.6f} '
        f'{-hi[1]:.6f} {width:.6f} {height:.6f}">'
    ]
    styles = {"body": 'fill="none" stroke="black" stroke-width="0.01"',
              "circle": 'fill="none" stroke="gray" stroke-width="0.005"'}
    for name, _, coords in polylines:
        style = styles.get(name, styles["body"])
        parts.append(f'<polyline id="{name}" {style} points="{coords}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_points(polylines: List[np.ndarray]) -> List[str]:
    """The SVG points text of each (n, 2) polyline of (q, Z): "%.6f,%.6f" of
    (q, -Z), the SVG y axis pointing down, from one exact pass over all."""
    # z * -1 keeps the sign of -z, -0.0 too
    return points_text([poly * (1, -1) for poly in polylines])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    p = make_param(args.g)
    vec = _parse_floats(args.vec)
    sp = _build_space(args.dim, args.r, vec)
    f = scalar_forms(p, sp, vec)
    record = {
        "K": f.K,
        "H_dual": cospace.fhf(p, sp, cospace.to_costate(p, sp, vec)),
        "Phi": f.Phi,
        "B": f.B,
        "metric_det": tensors.metric_det(p, sp, vec),
        "indicatrix_curvature": p.h**2,
    }
    return _emit_record(args, record)


def cmd_angle(args) -> int:
    p = make_param(args.g)
    v1 = _parse_floats(args.vec)
    v2 = _parse_floats(args.vec2)
    sp = _build_space(args.dim, args.r, v1)
    pair = angle_mod.fins_angle(p, sp, v1, v2)
    record = {"alpha": pair.alpha, "scalar_product": pair.scalar_product,
              "ominus_sq": pair.ominus_sq, "alpha_max": math.pi / p.h}
    return _emit_record(args, record)


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
    if args.format == "svg":
        # the points of the six bodies and of the circle they share
        *bodies, ring = _svg_points([*profiles, circle])
    else:
        # one "%.17g" pass over [f, circle_q, circle_Z, q0, Z0 ... q5, Z5]:
        # each file takes f, its body's (q, Z) and the circle
        bodies = csv_tables(np.column_stack([fs, circle, *profiles]),
                            [(0, 3 + 2 * i, 4 + 2 * i, 1, 2) for i in range(len(profiles))])
    for i, (g, prof) in enumerate(zip(FIGURE_G_VALUES, profiles)):
        name = f"indicatrix_g{g:+.1f}"
        if args.format == "svg":
            path = outdir / f"{name}.svg"
            _write(path, [_svg([("body", prof, bodies[i]), ("circle", circle, ring)]).encode()])
        else:
            path = outdir / f"{name}.csv"
            _write(path, [_csv_head(["f", "q", "Z", "circle_q", "circle_Z"], [f"g={_fmt(g)}"]),
                          *bodies[i]])
        written.append(path)
    gs = np.linspace(-1.9, 1.9, 191)
    report = shape.shape_report(make_param(gs))
    # one "%.17g" pass over [g, q_star, Z_2star] for the two curves
    curves = csv_tables(np.column_stack([gs, report.q_star, report.Z_2star]), [(0, 1), (0, 2)])
    for name, column, blocks in zip(("equator_radius_curve", "width_height_curve"),
                                    ("q_star", "Z_2star"), curves):
        path = outdir / f"{name}.csv"
        _write(path, [_csv_head(["g", column]), *blocks])
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
    # without --dim and --r the table is drawn in Space.euclidean(3)
    sp = (Space.euclidean(3) if args.dim is None and args.r is None
          else _build_space(args.dim, args.r, None))
    results = identities.run_battery(rng, args.inject_fault, sp)
    checks = []
    all_ok = True
    for name, residual, tol in results:
        tol = tol_over.get(name, tol)
        ok = residual <= tol
        all_ok &= ok
        checks.append({"name": name, "residual": residual, "tol": tol,
                       "pass": bool(ok)})
    if args.json:
        report = {"seed": args.seed, "dim": sp.dim, "r": sp.r_spatial.tolist(),
                  "fault_injected": bool(args.inject_fault), "checks": checks,
                  "pass": bool(all_ok)}
        _emit(args.out, [(json.dumps(report, indent=2, sort_keys=True) + "\n").encode()])
    else:
        lines = [f"seed: {args.seed}"]
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{c['name']:<22} {c['residual']:.3e}  tol {c['tol']:.1e}  {status}")
        lines.append("overall: " + ("PASS" if all_ok else "FAIL"))
        _emit(args.out, [("\n".join(lines) + "\n").encode()])
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# Every flag of the CLI. Each subcommand registers only the flags its
# handler reads, so any other flag is a usage error.
_FLAGS = {
    "g": dict(type=float, help="characteristic parameter"),
    "dim": dict(type=int, help="dimension N"),
    "r": dict(type=str, help="comma list of the (N-1)^2 spatial metric entries"),
    "vec": dict(type=str, help="vector, comma separated"),
    "vec2": dict(type=str, help="second vector"),
    "samples": dict(type=int, help="number of samples"),
    "format": dict(choices=("csv", "svg"), help="figure file format (default csv)"),
    "seed": dict(type=int, help="seed of the random sample (default 0)"),
    "tol": dict(action="append", metavar="KEY=VAL", help="tolerance of an identity"),
    "json": dict(action="store_true", help="machine-readable output"),
    "out": dict(type=str, help="output path"),
    "config": dict(type=str, help="JSON document with the same keys; flags win"),
    "inject-fault": dict(action="store_true", help=argparse.SUPPRESS),
}

# name: (handler, help, its flags, the flags it requires, the defaults of
# the flags that neither the command line nor --config set)
_COMMANDS = {
    "eval": (cmd_eval, "metric function and tensor scalars at a vector",
             "g dim r vec json out", "g vec", {}),
    "angle": (cmd_angle, "angle and scalar product of two vectors",
              "g dim r vec vec2 json out", "g vec vec2", {}),
    "geodesic": (cmd_geodesic, "closed-form geodesic samples as CSV",
                 "g dim r vec vec2 samples out", "g vec vec2", {"samples": 50}),
    "indicatrix": (cmd_indicatrix, "unit-body generatrix as CSV",
                   "g samples out", "g", {"samples": 181}),
    "figures": (cmd_figures, "emit the standard figure data files",
                "samples format out", "", {"samples": 361, "format": "csv"}),
    "check": (cmd_check, "run the identity suite",
              "dim r seed tol json out inject-fault", "", {"seed": 0}),
}


def _apply_config(args) -> None:
    """Set every flag that the command line leaves unset from the --config
    document, through the command's parser as if it were given as that
    flag: a value of the wrong type or outside the flag's choices is a
    usage error, as on the command line. A switch takes true or false, a
    tol dict stands for one --tol KEY=VAL per entry, and null leaves the
    flag unset."""
    if not getattr(args, "config", None):
        return
    doc = json.loads(Path(args.config).read_text())
    flags = _COMMANDS[args.command][2].split() + ["config"]
    argv = []
    for key, val in doc.items():
        flag = key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"unknown config key {key!r}")
        cur = getattr(args, flag.replace("-", "_"))
        if not (cur is None or cur is False) or val is None:  # the flag wins
            continue
        action = _FLAGS[flag].get("action")
        if action == "store_true":
            if not isinstance(val, bool):
                raise ValueError(f"config key {key!r} takes true or false, got {val!r}")
            if val:
                argv.append(f"--{flag}")
            continue
        if flag == "tol" and isinstance(val, dict):
            val = [f"{k}={v}" for k, v in val.items()]
        for item in val if action == "append" and isinstance(val, list) else [val]:
            argv.append(f"--{flag}={item if isinstance(item, str) else json.dumps(item)}")
    try:
        args._parser.parse_args(argv, namespace=args)
    except ValueError as exc:
        raise ValueError(f"--config {args.config}: {exc}") from None


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
    for name, (handler, text, flags, required, defaults) in _COMMANDS.items():
        s = subs.add_parser(name, help=text)
        for flag in flags.split() + ["config"]:
            s.add_argument(f"--{flag}", **_FLAGS[flag])
        s.set_defaults(_handler=handler, _required=required.split(), _defaults=defaults,
                       _parser=s)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_join_number_lists(argv))
        _apply_config(args)
        for key, val in args._defaults.items():
            if getattr(args, key) is None:
                setattr(args, key, val)
        for flag in args._required:
            if getattr(args, flag) is None:
                raise ValueError(f"--{flag} is required")
        return args._handler(args)
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
