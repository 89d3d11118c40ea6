import errno
import json
import math
import os
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsleroid import cli
from finsleroid.cli import main
from finsleroid.csvtext import CHUNK_ROWS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_record(text):
    rec = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition(": ")
        rec[key] = float(val)
    return rec


def parse_csv(text):
    comments, header, rows = [], None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


# every double, from its bits: NaN, +-inf, subnormals and every exponent
_FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


# ------------------------------------------------------------------- eval

def test_eval_euclidean(capsys):
    code, out, _ = run(capsys, "eval", "--g", "0", "--vec", "3,4")
    assert code == 0
    rec = parse_record(out)
    assert rec["K"] == 5.0
    assert rec["H_dual"] == pytest.approx(5.0, rel=1e-12)


def test_eval_reports_curvature(capsys):
    code, out, _ = run(capsys, "eval", "--g", "0.6", "--vec", "1,1")
    assert code == 0
    assert "indicatrix_curvature" in out
    assert parse_record(out)["indicatrix_curvature"] == pytest.approx(0.91)


def test_eval_bad_parameter(capsys):
    code, _, err = run(capsys, "eval", "--g", "2.5", "--vec", "1,1")
    assert code == 2
    assert "2" in err or "g" in err


def test_eval_json_and_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 0.4, "vec": "1,1"}))
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["B"] == pytest.approx(2.4)
    # flags win over the config document
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--json", "--g", "0")
    assert json.loads(out)["B"] == pytest.approx(2.0)


def test_eval_17_digit_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "--g", "0.4", "--vec", "0.7,1.3")
    rec = parse_record(out)
    import finsleroid as fd
    p = fd.make_param(0.4)
    sp = fd.Space.euclidean(2)
    assert rec["K"] == fd.fmf(p, sp, np.array([0.7, 1.3]))  # exact round-trip


# ------------------------------------------------------------------ angle

def test_angle_cmd(capsys):
    # vector-space angle: cos(h alpha) = (A1 A2 + h^2 spatial)/sqrt(B1 B2)
    # = 0.2 for this pair at g = 0.4
    code, out, _ = run(capsys, "angle", "--g", "0.4", "--vec", "1,0", "--vec2", "0,1")
    assert code == 0
    rec = parse_record(out)
    assert rec["alpha"] == pytest.approx(math.acos(0.2) / math.sqrt(0.96), abs=1e-12)
    assert rec["alpha_max"] == pytest.approx(math.pi / math.sqrt(0.96), abs=1e-12)


# --------------------------------------------------------------- geodesic

def test_geodesic_csv_quadratic_law(capsys):
    code, out, _ = run(capsys, "geodesic", "--g", "0.5", "--vec", "1,0.2",
                       "--vec2", "0.3,1.1", "--samples", "25")
    assert code == 0
    comments, header, rows = parse_csv(out)
    meta = dict(c.split("=") for c in comments)
    a, b = float(meta["a"]), float(meta["b"])
    assert header == ["s", "R_1", "R_2", "K"]
    for row in rows:
        s, K = row[0], row[-1]
        assert K**2 == pytest.approx(a**2 + 2 * b * s + s**2, rel=1e-9)


def test_geodesic_header_alpha_matches_angle_cmd(capsys):
    code, out, _ = run(capsys, "geodesic", "--g", "0.5", "--vec", "1,0.2",
                       "--vec2", "0.3,1.1")
    comments = parse_csv(out)[0]
    alpha_hdr = float(dict(c.split("=") for c in comments)["alpha"])
    code, out, _ = run(capsys, "angle", "--g", "0.5", "--vec", "1,0.2",
                       "--vec2", "0.3,1.1")
    assert parse_record(out)["alpha"] == pytest.approx(alpha_hdr, abs=1e-12)


def test_geodesic_near_coincident_endpoints(capsys):
    # endpoints 1e-7 apart: a geodesic, not a Euclidean-antipodal refusal
    code, out, _ = run(capsys, "geodesic", "--g", "0.4", "--vec=1,0,1",
                       "--vec2=1,0.0000001,1", "--samples", "5")
    assert code == 0
    rows = parse_csv(out)[2]
    assert np.allclose(rows[0, 1:4], [1.0, 0.0, 1.0], rtol=0, atol=1e-15)
    assert np.allclose(rows[-1, 1:4], [1.0, 1e-7, 1.0], rtol=0, atol=1e-15)


def test_geodesic_euclidean_straight(capsys):
    code, out, _ = run(capsys, "geodesic", "--g", "0", "--vec", "1,0",
                       "--vec2", "0,1", "--samples", "11")
    _, _, rows = parse_csv(out)
    for row in rows:
        s = row[0]
        frac = s / rows[-1][0]
        assert row[1] == pytest.approx(1 - frac, abs=1e-12)
        assert row[2] == pytest.approx(frac, abs=1e-12)


def test_geodesic_antipodal_exit_code(capsys):
    code, _, err = run(capsys, "geodesic", "--g", "0", "--vec", "1,1",
                       "--vec2=-1,-1")
    assert code == 3


def test_geodesic_determinism(capsys):
    args = ("geodesic", "--g", "0.5", "--vec", "1,0.2", "--vec2", "0.3,1.1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------- figures

def test_indicatrix_cmd(capsys):
    code, out, _ = run(capsys, "indicatrix", "--g", "0.4", "--samples", "33")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["f", "q", "Z"]
    assert rows.shape == (33, 3)
    import finsleroid as fd
    p = fd.make_param(0.4)
    sp = fd.Space.euclidean(2)
    for f, q, z in rows:
        assert fd.fmf(p, sp, np.array([q, z])) == pytest.approx(1.0, abs=1e-12)


def test_figures_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "figures", "--out", str(tmp_path), "--samples", "181")
    assert code == 0
    files = sorted(f.name for f in tmp_path.iterdir())
    for g in ("+0.2", "-0.2", "+0.4", "-0.4", "+0.6", "-0.6"):
        assert f"indicatrix_g{g}.csv" in files
    assert "equator_radius_curve.csv" in files
    assert "width_height_curve.csv" in files

    # mirror law between +g and -g files
    _, _, plus = parse_csv((tmp_path / "indicatrix_g+0.4.csv").read_text())
    _, _, minus = parse_csv((tmp_path / "indicatrix_g-0.4.csv").read_text())
    flipped = minus[::-1].copy()
    flipped[:, 2] *= -1
    assert np.max(np.abs(plus[:, 1] - flipped[:, 1])) <= 1e-10
    assert np.max(np.abs(plus[:, 2] - flipped[:, 2])) <= 1e-10

    # profiles closed (poles on the axis) and convex
    for g in ("+0.6", "-0.6"):
        _, _, rows = parse_csv((tmp_path / f"indicatrix_g{g}.csv").read_text())
        q, z = rows[:, 1], rows[:, 2]
        assert q[0] == pytest.approx(0.0, abs=1e-12)
        assert q[-1] == pytest.approx(0.0, abs=1e-12)
        gval = float(g)
        inner = slice(1, -1)
        d2 = -(z[inner] ** 2 + gval * q[inner] * z[inner] + q[inner] ** 2) / q[inner] ** 3
        assert np.all(d2 < 0)

    # the equator-radius curve passes through (0, 1)
    _, _, rows = parse_csv((tmp_path / "equator_radius_curve.csv").read_text())
    i = int(np.argmin(np.abs(rows[:, 0])))
    assert rows[i, 0] == pytest.approx(0.0, abs=1e-12)
    assert rows[i, 1] == pytest.approx(1.0, abs=1e-12)


def test_figures_svg(tmp_path, capsys):
    code, _, _ = run(capsys, "figures", "--out", str(tmp_path), "--format", "svg",
                     "--samples", "65")
    assert code == 0
    svg = (tmp_path / "indicatrix_g+0.4.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "circle" in svg


def test_svg_points_match_per_point_format():
    import re

    import finsleroid as fd
    from finsleroid.cli import _svg, _svg_points
    rng = np.random.default_rng(9)
    fs = np.linspace(0.0, math.pi, 361)
    edge = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0],
                     [-4.9e-7, -1e-300], [-5e-324, -2.5e-7], [5e-7, -5e-7]])
    polys = [("body", fd.indicatrix_profile(fd.make_param(-0.4), 361)),
             ("circle", np.column_stack([np.sin(fs), np.cos(fs)])),
             ("edge", np.vstack([edge, -rng.uniform(0, 5e-7, size=(50, 2))]))]
    texts = _svg_points([poly for _, poly in polys])
    svg = _svg([(*item, text) for item, text in zip(polys, texts)])
    points = re.findall(r'points="([^"]*)"', svg)
    assert points == [" ".join(f"{x:.6f},{-z:.6f}" for x, z in poly) for _, poly in polys]
    assert "-0.000000,-0.000000" in points[2] and "0.000000,0.000000" in points[2]


# "%.6f" ties: x 10^6 is halfway between two integers at x = odd / 2^7, and
# at the double nearest a decimal k + 0.5 (10^-6) fl(x 10^6) often is
_TIES = st.one_of(st.integers(-64000, 63999).map(lambda k: (2 * k + 1) / 128),
                  st.integers(-999 * 10**6, 999 * 10**6).map(lambda k: (k + 0.5) / 1e6))
_FIXED_EDGES = st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 999.0, -999.0, math.nextafter(999.0, 0.0),
                                math.nextafter(1000.0, 0.0), -math.nextafter(1000.0, 0.0),
                                1.7976931348623157e308, -1.7976931348623157e308,
                                math.nan, math.inf, -math.inf])


@settings(deadline=None)
@given(st.lists(st.one_of(_FLOAT_BITS, st.floats(-1e4, 1e4), st.floats(-1e-6, 1e-6),
                          st.floats(998.0, 1000.0), _TIES, _FIXED_EDGES), max_size=80),
       st.integers(0, 3))
def test_svg_points_match_fmt_on_any_doubles(values, cut):
    # bit patterns give NaN, +-inf, subnormals and every exponent; the rest
    # cover the kernel's fast range |x| < 999, its edge, the ties and the
    # values that print as -0.000000
    from finsleroid.cli import _svg_points
    xz = np.array(values[:len(values) // 2 * 2], dtype=float).reshape(-1, 2)
    polys = [xz[:cut], xz[cut:], xz[:0]]
    assert _svg_points(polys) == [" ".join(f"{x:.6f},{-z:.6f}" for x, z in p) for p in polys]


def _svg_per_point(polylines):
    """The SVG document of (name, (n, 2) points) polylines, every number
    written by "%.6f" one at a time."""
    pts = np.vstack([poly for _, poly in polylines])
    lo, hi = pts.min(axis=0) - 0.1, pts.max(axis=0) + 0.1
    width, height = hi - lo
    styles = {"body": 'fill="none" stroke="black" stroke-width="0.01"',
              "circle": 'fill="none" stroke="gray" stroke-width="0.005"'}
    return "\n".join(
        [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo[0]:.6f} '
         f'{-hi[1]:.6f} {width:.6f} {height:.6f}">']
        + [f'<polyline id="{name}" {styles[name]} points="'
           + " ".join("%.6f,%.6f" % (x, -z) for x, z in poly) + '"/>'
           for name, poly in polylines]
        + ["</svg>"]) + "\n"


def test_figures_svg_files_match_per_point_format(tmp_path, capsys):
    import finsleroid as fd
    assert run(capsys, "figures", "--out", str(tmp_path), "--format", "svg",
               "--samples", "361")[0] == 0
    fs = np.linspace(0.0, math.pi, 361)
    circle = np.column_stack([np.sin(fs), np.cos(fs)])
    g = np.array(cli.FIGURE_G_VALUES)
    for gi, body in zip(g, fd.indicatrix_profile(fd.make_param(g[:, None]), 361)):
        svg = (tmp_path / f"indicatrix_g{gi:+.1f}.svg").read_text()
        assert svg == _svg_per_point([("body", body), ("circle", circle)])


@pytest.mark.parametrize("fmt, passes", [("svg", 1), ("csv", 0)])
def test_figures_formats_the_points_in_one_pass(tmp_path, capsys, monkeypatch, fmt, passes):
    # the six bodies and their shared circle go through one "%.6f" pass
    from conftest import count_kernel
    calls = count_kernel(monkeypatch, "_fixed6")
    assert run(capsys, "figures", "--out", str(tmp_path), "--format", fmt)[0] == 0
    assert calls[0] == passes


@pytest.mark.parametrize("fmt, passes", [("csv", 2), ("svg", 1)])
def test_figures_formats_the_csv_numbers_in_one_pass_per_table(tmp_path, capsys, monkeypatch,
                                                               fmt, passes):
    # the six body files share f and the circle, and the two curves share
    # g: one "%.17g" pass over the columns of the bodies (csv only) and one
    # over those of the curves, against 8 (csv) and 2 (svg) with one pass
    # per file
    from conftest import count_kernel
    calls = count_kernel(monkeypatch, "_slots")
    assert run(capsys, "figures", "--out", str(tmp_path), "--format", fmt)[0] == 0
    assert calls[0] == passes


@pytest.mark.parametrize("samples", ["61", "361", str(CHUNK_ROWS + 5)])
def test_figures_csv_files_match_per_value_format(tmp_path, capsys, samples):
    import finsleroid as fd
    assert run(capsys, "figures", "--out", str(tmp_path), "--samples", samples)[0] == 0
    n = int(samples)
    fs = np.linspace(0.0, math.pi, n)
    circle = np.column_stack([np.sin(fs), np.cos(fs)])
    g = np.array(cli.FIGURE_G_VALUES)
    for gi, body in zip(g, fd.indicatrix_profile(fd.make_param(g[:, None]), n)):
        text = (tmp_path / f"indicatrix_g{gi:+.1f}.csv").read_text()
        assert text == _fmt_csv(["f", "q", "Z", "circle_q", "circle_Z"],
                                np.column_stack([fs, body, circle]), [f"g={gi:.17g}"])
    gs = np.linspace(-1.9, 1.9, 191)
    report = fd.shape_report(fd.make_param(gs))
    for name, column in (("equator_radius_curve", "q_star"), ("width_height_curve", "Z_2star")):
        text = (tmp_path / f"{name}.csv").read_text()
        assert text == _fmt_csv(["g", column], np.column_stack([gs, getattr(report, column)]))


def test_figures_determinism(tmp_path, capsys):
    run(capsys, "figures", "--out", str(tmp_path / "a"), "--samples", "61")
    run(capsys, "figures", "--out", str(tmp_path / "b"), "--samples", "61")
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_figures_io_error(capsys):
    code, _, err = run(capsys, "figures", "--out", "/proc/definitely/not/writable")
    assert code == 4


# ------------------------------------------------------------------ check

def test_check_passes(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert "overall: PASS" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--json", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] == 7 and rep["pass"] is True
    assert all("residual" in c for c in rep["checks"])
    names = {c["name"] for c in rep["checks"]}
    assert {"metric_det_law", "duality", "qe_roundtrip"} <= names


def test_check_fault_injection(capsys):
    code, out, _ = run(capsys, "check", "--inject-fault")
    assert code == 1
    assert "FAIL" in out


def test_check_tol_override(capsys):
    # an absurdly tight tolerance forces a failure
    code, out, _ = run(capsys, "check", "--tol", "metric_hessian=1e-30")
    assert code == 1


@pytest.mark.parametrize("flags, dim, r", [(("--dim", "5"), 5, np.eye(4)),
                                           (("--r", "1.5,0.2,0.2,0.8"), 3, [[1.5, 0.2], [0.2, 0.8]]),
                                           (("--dim", "2", "--r", "0.7"), 2, [[0.7]])])
def test_check_runs_the_table_in_the_space_of_dim_and_r(monkeypatch, capsys, flags, dim, r):
    from finsleroid import identities
    spaces = []
    draw = identities.draw_sample

    def recording(rng, fault=False, sp=None):
        spaces.append(sp)
        return draw(rng, fault, sp)
    monkeypatch.setattr(identities, "draw_sample", recording)
    code, out, _ = run(capsys, "check", *flags)
    assert code == 0 and "overall: PASS" in out
    assert spaces[0].dim == dim and np.array_equal(spaces[0].r_spatial, r)


def test_check_in_euclidean_3_matches_no_space_flags(capsys):
    # without --dim and --r the table is drawn in Space.euclidean(3)
    base = run(capsys, "check", "--json", "--seed", "3")
    assert base[0] == 0
    assert run(capsys, "check", "--json", "--seed", "3", "--dim", "3") == base
    assert run(capsys, "check", "--json", "--seed", "3", "--r", "1,0,0,1") == base


@pytest.mark.parametrize("flags, dim, r", [((), 3, [[1.0, 0.0], [0.0, 1.0]]),
                                           (("--dim", "5"), 5, np.eye(4).tolist()),
                                           (("--r", "1.5,0.2,0.2,0.8"), 3, [[1.5, 0.2], [0.2, 0.8]])])
def test_check_json_reports_its_space(capsys, flags, dim, r):
    code, out, _ = run(capsys, "check", "--json", "--seed", "4", *flags)
    rep = json.loads(out)
    assert code == 0 and rep["dim"] == dim and rep["r"] == r


@pytest.mark.parametrize("flags", [("--dim", "5", "--r", "1,0,0,1"), ("--r", "1,0,0"),
                                   ("--dim", "1"), ("--r", "1,2,2,1")])
def test_check_refuses_a_bad_space(capsys, flags):
    code, out, err = run(capsys, "check", *flags)
    assert code == 2 and out == "" and "error:" in err


def test_geodesic_k_column_is_fmf_of_written_rows(capsys):
    import finsleroid as fd
    code, out, _ = run(capsys, "geodesic", "--g", "-0.7", "--vec", "1,0.2,0.4",
                       "--vec2", "0.3,-0.5,1.1", "--r", "2,0.3,0.3,0.7",
                       "--samples", "40")
    assert code == 0
    _, _, rows = parse_csv(out)
    p = fd.make_param(-0.7)
    sp = fd.Space(3, np.array([[2.0, 0.3], [0.3, 0.7]]))
    for row in rows:
        assert row[-1] == pytest.approx(fd.fmf(p, sp, row[1:-1]), rel=1e-15)


def test_negative_first_component_parses(capsys):
    args = ("geodesic", "--g", "0.4", "--vec2", "0.3,1.1")
    code, out, _ = run(capsys, *args, "--vec", "-1,0.2")
    assert code == 0
    assert (code, out) == run(capsys, *args, "--vec=-1,0.2")[:2]


def test_parser_built_once_keeps_subcommand_defaults(tmp_path, capsys):
    from finsleroid.cli import build_parser
    assert build_parser() is build_parser()
    assert run(capsys, "figures", "--out", str(tmp_path))[0] == 0
    code, out, _ = run(capsys, "geodesic", "--g", "0.5", "--vec", "1,0.2",
                       "--vec2", "0.3,1.1")
    assert code == 0
    assert parse_csv(out)[2].shape == (50, 4)


@pytest.mark.parametrize("argv", [
    ("check", "--seed", "3", "--vec", "1,0,0", "--g", "1.0", "--format", "svg"),
    ("figures", "--g", "0.9", "--dim", "7", "--seed", "4"),
    ("indicatrix", "--g", "0.4", "--dim", "9", "--r", "1"),
])
def test_flag_a_command_does_not_read_is_bad_input(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "unrecognized arguments" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, err", [({"format": "pdf"}, "invalid choice: 'pdf'"),
                                      ({"samples": "abc"}, "invalid int value: 'abc'"),
                                      ({"samples": 3.7}, "invalid int value: '3.7'")])
def test_config_value_is_parsed_as_its_flag(tmp_path, capsys, doc, err):
    # a config value goes through its flag's type and choices: these exited
    # 0 with CSV files written (pdf) or ended in a TypeError traceback (abc)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "figs"
    code, _, stderr = run(capsys, "figures", "--config", str(cfg), "--out", str(out))
    assert code == 2 and err in stderr and "--config" in stderr
    assert not out.exists()


def test_config_sets_the_flags_the_command_line_leaves_unset(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"samples": 61, "format": "svg", "out": str(tmp_path / "a")}))
    assert run(capsys, "figures", "--config", str(cfg))[0] == 0
    assert run(capsys, "figures", "--samples", "61", "--format", "svg",
               "--out", str(tmp_path / "b"))[0] == 0
    for f in (tmp_path / "b").iterdir():
        assert f.read_bytes() == (tmp_path / "a" / f.name).read_bytes()
    # a switch takes true or false, and a flag on the command line wins
    cfg.write_text(json.dumps({"json": True, "seed": 4, "tol": {"metric_hessian": 1.0}}))
    code, out, _ = run(capsys, "check", "--config", str(cfg), "--seed", "5")
    rep = json.loads(out)
    assert code == 0 and rep["seed"] == 5
    assert [c["tol"] for c in rep["checks"] if c["name"] == "metric_hessian"] == [1.0]
    cfg.write_text(json.dumps({"json": "yes"}))
    code, _, err = run(capsys, "check", "--config", str(cfg))
    assert code == 2 and "true or false" in err


def test_usage_error_returns_bad_input(capsys):
    code, _, err = run(capsys, "eval", "--g")
    assert code == 2
    assert "expected one argument" in err


def _fmt_csv(header, table, comments=()):
    """The reference of _csv: _fmt of every value, joined per row."""
    from finsleroid.cli import _fmt
    return ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
            + "".join(",".join(_fmt(v) for v in row) + "\n" for row in table))


def test_csv_table_bytes_match_fmt():
    from finsleroid.cli import _csv
    rng = np.random.default_rng(5)
    decades = np.array([float(f"1e{k}") for k in range(-5, 17)])
    vals = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1.0, 1e300],
        # the doubles next to each decade, where the exponent changes
        np.nextafter(decades, np.inf), np.nextafter(decades, -np.inf), decades, -decades,
        # half-even ties of the 17th digit, and values that round up to a
        # decade
        [281474976710656.125, -281474976710656.375, 140737488355328.0625,
         9.9999999999999995e-5, 999999999999999.9, 0.09999999999999999],
        rng.normal(size=99990) * 10.0 ** rng.integers(-300, 300, size=99990),
        rng.normal(size=30000) * 10.0 ** rng.integers(-6, 17, size=30000)])
    table = vals[:len(vals) // 3 * 3].reshape(-1, 3)
    args = (["x", "y", "z"], table, ["c", "100%"])
    assert b"".join(_csv(*args)) == _fmt_csv(*args).encode()


@pytest.mark.parametrize("cols", [0, 1, 5])
@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_csv_chunk_edges(rows, cols):
    from finsleroid.cli import _csv
    table = np.random.default_rng(rows + cols).normal(size=(rows, cols))
    header = [f"c{i}" for i in range(cols)]
    pieces = _csv(header, table)
    # the header, then one block per CHUNK_ROWS rows
    assert [p.count(b"\n") for p in pieces[1:]] == [
        min(CHUNK_ROWS, rows - i) for i in range(0, rows, CHUNK_ROWS)]
    assert b"".join(pieces) == _fmt_csv(header, table).encode()


@settings(deadline=None)
@given(st.integers(1, 6), st.lists(st.one_of(_FLOAT_BITS, st.floats(-1e15, 1e15)), max_size=60))
def test_csv_matches_fmt_on_any_table(cols, values):
    # bit patterns give NaN, +-inf, subnormals and every exponent; the
    # floats in +-1e15 cover the fixed-notation range densely
    from finsleroid.cli import _csv
    table = np.array(values[:len(values) // cols * cols], dtype=float).reshape(-1, cols)
    header = ["v"] * cols
    assert b"".join(_csv(header, table)) == _fmt_csv(header, table).encode()


@settings(deadline=None)
@given(st.integers(0, 5), st.lists(st.one_of(_FLOAT_BITS, st.floats(-1e15, 1e15)), max_size=60),
       st.lists(st.lists(st.integers(0, 4), max_size=6), max_size=4))
def test_csv_tables_match_fmt_on_any_layouts(cols, values, layouts):
    # each layout picks columns in any order, repeated or none; a table
    # of no columns has no column to pick
    from finsleroid.csvtext import csv_tables
    table = (np.array(values[:len(values) // cols * cols], dtype=float).reshape(-1, cols)
             if cols else np.empty((len(values) % 5, 0)))
    layouts = [tuple(c for c in cols_ if c < cols) for cols_ in layouts] + [slice(None)]
    want = ["".join(",".join("%.17g" % v for v in row[list(cols_)]) + "\n" for row in table)
            if isinstance(cols_, tuple) else
            "".join(",".join("%.17g" % v for v in row) + "\n" for row in table)
            for cols_ in layouts]
    assert [b"".join(blocks) for blocks in csv_tables(table, layouts)] == [
        w.encode() for w in want]


def test_csv_every_fixed_binade_has_its_decade():
    # each binade [2^(E-1), 2^E) that meets [1e-4, 1e15) takes its decade
    # from its binary exponent: at both ends of the binade and on either
    # side of each decade, [1e-4, 2^-13) too, the key is k + 4 of the
    # fixed-notation exponent k, and no value falls to "%.17g"; every
    # value outside the range gets _SLOW
    from finsleroid import csvtext
    ends = np.ldexp(1.0, np.arange(-13, 51))
    decades = np.array([float(f"1e{k}") for k in range(-4, 16)])
    vals = np.concatenate([ends / 2, np.nextafter(ends, 0), decades,
                           np.nextafter(decades, 0), np.nextafter(decades, np.inf),
                           [1.1e-4, 1.2e-4]])
    fast = vals[(vals >= 1e-4) & (vals < 1e15)]
    assert fast.min() == 1e-4 and np.nextafter(2.0**-13, 0) in fast
    key, a = csvtext._decade_keys(fast)
    assert key.tolist() == [int(("%.16e" % v).partition("e")[2]) + 4 for v in fast]
    assert (a == fast).all()
    slow = np.array([0.0, 5e-324, np.nextafter(1e-4, 0), 2.0**-14, 1e15, 1e300, np.inf, np.nan])
    assert (csvtext._decade_keys(slow)[0] == csvtext._SLOW).all()
    table = np.concatenate([fast, -fast, slow])[:, None]
    assert b"".join(csvtext.csv_lines(table)) == "".join(
        "%.17g\n" % v for v in table[:, 0]).encode()


def test_geodesic_stdout_equals_out_file(tmp_path, capsys):
    args = ("geodesic", "--g", "-0.7", "--vec", "1,0.2,0.4", "--vec2", "0.3,-0.5,1.1",
            "--samples", "3000")
    code, out, _ = run(capsys, *args)
    assert code == 0
    path = tmp_path / "g.csv"
    assert run(capsys, *args, "--out", str(path))[0] == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("g", ["1.999999", "-1.999999"])
def test_geodesic_cone_limit_is_named(capsys, g):
    # J = exp(G Phi / 2) leaves the doubles; this exited 3 with "needs two
    # nonzero vectors" (g > 0) or 2 with "non-finite components" (g < 0)
    code, out, err = run(capsys, "geodesic", "--g", g, "--vec=0.3,0.5,-1", "--vec2=0.3,-0.5,-1")
    assert code == 3 and out == ""
    assert "cone limit" in err


def test_check_tol_unknown_name_is_bad_input(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--tol", "metric_hesian=1e-30")
    assert code == 2
    assert "metric_hesian" in err and "metric_hessian" in err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tol": {"metric_hesian": 1e-30}}))
    assert run(capsys, "check", "--config", str(cfg))[0] == 2
    cfg.write_text(json.dumps({"tol": {"metric_hessian": 1e-30}}))
    assert run(capsys, "check", "--config", str(cfg))[0] == 1


@pytest.mark.parametrize("seed", ["6", "26", "29", "277"])
def test_check_hessian_step_scales_with_vector(capsys, seed):
    # these seeds draw |R| ~ 3, where a fixed step of 1e-5 is dominated by
    # rounding and metric_hessian failed its tolerance of 1e-5
    code, out, _ = run(capsys, "check", "--seed", seed)
    assert code == 0


# ----------------------------------------------------------- file writer

GEODESIC = ("geodesic", "--g", "-0.7", "--vec", "1,0.2,0.4", "--vec2", "0.3,-0.5,1.1")


def test_out_rewrites_the_file_in_place(tmp_path, capsys):
    # longer, shorter, then same-length output over an existing file: each
    # time the file holds exactly the new bytes, on the same inode and mode
    path = tmp_path / "g.csv"
    path.write_text("x" * 5000)
    path.chmod(0o640)
    before = os.stat(path)
    for samples in ("200", "20", "20"):
        if samples == "20" and path.stat().st_size:
            with open(path, "r+b") as f:  # same length, other bytes
                f.write(b"#" * path.stat().st_size)
        code, out, _ = run(capsys, *GEODESIC, "--samples", samples)
        assert code == 0
        assert run(capsys, *GEODESIC, "--samples", samples, "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode()
        after = os.stat(path)
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)


def test_out_new_file_mode_follows_umask(tmp_path, capsys):
    path = tmp_path / "new.txt"
    old = os.umask(0o027)
    try:
        assert run(capsys, "eval", "--g", "0.4", "--vec", "1,1", "--out", str(path))[0] == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~0o027
    assert "K: " in path.read_text()


def test_out_dev_null(capsys):
    assert run(capsys, *GEODESIC, "--out", os.devnull)[0] == 0


def test_out_fifo_gets_the_stdout_bytes(tmp_path, capsys):
    # a pipe cannot be trimmed: the writer leaves targets that are not
    # regular files as they are
    code, out, _ = run(capsys, *GEODESIC, "--samples", "3000")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def reader():
        with open(fifo, "rb") as f:
            got.append(f.read())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    assert run(capsys, *GEODESIC, "--samples", "3000", "--out", str(fifo))[0] == 0
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert got == [out.encode()]


def test_out_read_only_file_is_left_unchanged(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ro.csv"
    path.write_bytes(b"old contents\n")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        # a superuser may write any file: refuse the open as the kernel
        # does for everyone else
        real_open = os.open

        def refusing_open(target, flags, *args):
            if os.fspath(target) == str(path) and flags & os.O_WRONLY:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(target, flags, *args)

        monkeypatch.setattr(os, "open", refusing_open)
    code, _, err = run(capsys, *GEODESIC, "--out", str(path))
    assert code == 4 and "i/o error" in err
    assert path.read_bytes() == b"old contents\n"


def test_out_failed_write_after_a_block_keeps_the_blocks_written(tmp_path, capsys,
                                                                  monkeypatch):
    # the file goes out as the header and then one piece per block of
    # CHUNK_ROWS rows; the disk fills after the first block: the file holds
    # exactly the header and that block, and nothing of the longer old file
    args = (*GEODESIC, "--samples", str(2 * CHUNK_ROWS + 5))
    _, out, _ = run(capsys, *args)
    path = tmp_path / "g.csv"
    path.write_bytes(b"x" * (2 * len(out)))
    real_write, calls = os.write, []

    def filling_write(fd, data):
        calls.append(len(data))
        if len(calls) <= 2:
            return real_write(fd, data)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.os, "write", filling_write)
    code, _, err = run(capsys, *args, "--out", str(path))
    monkeypatch.undo()
    assert code == 4 and "No space left" in err
    assert len(calls) == 3
    lines = out.encode().splitlines(keepends=True)
    # four comment lines and the header line, then the first block
    assert path.read_bytes() == b"".join(lines[:5 + CHUNK_ROWS])


def test_out_failed_write_leaves_no_stale_tail(tmp_path, capsys, monkeypatch):
    # the disk fills after 100 bytes: the file holds those bytes and
    # nothing of the longer old file behind them
    path = tmp_path / "g.csv"
    path.write_bytes(b"x" * 10000)
    real_write, calls = os.write, []

    def filling_write(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[:100])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.os, "write", filling_write)
    code, _, err = run(capsys, *GEODESIC, "--out", str(path))
    monkeypatch.undo()
    assert code == 4 and "No space left" in err
    _, out, _ = run(capsys, *GEODESIC)
    assert path.read_bytes() == out.encode()[:100]
