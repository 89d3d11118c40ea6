"""The identity table behind `finsleroid check`."""

import io
import json
from contextlib import redirect_stdout

import numpy as np

from finsleroid import Space, identities
from finsleroid.cli import main
from conftest import count_gram, count_scalar_forms

NAMES_AND_TOLS = [
    ("form_identities", 1e-12), ("homogeneity", 1e-12), ("euler_identity", 1e-11),
    ("metric_det_law", 1e-10), ("metric_hessian", 1e-5), ("cartan_contraction", 1e-12),
    ("curvature_constant", 1e-12), ("duality", 1e-9), ("qe_roundtrip", 1e-10),
    ("metric_pullback", 1e-10), ("geodesic_norm_law", 1e-10), ("angle_laws", 1e-9),
    ("shape_mirror", 1e-10), ("plane_identities", 1e-8)]

# the identities an h off by 1e-3 breaks, on every seed 0-39
FAULTED = {"form_identities", "metric_hessian", "curvature_constant", "qe_roundtrip",
           "metric_pullback", "angle_laws", "plane_identities"}


def _check_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", "--json", *argv])
    return code, json.loads(buf.getvalue())


def test_table_names_tolerances_and_reasons():
    assert [(i.name, i.tol) for i in identities.IDENTITIES] == NAMES_AND_TOLS
    for i in identities.IDENTITIES:
        assert i.reason and "\n" not in i.reason


def test_check_reports_the_table_in_order():
    code, rep = _check_json("--seed", "3")
    assert code == 0 and rep["pass"] is True
    assert [(c["name"], c["tol"]) for c in rep["checks"]] == NAMES_AND_TOLS


def test_fault_fails_exactly_the_h_identities():
    for seed in range(40):
        code, rep = _check_json("--seed", str(seed), "--inject-fault")
        assert code == 1
        assert {c["name"] for c in rep["checks"] if not c["pass"]} == FAULTED, seed


def test_battery_passes_seeds_0_to_99():
    for seed in range(100):
        for name, residual, tol in identities.run_battery(np.random.default_rng(seed)):
            assert residual <= tol, (seed, name, residual)


def test_sample_draw_order():
    # check --seed k tests the same inputs as before the table: 40 (g, R)
    # draws, then the second vectors of geodesic_norm_law, then angle_laws.
    # The reference keeps the old two-condition rule; draw_sample tests
    # q > 0.2 alone, which implies |v| > 0.2
    sp = Space.euclidean(3)

    def rand_vec(rng):
        while True:
            v = rng.normal(size=3)
            if sp.spatial_norm(v) > 0.2 and sp.norm(v) > 0.2:
                return v
    for seed in range(300):  # CHECK_SEED_RANGE of perfbench's cli_reports
        rng = np.random.default_rng(seed)
        g, X = zip(*[(float(rng.uniform(-1.8, 1.8)), rand_vec(rng)) for _ in range(40)])
        geo = [rand_vec(rng) for _ in range(10)]
        ang = [rand_vec(rng) for _ in range(10)]
        s = identities.draw_sample(np.random.default_rng(seed))
        assert np.array_equal(s.P.g, g) and np.array_equal(s.X, X)
        assert np.array_equal(s.geodesic_ends, geo) and np.array_equal(s.angle_ends, ang)


def test_fault_raises_h_only():
    s = identities.draw_sample(np.random.default_rng(0), fault=True)
    clean = identities.draw_sample(np.random.default_rng(0))
    assert np.array_equal(s.P.h, clean.P.h + 1e-3)
    assert np.array_equal(s.P.G, clean.P.G)
    assert s.param(0.4).h == clean.param(0.4).h + 1e-3


def test_battery_scalar_forms_calls(monkeypatch):
    # the stacked identities make one call per evaluation over all rows;
    # the pair identities make 2 (stacked sigma) and angle_laws 2 more
    # (fins_angle over the stacked pairs), plane_identities 1 (the metric
    # under landsberg_check, over every g), and the two co-form evaluations
    # of duality (fhf at the mirror): 28 in all, against 628 one-vector calls
    calls = count_scalar_forms(monkeypatch)
    identities.run_battery(np.random.default_rng(5))
    assert calls[0] == 28


def test_battery_gram_calls(monkeypatch):
    # angle_laws makes one stacked fins_angle and one stacked qe_angle call;
    # connect, one pair at a time, makes the other 20 (10 pairs each in
    # geodesic_norm_law and angle_laws), against 40 with per-pair angles
    calls = count_gram(monkeypatch)
    identities.run_battery(np.random.default_rng(5))
    assert calls[0] == 22
