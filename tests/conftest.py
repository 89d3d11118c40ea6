"""Shared helpers: random geometry draws, finite-difference oracles,
counters of the scalar_forms calls, of the evaluations of the forms, of
the Space.gram calls and evaluations and of the passes of the text
kernels, and the array leaves of a result."""

import dataclasses
import sys

import numpy as np
import pytest

from finsleroid import Space, core, csvtext


def rand_space(n, rng, identity=False):
    """Well-conditioned random SPD spatial metric for dimension n."""
    if identity:
        return Space.euclidean(n)
    m = n - 1
    M = rng.normal(size=(m, m)) * 0.3
    return Space(n, M @ M.T + np.eye(m))


def rand_vec(p, sp, rng, min_q=0.25, min_norm=0.3):
    """Random vector bounded away from the axis and the origin."""
    while True:
        v = rng.normal(size=sp.dim)
        if sp.spatial_norm(v) > min_q and sp.norm(v) > min_norm:
            return v


def fd_gradient(f, x, eps=1e-5):
    """Five-point (fourth-order) central gradient."""
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        vals = []
        for k in (-2, -1, 1, 2):
            xp = x.copy()
            xp[i] += k * eps
            vals.append(f(xp))
        out[i] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * eps)
    return out


def fd_hessian(f, x, eps=1e-3):
    """Fourth-order mixed Hessian via nested five-point gradients."""
    n = len(x)
    out = np.empty((n, n))
    for j in range(n):
        def gj(y, j=j):
            vals = []
            for k in (-2, -1, 1, 2):
                yp = y.copy()
                yp[j] += k * eps
                vals.append(f(yp))
            return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * eps)
        for i in range(n):
            vals = []
            for k in (-2, -1, 1, 2):
                xp = x.copy()
                xp[i] += k * eps
                vals.append(gj(xp))
            out[i, j] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * eps)
    return out


def fd_jacobian(f, x, eps=1e-6):
    """jac[i, j] = d f^j / d x^i, second-order central."""
    n = len(x)
    out = None
    for i in range(n):
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        col = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * eps)
        if out is None:
            out = np.empty((n, len(col)))
        out[i] = col
    return out


def count_scalar_forms(monkeypatch):
    """Count the calls of core.scalar_forms made through every finsleroid
    module that binds it; returns a one-item list holding the count."""
    calls = [0]
    fn = core.scalar_forms

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("finsleroid.") and getattr(module, "scalar_forms", None) is fn:
            monkeypatch.setattr(module, "scalar_forms", counted)
    return calls


def count_forms_evaluations(monkeypatch):
    """Count the evaluations of the scalar forms, the calls of scalar_forms
    that its memo does not answer, from an empty memo: within core only
    scalar_forms calls half_G_angle, once per evaluation that passes its
    vector checks. Returns a one-item list holding the count."""
    calls = [0]
    fn = core.half_G_angle

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(core, "half_G_angle", counted)
    monkeypatch.setattr(core, "_memo", ())
    return calls


def count_gram(monkeypatch):
    """Count the calls of Space.gram, the pair kernel, on every Space, memo
    hits included; returns a one-item list holding the count."""
    calls = [0]
    fn = Space.gram

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return fn(self, *args, **kwargs)
    monkeypatch.setattr(Space, "gram", counted)
    return calls


def count_gram_evaluations(monkeypatch):
    """Count the evaluations of Space.gram, the calls that its memo does not
    answer, from an empty memo: a hit hands back the perp of the stored
    record, an evaluation a new one. Calls that raise are not counted.
    Returns a one-item list holding the count."""
    calls = [0]
    fn = Space.gram

    def counted(self, *args, **kwargs):
        stored = core._gram_memo
        pair = fn(self, *args, **kwargs)
        if not stored or pair.perp is not stored[2][0]:
            calls[0] += 1
        return pair
    monkeypatch.setattr(Space, "gram", counted)
    monkeypatch.setattr(core, "_gram_memo", ())
    return calls


def count_kernel(monkeypatch, name):
    """Count the passes of the csvtext kernel name: "_fixed6", the "%.6f"
    kernel of the SVG points, or "_slots", the "%.17g" kernel of the CSV
    tables (one pass per block of CHUNK_ROWS rows); returns a one-item list
    holding the count."""
    calls = [0]
    fn = getattr(csvtext, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(csvtext, name, counted)
    return calls


def leaves(x):
    """The arrays of a result, in field order: a dataclass, dict, tuple or
    list is walked, anything else is one leaf."""
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return [leaf for item in x for leaf in leaves(item)]
    return [np.asarray(x)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
