"""Shared helpers: random geometry draws, finite-difference oracles, the
counter of the calls and evaluations behind each memo, the counter of the
calls of a private builder, the counter of the passes of the text kernels,
and the array leaves of a result."""

import dataclasses
import sys

import numpy as np
import pytest

from finsleroid import Space, core, csvtext, tensors, twovector


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


def count_memo(monkeypatch, name):
    """Count the calls of the function behind the memo name, hits included,
    and its evaluations, the calls that its memo does not answer, from an
    empty memo; a call that raises before a hit counts as an evaluation.
    name is "forms" (core.scalar_forms), "gram" (Space.gram, on every
    Space), "cartan" (tensors._cartan, behind cartan and curvature_S) or
    "n2" (twovector.n2, behind n2 and g2); a function is counted through
    every module of the package that binds it. Returns two one-item lists,
    (calls, evaluations)."""
    memo, fn = {"forms": (core._forms_memo, core.scalar_forms),
                "gram": (core._gram_memo, Space.gram),
                "cartan": (tensors._cartan_memo, tensors._cartan),
                "n2": (twovector._n2_memo, twovector.n2)}[name]
    calls, evaluations, hits = [0], [0], [0]
    get = core._Memo.get

    def counted_get(self, *args):
        stored = get(self, *args)
        if self is memo and stored is not None:
            hits[0] += 1
        return stored

    def counting(fn):
        def counted(*args, **kwargs):
            calls[0] += 1
            before = hits[0]
            try:
                return fn(*args, **kwargs)
            finally:
                evaluations[0] += hits[0] == before
        return counted
    monkeypatch.setattr(core._Memo, "get", counted_get)
    monkeypatch.setattr(memo, "entries", ())
    if name == "gram":
        monkeypatch.setattr(Space, "gram", counting(fn))
    else:
        bind_everywhere(monkeypatch, fn, counting(fn))
    return calls, evaluations


def bind_everywhere(monkeypatch, fn, wrapped):
    """Bind wrapped in place of the package function fn in every module of
    the package that binds fn, as cospace binds tensors._metric."""
    for module_name, module in list(sys.modules.items()):
        if (module_name.partition(".")[0] == "finsleroid"
                and getattr(module, fn.__name__, None) is fn):
            monkeypatch.setattr(module, fn.__name__, wrapped)


def count_calls(monkeypatch, fn):
    """Count the calls of the package function fn, a private builder such as
    tensors._metric, through every module that binds it; returns a one-item
    list holding the count."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    bind_everywhere(monkeypatch, fn, counted)
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
