"""Per-layer tracing for the traced run.

The layers are the modules of the finsleroid package. Installing the
tracer replaces each traced function in every finsleroid module namespace
that binds it (``finsleroid.twovector.metric`` as well as
``finsleroid.tensors.metric``), so calls between modules and within one
module are both seen, and it counts Space constructions through
``core.Space.__init__``. Each wrapper records one span: its wall time, and
the time of the spans it encloses, from which the module's self time
follows. Only aggregates are kept. The untraced run never installs it.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List

TRACED = {
    "core": ("scalar_forms", "fmf", "Space"),
    "tensors": ("grad_covector", "metric", "metric_inverse", "metric_det",
                "angular", "cartan", "curvature_S"),
    "cospace": ("to_costate", "fhf"),
    "quasieuclid": ("sigma", "mu", "sigma_jacobian", "n_metric"),
    "geodesic": ("connect", "qe_geodesic_at"),
    "angle": ("fins_angle", "parallelogram_residuals", "parallelogram_exact",
              "perpendicular_companion"),
    "twovector": ("g2", "n2", "covector_pair"),
    "shape": ("indicatrix_profile", "shape_report"),
    "plane": ("rund_residual", "landsberg_check"),
    "cli": ("main",),
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in TRACED.items():
        for name in names:
            units[f"{layer}.{name}.us_per_call"] = "us"
            units[f"{layer}.{name}.calls_per_op"] = "calls/op"
        units[f"{layer}.self_us_per_op"] = "us/op"
    units["cli.bytes_written_per_op"] = "B/op"
    units["trace.overhead_us_per_op"] = "us/op"
    return units


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.self_seconds = dict.fromkeys(TRACED, 0.0)
        self._open: List[list] = []   # child time of each open span
        self._undo: list = []

    def _wrap(self, layer: str, key: str, fn):
        calls, seconds, self_seconds, open_spans = (
            self.calls, self.seconds, self.self_seconds, self._open)
        calls[key], seconds[key] = 0, 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                calls[key] += 1
                seconds[key] += dt
                self_seconds[layer] += dt - children[0]
                if open_spans:
                    open_spans[-1][0] += dt
        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "finsleroid" or n.startswith("finsleroid.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"finsleroid.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                if name == "Space":
                    init = module.Space.__init__
                    module.Space.__init__ = self._wrap(layer, key, init)
                    self._undo.append((module.Space, "__init__", init))
                    continue
                fn = getattr(module, name)
                traced = self._wrap(layer, key, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, traced)
                            self._undo.append((ns, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self, ops: int) -> Dict[str, float]:
        out = {}
        for key, n in self.calls.items():
            out[f"{key}.us_per_call"] = self.seconds[key] / n * 1e6 if n else 0.0
            out[f"{key}.calls_per_op"] = n / ops
        for layer, s in self.self_seconds.items():
            out[f"{layer}.self_us_per_op"] = s / ops * 1e6
        return out
