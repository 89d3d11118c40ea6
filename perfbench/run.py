"""Benchmark of the finsleroid package, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the workload's inputs from the seed and runs every input once,
then runs whole passes over the inputs from one thread in a closed loop
for S seconds, then checks the first pass's outputs against the
independent reference. The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_STARTED = time.perf_counter()  # set-up time counts from here

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

# The speed of a core on a shared host drifts by up to 1.6x from one second
# to the next as co-tenants come and go, and a 20 s run can sit mostly in
# either state. So every time is taken in units of a fixed probe run at
# most PROBE_EVERY_S before it, and reported as seconds at a nominal speed
# at which the probe takes PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 4e-3
PROBE_EVERY_S = 0.1
# Latencies of at most this many ops are kept, in buffers allocated before
# timing starts, so the benchmark's own memory does not grow with the number
# of ops a run completes.
MAX_OPS = 1 << 18
_PROBE_R = np.array([0.3, 0.5, 1.0])
_PROBE_S = np.array([1.0, -0.2, 0.4])


def _probe() -> float:
    """Wall time of a fixed piece of work of the same kind as the program's:
    small numpy calls driven from Python."""
    t0 = time.perf_counter()
    for _ in range(40):
        ref.pair(0.4, np.eye(2), _PROBE_R, _PROBE_S)
    return time.perf_counter() - t0


def _import_program() -> None:
    """Put this checkout's sources first on the path, so the package is
    never taken from anywhere else."""
    if not (SRC / "finsleroid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no finsleroid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import finsleroid
    if Path(finsleroid.__file__).resolve().parent != SRC / "finsleroid":
        raise SystemExit(f"perfbench: finsleroid imported from {finsleroid.__file__}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time a fresh process takes to import finsleroid, build the
    inputs and run one untimed warm-up op. Each process times itself from
    its first line and runs the probe right after, on the same core."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        child = json.loads(proc.stdout)
        # Imports read and map files and follow the core's speed only in
        # part: over 40 set-ups the quartile spread was 16% unscaled, 12%
        # scaled by the probe ratio and 8% scaled by its square root.
        times.append(child["seconds"] * math.sqrt(PROBE_NOMINAL_S / child["probe"]))
    return statistics.median(times)


def _checked_pass(wl, outcome):
    """Run every input once. Returns each op's outputs, the digest every
    later pass must repeat, and the bytes the ops write per pass."""
    outs, digests, nbytes = [], [], 0
    for x in wl.inputs:
        out = wl.run(x)
        digest, written = outcome(out)
        outs.append(out)
        digests.append(digest)
        nbytes += written
    return outs, digests, nbytes


def _check(wl, outs):
    """Indices of the ops whose outputs fail a check, and the problems of
    those that are not a known fault."""
    failed, problems = [], []
    for i, (x, out) in enumerate(zip(wl.inputs, outs)):
        bad = [f"{name}: {res:.3g} > {tol:g}" for name, res, tol in wl.check(x, out)
               if not res <= tol]
        if bad:
            failed.append(i)
            if x.fault is None:
                problems.append(f"op {i}: " + "; ".join(bad))
    return failed, problems


def _passes(wl, outcome, digests, seconds: float):
    """Whole passes until `seconds` have gone by. Returns the pass times and
    op latencies at nominal host speed, the wall time of all passes, and the
    number of ops whose outcome differed from the checked pass.

    An op is scaled by the mean of the probes that bracket it, so a long op
    sees the host speed at both of its ends."""
    op_s = np.full(MAX_OPS, 0.0)
    pass_s = np.full(MAX_OPS, 0.0)
    pending = []  # (pass, wall seconds) of the ops since the last probe
    n_ops = passes = mismatched = 0
    last = _probe()

    def flush(probe: float) -> None:
        nonlocal n_ops, last
        scale = 2.0 * PROBE_NOMINAL_S / (last + probe)
        for i, dt in pending:
            pass_s[i] += dt * scale
            if n_ops < MAX_OPS:
                op_s[n_ops] = dt * scale
                n_ops += 1
        pending.clear()
        last = probe

    clock = time.perf_counter
    start = probed = clock()
    end = start + seconds
    while not passes or clock() < end:
        for x, want in zip(wl.inputs, digests):
            if clock() - probed > PROBE_EVERY_S:
                flush(_probe())
                probed = clock()
            t0 = clock()
            out = wl.run(x)
            pending.append((passes, clock() - t0))
            mismatched += outcome(out)[0] != want
        passes += 1
    wall_s = clock() - start
    flush(_probe())
    return pass_s[:passes], op_s[:n_ops], wall_s, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    if args.setup_only:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            wl = workloads.build(args.workload, args.seed, Path(tmp))
            wl.run(wl.inputs[0])
            seconds = time.perf_counter() - _STARTED
        _probe()  # the first probe of a process also pays numpy's first calls
        probe = statistics.median(_probe() for _ in range(5))
        print(json.dumps({"seconds": seconds, "probe": probe}))
        return 0

    setup_s = _setup_seconds(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.build(args.workload, args.seed, Path(tmp))
        ops = len(wl.inputs)
        outs, digests, nbytes = _checked_pass(wl, workloads.outcome)
        gc.collect()
        if args.trace:
            import tracing
            base_s, _, _, mismatched = _passes(wl, workloads.outcome, digests, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                pass_s, _, _, more = _passes(wl, workloads.outcome, digests, args.seconds / 2)
            finally:
                tracer.uninstall()
            mismatched += more
            passes = len(base_s) + len(pass_s)
            metrics = tracer.metrics(len(pass_s) * ops)
            metrics["cli.bytes_written_per_op"] = nbytes / ops
            metrics["trace.overhead_us_per_op"] = (
                float(np.median(pass_s) - np.median(base_s)) / ops * 1e6)
            units = tracing.metric_units()
        else:
            pass_s, op_s, wall_s, mismatched = _passes(wl, workloads.outcome, digests, args.seconds)
            # read before the checks, whose reference work is not the program's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes = len(pass_s)
            metrics = {
                "setup_s": setup_s,
                "throughput_ops_s": ops / float(np.median(pass_s)),
                "latency_p50_us": float(np.median(op_s)) * 1e6,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "throughput_ops_s": "ops/s",
                     "latency_p50_us": "us", "peak_rss_mb": "MB"}
            print(f"perfbench: {args.workload} seed {args.seed}: {passes} passes of "
                  f"{ops} ops, p90 {np.percentile(op_s, 90) * 1e6:.1f} us, "
                  f"wall-clock {passes * ops / wall_s:.4g} ops/s", file=sys.stderr)
        failed, problems = _check(wl, outs)

    for line in problems:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    if mismatched:
        print(f"perfbench: {mismatched} ops differed from the checked pass", file=sys.stderr)
    result = {
        "correct": not problems and not mismatched,
        "attempted": passes * ops,
        "failed": passes * len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
