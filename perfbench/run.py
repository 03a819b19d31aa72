"""cpckit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep-c6 --seed 0 --seconds 30 --trace 0

Run from the repository root (the script changes to it either way). It
imports cpckit from ``src/`` of the same checkout and refuses to run
without it. Every unit's answers are checked against the reference
recorded for the seed's pool index (see workloads.py).

``--trace 0`` sets up repeatedly, repeats the workload's unit of work for
about ``--seconds``, and reports the end-to-end metrics. Times are
host-speed corrected (see HostClock); the raw wall times are in the info
line.

- ``setup_s``: median time of one set-up;
- ``wall_s``: median time of one unit;
- ``queries_per_s``: queries answered per second of unit time;
- ``query_p50_ms``, ``query_p90_ms``: per-query answer latency, the median
  over units of each unit's percentile. A query's latency is the time of
  the call that returned its answer, so every row of a batch call gets the
  batch's time. The per-unit p99 (1000 samples, 10 beyond it, on
  online-route) is recorded in the info line; it moves with the host's
  noise too much to hold a bound;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates an untraced and a traced pass (set-up plus one
unit), reports the per-layer metrics of spans.py from the traced passes
(raw wall times) and the time tracing added, and writes the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run and its environment (nproc, Python, numpy, BLAS and
its thread count, git commit, src/ digest and line count).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

# One process, no worker threads: BLAS reads these when numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SECONDS = 1.0
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.25
PROBE_REF_S = 1e-3


def prepare() -> None:
    """Work from the checkout root and import cpckit from its src/ only."""
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        import cpckit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import cpckit from {SRC}: {e}")
    if not Path(cpckit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: cpckit came from {cpckit.__file__}, not {SRC}")


def unit_of(metric: str) -> str:
    """Unit from the name's last dotted part with a unit suffix, so that
    ``classifiers.fit_s.softmax`` reads seconds; anything else counts."""
    for part in reversed(metric.split(".")):
        for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                             ("_mb", "MB"), ("_share", "ratio"), ("_pct", "%")):
            if part.endswith(suffix):
                return unit
    return "count"


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest rank: the smallest sample with at least q of all at or below it."""
    return sorted_samples[max(0, math.ceil(q * len(sorted_samples)) - 1)]


def _blas_threads_in_effect():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # benchmark checkouts are not git repositories
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _probe_kernel(points, onehot, X, y, rows):
    """A fixed mix of the work the workloads do: nearest-neighbour search
    and sorted cumulative class counts over 800 rows (routing, forest
    splits) and 20 steps of a 25-point binary softmax fit (discriminator)."""
    for q in range(4):
        np.argsort(np.sum((points - points[q]) ** 2, axis=1), kind="stable")
        np.cumsum(onehot[np.argsort(points[:, q], kind="stable")], axis=0)
    W, b = np.zeros((2, X.shape[1])), np.zeros(2)
    for _ in range(20):
        z = X @ W.T + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        W -= 0.05 * (p.T @ X) / len(X)
        b -= 0.05 * p.mean(axis=0)


class HostClock:
    """Work time corrected for the host's speed.

    On a shared 2-core VM the same code was measured running up to 1.8x
    faster or slower for seconds to minutes at a time, which no median over
    runs removes.
    While the clock is entered, a SIGALRM every PROBE_INTERVAL_S runs a
    fixed probe kernel in this thread and records when it ran. ``work``
    times a call minus the probes inside it, and ``corrected`` turns that
    into seconds on a host where the probe takes PROBE_REF_S, using the
    probes that ran within PROBE_WINDOW_S of the call. A clock that is
    never entered runs no probes and corrects nothing.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)
        self._starts: list[float] = []
        rng = np.random.default_rng(0)
        points = rng.standard_normal((800, 8))
        X = points[:25]
        self._args = (points, np.eye(4)[rng.integers(0, 4, 800)], X,
                      (X[:, 0] > 0).astype(np.int64), np.arange(25))

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        _probe_kernel(*self._args)
        self.probes.append((t0, time.perf_counter()))
        self._starts.append(t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def work(self, fn, *args):
        """Call fn; return (result, (start, end, seconds less probes))."""
        n0, t0 = len(self.probes), time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        inside = sum(min(e, t1) - max(s, t0) for s, e in self.probes[n0:] if s < t1)
        return result, (t0, t1, t1 - t0 - inside)

    def corrected(self, timing) -> float:
        """A call's work seconds scaled by PROBE_REF_S over the mean time
        of the probes within PROBE_WINDOW_S of it (at least the 10 nearest)."""
        t0, t1, seconds = timing
        n = len(self._starts)
        if n == 0:
            return seconds
        lo = bisect.bisect_left(self._starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self._starts, t1 + PROBE_WINDOW_S)
        if hi - lo < 10:
            lo = max(0, min(bisect.bisect_left(self._starts, (t0 + t1) / 2) - 5, n - 10))
            hi = lo + 10
        probe = statistics.mean(e - s for s, e in self.probes[lo:hi])
        return seconds * PROBE_REF_S / probe


class Meter:
    """Handed to a workload unit: times each answering call with ``clock``
    and tells ``on_request`` where each request starts."""

    def __init__(self, clock: HostClock, on_request=None):
        self.clock, self.on_request = clock, on_request
        self.calls: list[tuple[tuple, int]] = []  # (timing, queries answered)

    def begin(self, i: int) -> None:
        if self.on_request is not None:
            self.on_request(i)

    def call(self, queries: int, fn, *args):
        result, timing = self.clock.work(fn, *args)
        self.calls.append((timing, queries))
        return result


class Tally:
    """Answers attempted and failed, checked against the reference."""

    def __init__(self, workload, ref):
        self.workload, self.ref = workload, ref
        self.attempted = self.failed = 0

    def check(self, state, out) -> None:
        self.attempted += self.workload.queries(state)
        if self.ref is not None:
            self.failed += self.workload.mismatches(state, out, self.ref)


def _set_up(w, p, tiny, clock, times):
    """Set up repeatedly for SETUP_SECONDS (at least three times); append
    the corrected set-up times."""
    timings = []
    start = time.perf_counter()
    while len(timings) < 3 or time.perf_counter() - start < SETUP_SECONDS:
        state, timing = clock.work(w.setup, p, tiny)
        timings.append(timing)
    times.extend(clock.corrected(t) for t in timings)
    return state


def untraced(w, p, seconds, tally, tiny):
    # Set-up is timed both before and after the units, so that its median
    # spans the run as the units do.
    setup_times, unit_times, raw_unit_times = [], [], []
    p50s, p90s, p99s = [], [], []
    with HostClock() as clock:
        state = _set_up(w, p, tiny, clock, setup_times)
        start = time.perf_counter()
        while True:
            meter = Meter(clock)
            out, timing = clock.work(w.unit, state, meter)
            tally.check(state, out)
            raw_unit_times.append(timing[2])
            unit_times.append(clock.corrected(timing))
            latencies = sorted(
                t for t, n in ((clock.corrected(c), n) for c, n in meter.calls)
                for _ in range(n)
            )
            p50s.append(percentile(latencies, 0.50))
            p90s.append(percentile(latencies, 0.90))
            p99s.append(percentile(latencies, 0.99))
            # Start another unit only if it should end within the run.
            if time.perf_counter() - start + statistics.median(raw_unit_times) > seconds:
                break
        _set_up(w, p, tiny, clock, setup_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(unit_times),
        "queries_per_s": tally.attempted / sum(unit_times),
        "query_p50_ms": 1000.0 * statistics.median(p50s),
        "query_p90_ms": 1000.0 * statistics.median(p90s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = {
        "units": len(unit_times),
        "raw_unit_s": raw_unit_times,
        "raw_queries_per_s": tally.attempted / sum(raw_unit_times),
        "setup_repeats": len(setup_times),
        "probes": len(clock.probes),
        "probe_mean_ms": 1000.0 * statistics.mean(e - s for s, e in clock.probes),
        "latency_samples_per_unit": len(latencies),
        "query_p99_ms_per_unit": [1000.0 * t for t in p99s],
        "samples_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
    }
    return metrics, info


def traced(w, p, seconds, tally, tiny, spans_path, env):
    from spans import Tracer, layer_metrics, median_metrics

    tracer = Tracer()
    plain_times, traced_times, passes = [], [], []

    def one_pass(n):
        def on_request(i):
            tracer.request = f"pass{n}.q{i}"

        tracer.request = f"pass{n}.setup"
        state = w.setup(p, tiny)
        return state, w.unit(state, Meter(HostClock(), on_request))

    start = time.perf_counter()
    while True:
        (state, out), dt = _timed(one_pass, len(passes))
        tally.check(state, out)
        plain_times.append(dt)
        first = len(tracer.spans)
        with tracer:
            (state, out), dt = _timed(one_pass, len(passes))
        tally.check(state, out)
        traced_times.append(dt)
        passes.append(layer_metrics(tracer.spans[first:]))
        pair = plain_times[-1] + traced_times[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = median_metrics(passes)
    plain = statistics.median(plain_times)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_times) - plain) / plain
    info = {
        "passes": len(passes),
        "untraced_pass_s": plain_times,
        "traced_pass_s": traced_times,
        "absent_spans": tracer.absent,
        "spans_file": str(spans_path),
    }
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path, {**env, **info})
    return metrics, info


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; returns (result, info). Call prepare() first."""
    from workloads import OUT, POOL, WORKLOADS, load_refs

    w = WORKLOADS[workload]
    p = seed % POOL
    ref = None if tiny else load_refs(workload)[str(p)]
    tally = Tally(w, ref)
    env = environment()
    if trace:
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        metrics, info = traced(w, p, seconds, tally, tiny, spans_path, env)
    else:
        metrics, info = untraced(w, p, seconds, tally, tiny)
    info = {"workload": workload, "seed": seed, "pool_index": p, "trace": trace,
            "tiny": tiny, "checked": ref is not None,
            "error_rate": tally.failed / tally.attempted, **env, **info}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
