"""One workload process: set up, warm up, then measure entry calls for a fixed time.

Started by run.py with the package's ``src`` on PYTHONPATH.  ``--spawned``
is the parent's ``time.monotonic()`` just before it started this process,
so set-up time covers interpreter start, imports, input generation and the
warm-up.  Prints one JSON object on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import numpy as np
import scipy

import spikesim
import layers
import workloads
from spans import Tracer, install

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    parts = [blas.get("name", "?"), blas.get("version", "?"),
             blas.get("openblas configuration", "")]
    return " ".join(str(p) for p in parts if p)


def manifest(wl, args) -> dict:
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": wl.workers,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "spikesim": spikesim.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
    }


def run_call(wl, k, tally, tracer=None):
    """Run entry call k, inside a root span when traced; returns (wall, cpu, ok)."""
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        with tracer.entry() if tracer else contextlib.nullcontext():
            result = wl.call(k)
    except Exception:
        wall = time.perf_counter() - t0
        traceback.print_exc()
        tally.crash(wl.ops(k), f"call {k} raised")
        return wall, _cpu() - cpu0, False
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    wl.check(k, result, tally)
    return wall, cpu, True


def measure(wl, seconds: float, tally) -> dict:
    """Untraced entry calls until the next one would end past ``seconds``."""
    deadline = time.perf_counter() + seconds
    walls, cpus = [], []
    k = 0
    while True:
        wall, cpu, ok = run_call(wl, k, tally)
        k += 1
        if ok:
            walls.append(wall)
            cpus.append(cpu)
        if time.perf_counter() + statistics.median(walls or [wall]) > deadline:
            break
    if not walls:
        return {}
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
            "wall_samples_s": walls, "cpu_samples_s": cpus}


def measure_traced(wl, seconds: float, tally, spans_path: str) -> dict:
    """Pairs of the same entry call, untraced then traced, for ``seconds``.

    Per-layer numbers come from the traced calls; the overhead is the median
    ratio of traced to untraced wall over the pairs.
    """
    tracer = Tracer()
    targets = workloads.trace_targets()
    deadline = time.perf_counter() + seconds
    ratios = []
    expected, minimum = Counter(), Counter()
    missing = set()
    k = 0
    while True:
        plain, _, ok = run_call(wl, k, tally)
        restore, missing_now = install(tracer, targets)
        try:
            traced, _, ok_traced = run_call(wl, k, tally, tracer)
        finally:
            restore()
        missing |= missing_now
        expected.update(wl.expected(k))
        minimum.update(wl.minimum(k))
        if ok and ok_traced:
            ratios.append(traced / plain)
        k += 1
        if time.perf_counter() + plain + traced > deadline:
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    observed = Counter(s.name for s in tracer.spans)
    unmeasured = layers.unmeasured_spans(observed, expected, minimum, missing)
    for name in sorted(unmeasured):
        print(f"perfbench: layer {name} unmeasured: observed {observed[name]} calls, "
              f"expected {minimum.get(name) or expected[name]}", file=sys.stderr)
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    metrics = layers.per_layer_metrics(tracer.spans, k, wl.workers, wl.mc_samples,
                                       wl.missed, overhead, unmeasured)
    return {"metrics": metrics, "unmeasured": sorted(unmeasured)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.realpath("src")
    if not os.path.realpath(spikesim.__file__).startswith(src + os.sep):
        print(f"perfbench: spikesim imported from {spikesim.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(args.out_dir, args.workload)
    warm_dir = os.path.join(out_dir, "warm-up")
    os.makedirs(warm_dir, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, out_dir)
    warm = workloads.build(args.workload, args.seed, warm_dir, small=True)
    for k in range(warm.period):
        warm.check(k, warm.call(k), workloads.Tally())
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tally = workloads.Tally()
        if args.trace:
            spans_path = os.path.join(args.out_dir, f"{args.workload}-spans.json")
            result.update(measure_traced(wl, args.seconds, tally, spans_path))
        else:
            result.update(measure(wl, args.seconds, tally))
        result.update(attempted=tally.attempted, failed=tally.failed, missed=tally.missed,
                      wrong=tally.wrong, notes=tally.notes, ok_frac=tally.ok_frac,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      manifest=manifest(wl, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
