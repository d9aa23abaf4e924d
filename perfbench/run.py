"""spikesim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-z2 --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ok_frac); its ``failed`` counts operations whose output is
wrong, while ok_frac also takes out the statistical acceptance-gate misses
and refused roots, which the manifest lists by name.  With ``--trace 1`` it
holds the per-layer metrics of a separate traced run.  The line before it
is the run manifest.  Both are also written under .perfbench-run/, with the
spans of a traced run.

This process only orchestrates and imports no numerical code.  Set-up time
is the median over several fresh processes, from process start to the first
entry call: the measuring process itself and set-up probes run half before
and half after it, so the samples span the whole run.
The thread environment (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) is passed on
unchanged, because that is what users run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import UNITS as LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-run"
SETUP_PROBES = 6
# the whole run, set-up probes included, is cut off after this many seconds
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}


def _child(args, extra, timeout):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--spawned", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "spikesim", "__init__.py")):
        print("perfbench: run from the repository root (src/spikesim not found)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    cutoff = time.monotonic() + RUN_LIMIT_S

    def probes(count):
        return [_child(args, ["--setup-only"], cutoff - time.monotonic())["setup_s"]
                for _ in range(0 if args.trace else count)]

    try:
        setups = probes(SETUP_PROBES // 2)
        res = _child(args, [], cutoff - time.monotonic())
        setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        named = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in res["metrics"].items()}
    else:
        if "wall_s" not in res:
            print("perfbench: every entry call failed", file=sys.stderr)
            return 1
        setups.append(res["setup_s"])
        values = {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"], "ok_frac": res["ok_frac"]}
        named = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    manifest = dict(res["manifest"], setup_samples_s=setups,
                    wall_samples_s=res.get("wall_samples_s"),
                    cpu_samples_s=res.get("cpu_samples_s"),
                    unmeasured=res.get("unmeasured", []), missed=res["missed"],
                    misses=res["notes"], wrong=res["wrong"])
    result = {"correct": not res["wrong"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": named}
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "result": result}, fh, indent=2)
    for name, m in named.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
