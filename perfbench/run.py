"""rmlab benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of an rmlab checkout.  It times set-up over a few cold
starts of the worker, then starts one single-threaded worker interpreter
(``RMLAB_THREADS=1``) on the checkout's ``src``, which times every
operation, checks every output outside the timed interval and samples the
reference kernel around and during each operation.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Raw wall times and the worker's own summary go
to stderr.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refkernel

HERE = Path(__file__).resolve().parent
NAMES = ("quadric", "two_variable", "cocycle_law", "antisym")
WORKER_TIMEOUT_S = 170
SETUP_STARTS = 5


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        return fail("--seconds must be between 1 and 120")

    root = Path.cwd()
    src = root / "src"
    if not (src / "rmlab" / "__init__.py").is_file():
        return fail(f"no rmlab sources under {src}; run from the root of a checkout")

    env = dict(os.environ, RMLAB_THREADS="1", PYTHONPATH=str(src), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
    setup_s = None if args.trace else time_setup(cmd, env, root)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(clock())], env=env, cwd=root,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return fail("worker printed no result")

    for err in rep["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rep['rounds']} rounds, "
          f"raw {rep['raw_round_s']:.4f} s/round (median), norm {rep['norm_s']:.4f} s/round, "
          f"warm-up round norm {rep['warmup_norm_s']:.4f} s, "
          f"setup raw {rep['setup_raw_s']:.4f} s", file=sys.stderr)
    print("perfbench: normalised s per round: "
          + " ".join(f"{v:.4f}" for v in rep["round_norm_s"]), file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in rep["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "norm_s": {"value": rep["norm_s"], "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": rep["wrong"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def time_setup(cmd, env, root) -> float:
    """Normalised set-up time: the median over SETUP_STARTS cold starts of
    the worker (each timed from just before its start until rmlab is
    imported and the first inputs exist, then exiting) of its time over the
    mean of the reference starts just before and just after it."""
    ratios = []
    ref = refkernel.start_time(root)
    for _ in range(SETUP_STARTS):
        out = subprocess.run(cmd + ["--setup-only", "--spawned-at", repr(clock())], env=env,
                             cwd=root, stdout=subprocess.PIPE, timeout=60, text=True, check=True)
        setup_raw = json.loads(out.stdout.strip().splitlines()[-1])["setup_raw_s"]
        ref_next = refkernel.start_time(root)
        ratios.append(setup_raw / ((ref + ref_next) / 2))
        ref = ref_next
    return refkernel.NOMINAL_START_S * statistics.median(ratios)


def unit_of(name: str) -> str:
    measure = name.rpartition(".")[2]
    if measure == "self_s":
        return "s"
    if measure in ("hit_ratio", "overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
