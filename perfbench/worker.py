"""The measured process: imports rmlab, builds the seeded inputs and runs
rounds of one workload until the run length is used up.

Started by ``run.py``, which passes the CLOCK_MONOTONIC time just before it
started this interpreter, so that set-up is timed from the process start.
Prints one JSON object with the raw measurements on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import refkernel
import workloads  # imports rmlab
from oracles import CheckFailed

MIN_ROUNDS = 3          # round 0 warms caches; the rest are measured
KERNEL_SAMPLES = 3      # kernel samples taken after every operation


def run_round(ops, probe, before: list[float], tracer=None) -> dict:
    """Run one round of operations.

    Each operation's time is normalised by the median kernel sample over the
    samples taken just before it, during it (by the probe) and just after
    it; the samples taken during it are subtracted from its time."""
    raw = norm = 0.0
    failed = wrong = 0
    errors = []
    slots = {}
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        probe.start()
        t0 = time.perf_counter()
        try:
            result = op.call()
            ok = True
        except Exception as exc:  # an rmlab error (or any fault) fails the operation
            ok = False
            errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        during, spent = probe.stop()
        dt -= spent
        if ok:
            try:
                op.check(result)
            except CheckFailed as exc:
                ok = False
                wrong += 1
                errors.append(f"{op.kind}: check failed: {exc}")
        failed += not ok
        after = refkernel.samples(KERNEL_SAMPLES)
        op_norm = dt * refkernel.NOMINAL_S / statistics.median(before + during + after)
        before = after
        raw += dt
        norm += op_norm
        slots[op.slot] = op_norm
    return {"ops": len(ops), "failed": failed, "wrong": wrong, "raw_s": raw,
            "norm_s": norm, "slots": slots, "kernel_after": before, "errors": errors}


def slot_median_sum(rounds) -> float:
    """Normalised time of one round: the sum over the round's slots of the
    slot's median normalised time across the given rounds.

    A host burst that one operation's neighbouring kernel runs miss lengthens
    that operation alone; the per-slot median drops it, where a median of
    round sums keeps every burst of the chosen round."""
    return sum(statistics.median(x["slots"][s] for x in rounds) for s in rounds[0]["slots"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time and exit")
    args = ap.parse_args(argv)

    first = workloads.build_round(args.workload, args.seed, 0)
    setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_raw_s": setup_raw}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    probe = refkernel.Probe()
    k_prev = refkernel.samples(KERNEL_SAMPLES)
    t_begin = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - t_begin < args.seconds:
        ops = first if r == 0 else workloads.build_round(args.workload, args.seed, r)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            res = run_round(ops, probe, k_prev, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        res["traced"] = traced
        k_prev = res["kernel_after"]
        rounds.append(res)
        r += 1

    measured = rounds[1:]
    plain = [x for x in measured if not x["traced"]]
    out = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "attempted": sum(x["ops"] for x in rounds),
        "failed": sum(x["failed"] for x in rounds),
        "wrong": sum(x["wrong"] for x in rounds),
        "errors": [e for x in rounds for e in x["errors"]][:20],
        "setup_raw_s": setup_raw,
        "norm_s": slot_median_sum(plain),
        "raw_round_s": statistics.median(x["raw_s"] for x in plain),
        "warmup_norm_s": rounds[0]["norm_s"],
        "round_norm_s": [x["norm_s"] for x in rounds],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced = [x for x in measured if x["traced"]]
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead"] = slot_median_sum(traced) / slot_median_sum(plain)
        out["layers"] = layers
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
