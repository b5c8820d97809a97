"""One workload run in its own process: set up, warm up, time whole rounds
of items, then check every output.  Prints one JSON object on its last
line.  Started by run.py; not meant to be run by hand.

Set-up covers the interpreter start, the csptopo import, building the
seeded inputs and one warm-up item.  Timing starts after it.  Right after
set-up, before the first round of the timed phase and after each round, a
fixed calibration task (no csptopo code) is timed, which gives the speed
of the host around set-up and around each round.  Every output is
checked after the timed phase by the independent computations in
oracles.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITEMS = 40  # the tail percentile needs ten items beyond it

# The calibration task: GF(2) ranks of fixed integers (pure Python) and the
# mod-2 Betti numbers of a fixed small complex (numpy and Python), both from
# the benchmark's own oracles.  CALIBRATION_REF_S is about its median time
# on the reference host named in README.md.
_cal_rng = np.random.default_rng(20_230_707)
CAL_COLUMNS = [int(x) for x in _cal_rng.integers(1, 1 << 62, size=1200)]
CAL_MEMBERS = np.sort(_cal_rng.choice(1 << 7, size=80, replace=False))
CALIBRATION_REF_S = 0.0100
SETUP_CALIBRATIONS = 7  # calibrations after set-up; their median rates it


def calibration() -> float:
    """Seconds the calibration task takes now."""
    t0 = time.perf_counter()
    oracles.gf2_rank(CAL_COLUMNS)
    oracles.gf2_betti(oracles.face_table(7, CAL_MEMBERS))
    return time.perf_counter() - t0


def slowness(cal_s: list[float]) -> list[float]:
    """Per round, how much slower than the reference host the host ran: the
    mean of the calibrations just before and just after the round, over
    CALIBRATION_REF_S."""
    return [(a + b) / (2.0 * CALIBRATION_REF_S) for a, b in zip(cal_s, cal_s[1:])]


def item_figures(seconds: list[float]) -> dict:
    times_ms = sorted(t * 1000.0 for t in seconds)
    return {
        "items_per_s": len(seconds) / sum(seconds),
        "item_p50_ms": statistics.median(times_ms),
        # the highest item time with ten items beyond it
        "item_tail_ms": times_ms[-11] if len(times_ms) > 10 else times_ms[-1],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import csptopo
    import csptopo.cli as cli

    if not Path(csptopo.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"csptopo imported from {csptopo.__file__}, not this checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]

    def call(argv):
        # cli.main is looked up on each call so that traced runs see the span
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(argv)
        return rc, buffer.getvalue()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = workload.build(args.seed, workdir)
        for output in workload.run(call, workload.warmup(workdir)):
            if output[0] != 0:
                raise SystemExit(f"warm-up item failed: {output}")
        setup_end = time.time()
        setup_slowness = statistics.median(
            calibration() for _ in range(SETUP_CALIBRATIONS)) / CALIBRATION_REF_S
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end, "setup_slowness": setup_slowness}))
            return 0

        rounds = len(pool) // workload.round_kinds

        def run_round(r):
            """Records (pool index, seconds, outputs, error) of round r."""
            records = []
            for k in range(workload.round_kinds):
                index = (r % rounds) * workload.round_kinds + k
                t0 = time.perf_counter()
                try:
                    outputs, error = workload.run(call, pool[index]), None
                except Exception:  # an escaped exception is a failed item
                    outputs, error = None, traceback.format_exc()
                records.append((index, time.perf_counter() - t0, outputs, error))
            return records

        if args.overhead:
            print(json.dumps(dict(overhead(workload, run_round), setup_end=setup_end,
                                  setup_slowness=setup_slowness)))
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()

        records = []
        cal_s = [] if tracer is not None else [calibration()]
        start = time.perf_counter()
        r = 0
        while True:
            records += run_round(r)
            r += 1
            if tracer is not None:
                if r >= workload.trace_rounds:
                    break
                continue
            cal_s.append(calibration())
            if time.perf_counter() - start >= args.seconds and len(records) >= MIN_ITEMS:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, wrong = check(workload, pool, records)
        measured = [rec[1] for rec in records]
        slow = slowness(cal_s)
        kinds = workload.round_kinds
        reference = [t / slow[i // kinds] for i, t in enumerate(measured)] if slow else measured
        result = {
            "setup_end": setup_end,
            "setup_slowness": setup_slowness,
            "attempted": len(records),
            "failed": failed,
            "wrong": wrong,
            "host_slowness": statistics.fmean(slow) if slow else 1.0,
            "measured": item_figures(measured),
            **item_figures(reference),
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["absent"] = tracer.absent
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def overhead(workload, run_round):
    """Tracing overhead on the traced run's rounds: each round runs once
    untraced and once traced, in alternating order, so both sides see the
    same inputs and the same state of the machine."""
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    for r in range(workload.trace_rounds):
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            seconds[traced] += sum(rec[1] for rec in run_round(r))
            if traced:
                tracer.uninstall()
    return {"untraced_s": seconds[False], "traced_s": seconds[True],
            "layers": tracer.metrics(), "absent": tracer.absent}


def check(workload, pool, records):
    """Count failed items (nonzero exit or exception) and wrong outputs."""
    failed = 0
    wrong: list[str] = []
    for index, _, outputs, error in records:
        if error is not None or any(rc != 0 for rc, _ in outputs):
            failed += 1
            continue
        try:
            workload.check(pool[index], outputs)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            wrong.append(f"item {index}: {err!r}")
    return failed, wrong


if __name__ == "__main__":
    sys.exit(main())
