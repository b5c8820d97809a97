"""csptopo benchmark: one seeded workload per call, or a steadiness check.

    python3 perfbench/run.py --workload betti_random --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --steadiness [--seconds 25] [--workload NAME]
    python3 perfbench/run.py --overhead [--seed 1] [--workload NAME]

A measurement runs the workload in a fresh single-threaded Python process
(worker.py) on the csptopo sources of this checkout (``src/``).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` a run
with spans around every layer call prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each set-up and item time is
divided by the host's slowness around it, measured by a calibration task
after set-up and between rounds, so the times read as times on the
reference host (see README.md); the times as measured go to standard
error.

``--steadiness`` runs every workload RUNS times on seeds 1..RUNS, then
again, and compares the spread of each set and the drift between the
two medians with the bounds in BENCHMARK.json.  ``--overhead`` runs each
round of the traced run's items once untraced and once traced, in one
process, and compares the times.  Both write their report to
perfbench/out/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("betti_random", "betti_tractable", "verify_sweep", "classify_relations")
SETUPS = 5  # set-up is repeated this many times per run; the median is reported
RUNS = 10  # runs per set in --steadiness
RUN_LIMIT_S = 170.0  # every run ends within this, or fails


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, trace, deadline, *flags):
    """Run worker.py once; returns its result, and its set-up time as
    measured and at reference host speed."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), *flags]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    setup_s = result["setup_end"] - started
    return result, setup_s, setup_s / result["setup_slowness"]


def measure(workload, seed, seconds, trace):
    """One benchmark run: (the printed summary, the worker's full result)."""
    if not (ROOT / "src" / "csptopo" / "__init__.py").is_file():
        raise BenchError(f"no csptopo sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []  # (as measured, at reference host speed)
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(worker(workload, seed, seconds, 0, deadline, "--setup-only")[1:])
    result, *setup = worker(workload, seed, seconds, trace, deadline)
    setups.append(setup)
    for problem in result["wrong"]:
        print(f"{workload}: wrong output: {problem}", file=sys.stderr)
    if trace:
        if result["absent"]:
            print(f"{workload}: absent from the trace (reported as 0): "
                  + ", ".join(result["absent"]), file=sys.stderr)
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
    else:
        print(f"{workload}: as measured setup_s "
              f"{statistics.median(s[0] for s in setups):.4f}, "
              + ", ".join(f"{k} {v:.4f}" for k, v in result["measured"].items())
              + f"; host slowness {result['host_slowness']:.4f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(s[1] for s in setups), "unit": "s"},
            "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
            "item_p50_ms": {"value": result["item_p50_ms"], "unit": "ms"},
            "item_tail_ms": {"value": result["item_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"correct": not result["wrong"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    return summary, result


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def steadiness(args):
    """Two sets of runs on the same seeds; spread and drift against bounds."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    seeds = list(range(1, RUNS + 1))
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        sets = []
        run_s = []  # wall time of each whole run, set-ups and checks included
        for _ in range(2):
            runs = []
            for seed in seeds:
                started = time.monotonic()
                runs.append(measure(workload, seed, args.seconds, 0)[0])
                run_s.append(time.monotonic() - started)
            sets.append(runs)
        rows = {}
        for name, m in bounds.items():
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats.append({"q1": q1, "median": med, "q3": q3,
                              "spread": (q3 - q1) / med, "values": values})
            worse = stats[1]["median"] / stats[0]["median"] - 1.0
            if m["better"] == "higher":
                worse = -worse
            spread_ok = name == "setup_s" or all(s["spread"] <= m["bound"] for s in stats)
            row_ok = spread_ok and worse <= m["bound"]
            ok = ok and row_ok
            rows[name] = {"sets": stats, "drift": worse, "bound": m["bound"], "ok": row_ok}
            print(f"{workload:18s} {name:13s} median {stats[0]['median']:10.4f} "
                  f"{stats[1]['median']:10.4f}  spread {stats[0]['spread']:6.3f} "
                  f"{stats[1]['spread']:6.3f}  drift {worse:+.3f}  bound {m['bound']}"
                  f"{'' if row_ok else '  OUT OF BOUND'}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok = ok and correct and len(shares) == 1
        report["workloads"][workload] = {
            "metrics": rows, "correct": correct, "run_s_max": max(run_s),
            "run_s_median": statistics.median(run_s),
            "attempted": [[r["attempted"] for r in runs] for runs in sets],
            "failed": [[r["failed"] for r in runs] for runs in sets]}
        report["ok"] = ok
        (OUT / "steadiness.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return ok


def overhead(args):
    """Traced against untraced time on the traced run's items, round by round
    in one process, plus the per-layer figures of the traced rounds."""
    report = {}
    for workload in args.workloads:
        result = worker(workload, args.seed, args.seconds, 1,
                        time.monotonic() + RUN_LIMIT_S, "--overhead")[0]
        plain, traced = result["untraced_s"], result["traced_s"]
        report[workload] = dict(result, overhead=traced / plain - 1.0)
        print(f"{workload:18s} untraced {plain:8.2f} s  traced {traced:8.2f} s  "
              f"overhead {traced / plain - 1:+.2%}", file=sys.stderr)
        (OUT / "overhead.json").write_text(json.dumps(report, indent=1), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        args.workloads = [args.workload] if args.workload else list(WORKLOADS)
        if args.steadiness:
            return 0 if steadiness(args) else 1
        if args.overhead:
            overhead(args)
            return 0
        if not args.workload:
            parser.error("--workload is required")
        summary, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
