#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise it; optionally write the baseline.

    python3 bench/baseline.py [--seeds 0 1 2 ...] [--workloads sweep oracle] \\
        [--against bench/baseline.json] [--write bench/baseline.json]

For each workload, makes one untraced run per seed (seeds 0..9 unless given;
repeat a seed to see the machine's noise without the seeds' differences in
work), one run at a time, each measuring for BENCHMARK.json's run_seconds.
Prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound in
BENCHMARK.json.  Exits non-zero when an operation failed, when a spread other
than setup_s's exceeds its bound, or, with ``--against``, when a median is
worse than the earlier set's by more than the bound: the rules a benchmark's
two sets of runs are held to.  setup_s's spread is exempt because set-up is
judged only by its median's drift; a spread at or above a third of the bound is
flagged as not steady but does not fail.  ``--write`` adds one traced run
per workload on the first seed and stores the medians, quartiles, traced
per-layer values, the seeds and the environment record as the baseline.
Seed HELD_OUT_SEED is not used here: later claims are re-checked on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 1000


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment "))
    return {"environment": env, **json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(10)))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    out: dict = {"seeds": args.seeds, "held_out_seed": HELD_OUT_SEED,
                 "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        results = [run(workload, seed, SPEC["run_seconds"], 0) for seed in args.seeds]
        out["environment"] = results[0]["environment"]
        entry: dict = {"end_to_end": {}, "failed": sum(r["failed"] for r in results),
                       "attempted": sum(r["attempted"] for r in results)}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            failures = []
            if stats["spread"] > bound and name != "setup_s":
                failures.append("SPREAD ABOVE BOUND")
            drift = ""
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                drift = f" vs earlier {stats['median'] / before - 1:+.4f}"
                if stats["median"] > before * (1 + bound):
                    failures.append("WORSE THAN EARLIER BY MORE THAN BOUND")
            ok &= not failures
            steady = "" if stats["spread"] < bound / 3 else "  not steady"
            print(f"{workload:14s} {name:12s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.4f} (bound {bound:.4f}){drift}{steady}"
                  f"{''.join('  ' + f for f in failures)}", flush=True)
        print(f"{workload:14s} {entry['failed']} of {entry['attempted']} operations failed",
              flush=True)
        ok &= entry["failed"] == 0
        if args.write:
            traced = run(workload, args.seeds[0], SPEC["run_seconds"], 1)
            entry["per_layer_first_seed"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
