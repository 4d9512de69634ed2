#!/usr/bin/env python3
"""kstepkd benchmark: one workload per run, timed from outside the program.

    python3 bench/run.py --workload {sweep,oracle,bias-variance} --seed N \\
        --seconds S --trace {0,1} [--tiny]

It imports kstepkd from the ``src/`` next to this directory and fails (non-zero
exit, no result) when that source is missing.  The workloads are described in
``workloads.py``; BENCHMARK.json lists sweep and oracle, and bias-variance
runs by hand the same way.  Each is a closed loop: one top-level call at a
time from this process (sweep fans out to nproc pipeline workers inside the
call).  Every call's outputs are checked, and a failed check counts as a
failed operation.

--trace 0 measures the end-to-end metrics: ``setup_s`` (median time from a
fresh interpreter until kstepkd and its pipeline are imported and the
workload's config is validated; two interpreters before each call, at least
nine in all), ``wall_s`` and ``cpu_s`` per top-level call (their totals over
the calls made in about ``--seconds``, divided by the number of calls: the
inverse of throughput), and ``peak_rss_mb``.  ``error_rate``
(failed / attempted operations) is printed, and reaches the JSON line as its
``attempted`` and ``failed`` counts: a metric there may not read 0.

--trace 1 runs the workload once untraced, as a reference, and once with
every layer's public functions wrapped in spans (``spans.py``), and reports
the per-layer metrics.  Sweep's traced call runs its seeds in process with
threads=1, since no wrapper reaches inside pool workers; it makes one more
untraced call at threads=nproc, the base of ``pipeline.fanout_speedup``.

BLAS runs with OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = nproc, the count a
user gets by default, set before numpy loads here and in every worker.

Every metric is printed as ``name value unit``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The
environment record and the result go to ``.bench_out/`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "oracle", "bias-variance")
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_SAMPLES = 9

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import kstepkd, kstepkd.pipeline
from kstepkd.config import from_dict
from_dict(json.loads(sys.argv[2]))
print(time.perf_counter())
"""


def import_program() -> None:
    """Put the checkout's src/ first on the path and insist kstepkd loads from it."""
    if not (SRC / "kstepkd" / "__init__.py").is_file():
        sys.exit(f"bench: no kstepkd source under {SRC}")
    sys.path.insert(0, str(SRC))
    import kstepkd

    if Path(kstepkd.__file__).resolve().parent != (SRC / "kstepkd").resolve():
        sys.exit(f"bench: kstepkd imported from {kstepkd.__file__}, not from {SRC}")


def measure_setup(overrides: dict) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    kstepkd and validated the config (perf_counter is system-wide)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(overrides)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1]) - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "src_lines": src_lines,
    }


def untraced(run, overrides: dict, nproc: int, seconds: float) -> tuple[dict, list, list]:
    # set-up is sampled between the calls, so that its median spans the
    # machine's speed over the whole run, not over its first seconds; a call
    # is started only while it should end no later than half a call past
    # --seconds, so a run measures --seconds give or take half a call
    setup, outcomes = [], []
    start = time.perf_counter()
    per_call = 0.0
    while not outcomes or time.perf_counter() - start + per_call / 2 < seconds:
        setup += [measure_setup(overrides) for _ in range(2)]
        outcomes.append(run(nproc))
        per_call = (time.perf_counter() - start) / len(outcomes)
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(overrides))
    # the mean, not the median, of a run's calls: on sweep each call's
    # teacher fit spends a varying share of its epochs in the slow mode of
    # BLAS oversubscription, and the mean moves with that share where the
    # median of a few calls jumps from call to call
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(o.wall for o in outcomes), "s"),
        "cpu_s": (statistics.fmean(o.cpu for o in outcomes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"setup_s: median of {len(setup)} interpreters",
             f"wall_s, cpu_s: mean of {len(outcomes)} calls"]
    return metrics, outcomes, notes


def traced(run, workload: str, seed: int, nproc: int) -> tuple[dict, list, list]:
    from spans import SpanStats, Tracer, per_layer_metrics, rl_split

    outcomes = []
    pool_wall = None
    if workload == "sweep":
        outcomes.append(run(nproc))
        pool_wall = outcomes[-1].wall
    outcomes.append(run(1))
    reference = outcomes[-1].wall
    with Tracer() as tracer:
        tracer.set_workload(f"{workload}:seed{seed}")
        outcomes.append(run(1))
    overhead = 100.0 * (outcomes[-1].wall - reference) / reference
    tracer.save(OUT / f"spans_{workload}.npz")
    stats = SpanStats(tracer)
    rows = per_layer_metrics(stats, pool_wall, overhead)
    metrics = {name: (value, unit) for name, value, unit, _ in rows}
    absent = [name for name, _, _, present in rows if not present]
    notes = [f"untraced reference call {reference!r} s, traced call {outcomes[-1].wall!r} s, "
             f"{len(stats.data['duration'])} spans"]
    split = rl_split(stats)
    if split:
        notes.append("RL stage split: " + ", ".join(f"{k} {v:.1%}" for k, v in split.items()))
    if absent:
        notes.append("absent metrics: " + ", ".join(absent))
    if tracer.absent:
        notes.append("absent wrapped names: " + ", ".join(tracer.absent))
    return metrics, outcomes, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the tiny C11 config (harness self-test)")
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    os.environ.update({var: str(nproc) for var in BLAS_VARS})  # before numpy loads
    import_program()
    import workloads

    env = environment(nproc)
    print("environment " + json.dumps(env, sort_keys=True))
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.prepare(args.workload, args.seed, nproc, args.tiny, scratch)
        if args.trace:
            metrics, outcomes, notes = traced(run, args.workload, args.seed, nproc)
        else:
            overrides = workloads.config_overrides(args.workload, args.seed, nproc, args.tiny)
            metrics, outcomes, notes = untraced(run, overrides, nproc, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for err in o.errors:
            print(f"failed: {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} calls, {attempted} operations")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} ratio ({failed} of {attempted} operations failed)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "args": vars(args), "notes": notes,
                    "calls": [{"wall": o.wall, "cpu": o.cpu} for o in outcomes], **result},
                   indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
