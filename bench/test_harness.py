"""Self-test of the benchmark harness, on the tiny C11 config.

    python3 -m pytest bench/test_harness.py

Runs every workload (bias-variance too, which BENCHMARK.json does not list)
once untraced and once traced, and checks that every metric BENCHMARK.json
names is printed with its unit (or marked absent) and lands in the final JSON
line.  Then checks that the benchmark refuses to run
without the program's source, that the tracer skips names a refactor removed
and computes self time, and that a failed output check is counted, not
raised.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import TARGETS, SpanStats, Target, Tracer, per_layer_metrics  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    absent = next((ln for ln in lines if ln.startswith("absent metrics: ")), "")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        printed = [ln for ln in lines if ln.startswith(f"{name} ")]
        assert printed and printed[0].endswith(f" {unit}"), name
        if not trace:
            assert value > 0, name
        elif name in absent:
            assert value == 0, name
    assert any(ln.startswith("error_rate 0.0 ratio") for ln in lines)
    assert any(ln.startswith("environment {") for ln in lines)


def test_missing_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "oracle", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_absent_names_are_skipped_and_listed():
    targets = (
        Target("returns", "actual_return", "returns"),
        Target("returns", "no_such_function", "returns"),
        Target("models", "LogitModel.no_such_method", "models"),
        Target("no_such_module", "anything", "tasks"),
    )
    from kstepkd import returns

    original = returns.actual_return
    with Tracer(targets) as tracer:
        assert returns.actual_return is not original
    assert returns.actual_return is original
    assert tracer.absent == [
        "returns.no_such_function", "LogitModel.no_such_method", "no_such_module.anything"
    ]
    rows = per_layer_metrics(SpanStats(tracer), None, 0.0)
    present = {name for name, _, _, ok in rows if ok}
    assert "returns.self_s" in present and "tasks.self_s" not in present
    assert "models.logits_calls" not in present
    assert all(value == 0 for name, value, _, ok in rows if not ok)


def test_self_time_excludes_child_spans():
    from kstepkd import returns
    from kstepkd.models import ModelArch, init_model
    from kstepkd.seqmdp import Vocabulary, initial_state, rollout
    from kstepkd.teacher import FrozenModelTeacher

    import numpy as np

    vocab = Vocabulary(size=3, bos_id=0, eos_id=2)
    rng = np.random.default_rng(0)
    policy = init_model(ModelArch("linear", window=2), 3, rng)
    teacher = FrozenModelTeacher(init_model(ModelArch("linear", window=2), 3, rng))
    traj = rollout(policy, initial_state(vocab), 5, mode="sample", rng=rng)
    with Tracer(TARGETS) as tracer:
        tracer.set_workload("unit")
        returns.actual_return(traj, teacher)
    st = SpanStats(tracer)
    assert st.calls("returns.actual_return") == 1
    assert st.calls("returns.trajectory_q_terms") == 1
    assert st.calls("FrozenModelTeacher.q_values") == traj.num_steps
    assert st.calls("LogitModel.logits") == traj.num_steps
    data = st.data
    children = data["duration"][data["parent"] == 0].sum()
    assert data["parent"][0] == -1
    assert data["self"][0] == pytest.approx(data["duration"][0] - children, abs=1e-12)
    assert st.layer_self("returns") + st.layer_self("teacher") + st.layer_self("models") \
        == pytest.approx(data["duration"][0], abs=1e-12)


def test_failed_check_counts_without_crashing(monkeypatch, tmp_path):
    import workloads
    from kstepkd import pipeline

    over = workloads.config_overrides("bias-variance", 0, 1, tiny=True)
    monkeypatch.setattr(pipeline, "sweep_bias_variance", lambda cfg: [])
    out = workloads.run_bias_variance(over)
    assert (out.attempted, out.failed) == (2, 2)

    def diverge(cfg):
        raise FloatingPointError("diverged")

    monkeypatch.setattr(pipeline, "sweep_bias_variance", diverge)
    out = workloads.run_bias_variance(over)
    assert (out.attempted, out.failed) == (2, 2) and "diverged" in out.errors[0]

    # run_pipeline that writes nothing: the check itself raises, and each seed fails
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg, threads=1: None)
    out = workloads.run_sweep(workloads.config_overrides("sweep", 0, 2, tiny=True), 1, tmp_path)
    assert (out.attempted, out.failed) == (2, 2)
