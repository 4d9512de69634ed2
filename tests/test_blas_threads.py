"""``sweep-k``, ``sweep-bias-variance`` and ``oracle-check`` artifacts do
not depend on the BLAS thread count.

Each config and command runs in two fresh interpreters, at
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS`` 1 and 2 (the variables take effect
only when numpy loads).  Every file must match byte for byte, except
``metadata.json``, which records the variables, and ``config.json``'s
``out_dir``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TINY_CONFIG

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "tiny": TINY_CONFIG,
    # the default model and corpus sizes, so the teacher fit and the RL
    # decode reach the default product shapes, at one seed and few iterations
    "default-shapes": {"seeds": [0], "rl": {"iterations": 10, "eval_every": 5}},
}


def _run(config: Path, out: Path, threads: int, command: str = "sweep-k") -> dict[str, bytes]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "kstepkd.cli", "--config", str(config), "--out", str(out),
         command],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "metadata.json"
    }


@pytest.mark.parametrize("name", CONFIGS)
def test_sweep_k_bytes_equal_at_one_and_two_blas_threads(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    one, two = tmp_path / "one", tmp_path / "two"
    files_one, files_two = _run(config, one, 1), _run(config, two, 2)
    assert files_one.keys() == files_two.keys() and len(files_one) > 5
    # the one difference allowed in config.json is the out_dir each run was given
    files_one["config.json"] = files_one["config.json"].replace(
        json.dumps(str(one)).encode(), json.dumps(str(two)).encode()
    )
    differing = [rel for rel in files_one if files_one[rel] != files_two[rel]]
    assert differing == []


@pytest.mark.parametrize("command, artifact", [
    ("sweep-bias-variance", "bias_variance.csv"),
    ("oracle-check", "oracle_report.csv"),
])
def test_decoding_commands_bytes_equal_at_one_and_two_blas_threads(tmp_path, command, artifact):
    """C11's tiny config through the two other commands that decode: the
    sweep's sampled rollouts and the oracle's Monte-Carlo check."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    files_one = _run(config, tmp_path / "one", 1, command)
    files_two = _run(config, tmp_path / "two", 2, command)
    assert list(files_one) == [artifact]
    assert files_one == files_two
