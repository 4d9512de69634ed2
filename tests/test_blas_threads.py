"""``sweep-k`` artifacts do not depend on the BLAS thread count.

Each config runs in two fresh interpreters, at
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


def _sweep(config: Path, out: Path, threads: int) -> dict[str, bytes]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "kstepkd.cli", "--config", str(config), "--out", str(out),
         "sweep-k"],
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
    files_one, files_two = _sweep(config, one, 1), _sweep(config, two, 2)
    assert files_one.keys() == files_two.keys() and len(files_one) > 5
    # the one difference allowed in config.json is the out_dir each run was given
    files_one["config.json"] = files_one["config.json"].replace(
        json.dumps(str(one)).encode(), json.dumps(str(two)).encode()
    )
    differing = [rel for rel in files_one if files_one[rel] != files_two[rel]]
    assert differing == []
