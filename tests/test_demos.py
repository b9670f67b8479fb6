"""Every narrative demo, and every python block of the README, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_code_blocks_run(capsys):
    # every python block, in order, in one namespace: the genetic-search
    # block evolves on the network the quickstart trained
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md (python block {i + 1})", "exec"), namespace)
    assert "→ Then Reasoning =" in capsys.readouterr().out
    best, runs = namespace["best"], namespace["runs"]
    assert np.array_equal(runs[0].best_chromosome, best.best_chromosome)  # "runs[0] equals best"
    assert runs[0].best_fitness == best.best_fitness
