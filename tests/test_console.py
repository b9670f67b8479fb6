"""The one CLI check that needs processes of its own: CPU affinity.

``extract`` covers its classes in one process per usable CPU.  A process
pinned to one CPU, as ``taskset -c 0 edm-rulex extract ...`` pins it, forks
none and writes the same bytes.  The pin is set with ``os.sched_setaffinity``
in the child before ``cli.main`` runs, not in a ``preexec_fn``, which is not
safe in a process with threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edm_rulex import cli, util

CHILD = (
    "import json, os, sys\n"
    "from edm_rulex import cli\n"
    "if sys.argv[1] == 'one':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "for argv in json.loads(sys.argv[2]):\n"
    "    assert cli.main(argv) == 0, argv\n"
)


@pytest.mark.skipif(util._usable_cpus() < 2, reason="needs 2 usable CPUs to compare one CPU with all")
def test_extract_on_one_cpu_writes_the_bytes_of_all_cpus(study_run, tmp_path):
    # at budget 12 class G stops in round 5, inside the batch of rounds 4-7,
    # and classes F, P and V.G in rounds 4, 3 and 2
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    budgets = ("5", "12")
    for cpus in ("all", "one"):
        stages = [
            ["extract", "--data", str(study_run / "cohort.csv"), "--model", str(study_run / "model.json"),
             "--budget", budget, "--seed", "7", "--out", str(tmp_path / cpus / budget)]
            for budget in budgets
        ]
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, cpus, json.dumps(stages)], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
    for budget in budgets:
        for name in ("ruleset.json", "rules.txt"):
            got = (tmp_path / "one" / budget / name).read_bytes()
            assert got == (tmp_path / "all" / budget / name).read_bytes(), (budget, name)
