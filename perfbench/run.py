"""Benchmark of the edm-rulex pipeline: generate -> train -> extract -> stats -> report.

    python3 perfbench/run.py --workload study-97 --seed 7 --seconds 10 --trace 0

Run from the repository root.  Each pipeline runs in a fresh worker process
(``worker.py``), so its peak RSS is its own.  With ``--trace 0`` the run
takes untraced pipelines over successive cohorts of the seed until it has
covered the workload's cohorts and ``--seconds`` have passed, and reports the end-to-end metrics as medians
over them; within a pipeline each stage is repeated and timed at a reference
host speed (``worker.py``, ``hostclock.py``).  With ``--trace 1`` it runs one untraced
and one traced pipeline of the seed's cohort and reports the per-layer
metrics of the traced one, plus the tracing overhead between the two.
Set-up time is sampled in extra workers that stop once the first stage
could run.

Every run checks its outputs (stage exit codes, the report's hash chain,
rule metrics recomputed against the cohort) and its determinism: artifacts
must equal those of every other pipeline of the same workload, seed and
source tree, in this run and, through ``.perfbench_work/ledger.json``, in
earlier runs.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import probe, speed
from workloads import COHORTS, STAGES, WORKLOADS, pipeline_seed

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SETUP_PROBES = 8
DEADLINE_S = 170.0  # the whole run must end within 180 s
# The package's matrices are small; a second BLAS thread only spins, costs
# about a fifth of train's time, and makes every timing depend on what else
# holds the machine's other core.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "pipeline_s": "s",
    "train_s": "s",
    "extract_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_passed": "fraction",
}


class WorkerFailed(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "psychostats.s":
        return "s"
    if ".us_per_" in name:
        return "us"
    if name in ("rulekit.accept_ratio", "rulekit.rule_accuracy", "rulekit.rule_fidelity"):
        return "fraction"
    return "mse" if name == "neural.final_mse" else "count"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = [p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += sorted(HERE.glob("*.py"))
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def spawn(mode: str, workload: str, seed: int, work: Path, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds until READY at the reference host
    speed, its JSON result).  The host's speed is probed just before the
    worker starts and just after it is ready (see hostclock.py)."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(work)],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **ONE_THREAD},
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        probes += [probe() for _ in range(SETUP_PROBES)]
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    setup_s *= speed(probes)
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def print_failures(ops) -> None:
    for name, ok, detail in ops:
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def check_ledger(ledger_path: Path, key: str, hashes: dict) -> bool:
    """True unless an earlier run recorded other artifacts under ``key``."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if key in ledger:
        return ledger[key] == hashes
    ledger[key] = hashes
    tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    tmp.replace(ledger_path)
    return True


def measure(args, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    setup = [
        spawn("setup", args.workload, args.seed, work / f"setup{i}", deadline)[0]
        for i in range(SETUP_SAMPLES)
    ]
    plain: list[dict] = []
    traced = None
    began = time.monotonic()
    while True:
        seed = pipeline_seed(args.seed, len(plain))
        mode = "once" if args.trace else "plain"
        ready_s, result = spawn(mode, args.workload, seed, work / f"plain{len(plain)}", deadline)
        result["seed"] = seed
        setup.append(ready_s)
        plain.append(result)
        elapsed = time.monotonic() - began
        enough = len(plain) >= COHORTS[args.workload] and elapsed >= args.seconds
        if args.trace or enough or elapsed / len(plain) > deadline - time.monotonic():
            break
    if args.trace:
        ready_s, traced = spawn("traced", args.workload, args.seed, work / "traced", deadline)
        traced["seed"] = args.seed
        setup.append(ready_s)

    results = plain + ([traced] if traced else [])
    ops = [op for r in results for op in r["ops"]]
    if not all(ok for _, ok, _ in ops):
        print_failures(ops)
        raise WorkerFailed("a pipeline stage failed")

    digest = source_digest(root)
    if traced:
        ops.append(("traced artifacts equal untraced ones", traced["hashes"] == plain[0]["hashes"], ""))
    for r in results:
        key = f"{args.workload}:{r['seed']}:{digest}"
        same = check_ledger(base / "ledger.json", key, r["hashes"])
        ops.append(("artifacts equal earlier runs of this seed and code", same, key))
    print_failures(ops)
    failed = sum(not ok for _, ok, _ in ops)

    def median(field):
        return statistics.median(field(r) for r in plain)

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["pipeline_s"] - plain[0]["pipeline_s"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "pipeline_s": median(lambda r: r["pipeline_s"]),
            "train_s": median(lambda r: r["stage_s"]["train"]),
            "extract_s": median(lambda r: r["stage_s"]["extract"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
            "ops_passed": (len(ops) - failed) / len(ops),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    if failed == 0:
        for run_dir in work.glob("*/run"):
            shutil.rmtree(run_dir)
    for r in results:
        stages = ", ".join(
            f"{s} {r['stage_s'][s]:.3f} (wall {r['wall_stage_s'][s]:.3f}, x{r['stage_runs'][s]})" for s in STAGES
        )
        q = r["quality"]
        print(
            f"{args.workload} seed {r['seed']}: {stages} s; {r['ga_runs']} GA runs; rule accuracy "
            f"{q['rule_accuracy']:.4f}, fidelity {q['rule_fidelity']:.4f}, train mse {q['train_mse']:.5f}",
            file=sys.stderr,
        )
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "edm_rulex" / "__init__.py").is_file():
        print("error: run from the repository root (src/edm_rulex not found)", file=sys.stderr)
        return 2
    try:
        result = measure(args, root)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
