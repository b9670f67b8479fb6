"""One benchmark process: set up, run the pipeline, check it, report.

    python3 perfbench/worker.py {setup|plain|once|traced} WORKLOAD SEED WORK_DIR

Run from the repository root.  The worker imports the package from ``src``,
writes the workload's input files, and prints ``READY`` the moment the first
stage could run; ``run.py`` times set-up up to that line.  A ``setup`` worker
stops there.  Otherwise it runs every stage through ``edm_rulex.cli.main`` in
this one process, then checks the outputs and prints one JSON line.  A
``plain`` worker repeats short stages (see ``STAGE_WINDOW_S``); ``once`` and
``traced`` run each stage once, the latter with spans recorded.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from edm_rulex import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock, WallClock  # noqa: E402
from spans import SpanRecorder, install  # noqa: E402

# Untraced, a stage runs again with the same arguments (it rewrites the same
# bytes) until its runs add up to STAGE_WINDOW_S or it has run MAX_RUNS
# times; the repeats go round the pipeline, so they are spread over the
# run.  Each run is timed by a HostClock, and a stage's time is the median
# of its runs' wall times at the reference host speed (see hostclock.py).
STAGE_WINDOW_S = 2.0
MAX_RUNS = 20


def layer_metrics(rec: SpanRecorder, ruleset_doc: dict, quality: dict[str, float]) -> dict[str, float]:
    """Per-layer figures from one traced pipeline."""
    runs = rec.n_spans("evolver.evolve")
    evals, _ = rec.tally_total("neural.class_score", under="evolver.evolve")
    calls, class_score_s = rec.tally_total("neural.class_score")
    evolve_s = rec.total("evolver.evolve")
    updates = rec.counters.get("neural.pattern_updates", 0)
    train_s = rec.total("neural.train")
    psy_calls, psy_s = rec.tally_total("psychostats")
    accepted = sum(bool(e["accepted"]) for e in ruleset_doc["audit"])
    return {
        "evolver.runs": runs,
        "evolver.fitness_evals": evals,
        "evolver.evolve_s": evolve_s,
        "evolver.operator_s": rec.self_total("evolver.evolve"),
        "evolver.us_per_eval": 1e6 * evolve_s / evals if evals else 0.0,
        "neural.class_score_calls": calls,
        "neural.class_score_s": class_score_s,
        "neural.train_s": train_s,
        "neural.epochs": rec.counters.get("neural.epochs", 0),
        "neural.pattern_updates": updates,
        "neural.us_per_update": 1e6 * train_s / updates if updates else 0.0,
        "neural.final_mse": quality["train_mse"],
        "rulekit.refine_rule_s": rec.total("rulekit.refine_rule"),
        "rulekit.evaluate_rule_calls": rec.tally_total("rulekit.evaluate_rule")[0],
        "rulekit.terms_decoded": rec.counters.get("rulekit.terms_decoded", 0),
        "rulekit.terms_kept": rec.counters.get("rulekit.terms_kept", 0),
        "rulekit.index_s": rec.total("rulekit.index"),
        "rulekit.accuracy_s": rec.total("rulekit.accuracy"),
        "rulekit.covering_rounds": len(ruleset_doc["audit"]),
        "rulekit.accepted_rounds": accepted,
        "rulekit.accept_ratio": accepted / runs if runs else 0.0,
        "rulekit.rule_accuracy": quality["rule_accuracy"],
        "rulekit.rule_fidelity": quality["rule_fidelity"],
        "schema.parse_dataset_csv_s": rec.total("schema.parse_dataset_csv"),
        "schema.encode_dataset_s": rec.total("schema.encode_dataset"),
        "synthgen.sample_population_s": rec.total("synthgen.sample_population"),
        "synthgen.label_s": rec.total("synthgen.label"),
        "psychostats.s": psy_s,
        "psychostats.calls": psy_calls,
        **{f"cli.{stage}_s": rec.total(f"cli.{stage}") for stage in workloads.STAGES},
        "cli.self_s": rec.self_total("cli."),
    }


def wants_more(times: list[float]) -> bool:
    return len(times) < MAX_RUNS and sum(times) < STAGE_WINDOW_S


def run_pipeline(
    workload: str, seed: int, work: Path, inputs: dict, rec: SpanRecorder | None, repeat: bool
) -> dict:
    run_dir = work / "run"
    stages = workloads.stage_argv(workload, seed, inputs, run_dir)
    ops: list[tuple[str, bool, str]] = []
    walls: dict[str, list[float]] = {stage: [] for stage, _ in stages}
    refs: dict[str, list[float]] = {stage: [] for stage, _ in stages}
    last_output: dict[str, str] = {}
    uninstall = install(rec) if rec else None
    try:
        pending, ok = stages, True
        while pending and ok:
            for stage, argv in pending:
                output = io.StringIO()
                with redirect_stdout(output), redirect_stderr(output):
                    with HostClock() if repeat else WallClock() as clock:
                        with rec.span(f"cli.{stage}") if rec else nullcontext():
                            code = cli.main(argv)
                walls[stage].append(clock.wall_s)
                refs[stage].append(clock.ref_s)
                last_output[stage] = output.getvalue().strip()
                ops.append((f"{stage} exits 0", code == 0, last_output[stage]))
                ok = code == 0
                if not ok:
                    break
            pending = [(stage, argv) for stage, argv in stages if repeat and wants_more(walls[stage])]
    finally:
        if uninstall:
            uninstall()
    stage_s = {stage: statistics.median(t) for stage, t in refs.items() if t}
    result = {
        "pipeline_s": sum(stage_s.values()),
        "stage_s": stage_s,
        "wall_stage_s": {stage: statistics.median(t) for stage, t in walls.items() if t},
        "stage_runs": {stage: len(t) for stage, t in walls.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if not all(ok for _, ok, _ in ops):
        return result

    report_out = last_output["report"]
    ops.append(
        (
            "report finds no artifact hash mismatch",
            "hash mismatch" not in report_out and (run_dir / "report.txt").exists(),
            report_out,
        )
    )
    quality, problems, doc = checks.quality(run_dir)
    ops.append(("ruleset metrics equal a recomputation", not problems, "; ".join(problems)))
    result["quality"] = quality
    result["ga_runs"] = len(doc["audit"])
    result["hashes"] = checks.artifact_hashes(run_dir)
    if rec:
        result["layers"] = layer_metrics(rec, doc, quality)
        rec.dump(work / "spans.json")
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    inputs = workloads.write_inputs(workload, seed, work / "inputs")
    print("READY", flush=True)
    if mode == "setup":
        return 0
    rec = SpanRecorder() if mode == "traced" else None
    print(json.dumps(run_pipeline(workload, seed, work, inputs, rec, repeat=mode == "plain")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
