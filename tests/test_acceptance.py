"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line at its stated tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
from helpers import (
    random_bit_dataset,
    random_records,
    train_step_gradient_error,
    twelve_bit_schema,
)

from edm_rulex import cli, studydata
from edm_rulex.evolver import GaConfig, evolve
from edm_rulex.neural import (
    Network,
    TrainConfig,
    class_score,
    forward,
    init_network,
    train,
)
from edm_rulex.psychostats import (
    anova_oneway,
    anova_row_from_summary,
    manova_wilks,
    partial_r,
    reg_inc_beta,
    t_test_from_summary,
    varimax_rotate,
)
from edm_rulex.schema import encode_dataset
from edm_rulex.synthgen import sample_population


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_reference_t_value():
    res = t_test_from_summary(11.84, 2.86, 49, 13.73, 1.67, 48, method="welch")
    ok = abs(res.t - 3.99) <= 0.05 and res.p < 0.01
    _criterion(1, "reference t-test arithmetic", ok, f"t={res.t:.4f} p={res.p:.2e}")


def test_criterion_2_variance_table_rows():
    worst_f, worst_eta = 0.0, 0.0
    ok = True
    for dim, (ss_h, ss_e, df_h, df_e, f_ref, eta_ref) in studydata.ANOVA_LEARNING_SKILLS.items():
        row = anova_row_from_summary(ss_h, ss_e, df_h, df_e)
        worst_f = max(worst_f, abs(row.f - f_ref))
        worst_eta = max(worst_eta, abs(row.eta_squared - eta_ref))
        ok = ok and abs(row.f - f_ref) <= 0.1 and abs(row.eta_squared - eta_ref) <= 0.01
    _criterion(
        2,
        "variance table rows (8 dimensions)",
        ok,
        f"max |dF|={worst_f:.3f} (tol 0.1), max |d eta^2|={worst_eta:.4f} (tol 0.01)",
    )


def test_criterion_3_wilks_identity():
    ok = all(
        abs((1 - lam) - eta) <= 0.005 for lam, eta in studydata.WILKS_REPORTED.values()
    )
    rng = np.random.default_rng(14)
    exact = True
    for _ in range(5):
        a = rng.normal(size=(18, 3))
        b = rng.normal(loc=0.5, size=(21, 3))
        res = manova_wilks([a, b])
        exact = exact and res.eta_squared == 1.0 - res.wilks_lambda
    _criterion(3, "Wilks lambda / eta identity", ok and exact, "3 reported pairs + exact on synthetic")


def test_criterion_4_ga_optimality_oracle():
    schema = twelve_bit_schema()
    rng = np.random.default_rng(1)
    records = random_records(schema, 80, rng)
    encoded = encode_dataset(records, schema)
    tc = TrainConfig(max_epochs=80, hidden_size=6, seed=2)
    net = train(init_network(schema, tc), encoded, tc).network

    start = time.time()
    true_max = max(
        forward(net, (i >> np.arange(12)) & 1)[0] for i in range(2**12)
    )
    hits = 0
    sound = True
    for seed in range(100):
        result = evolve(
            class_score(net, [0]),
            12,
            GaConfig(population_size=100, generations=60, mutation_prob=0.05),
            [seed],
        )[0]
        sound = sound and result.best_fitness <= true_max
        if result.best_fitness == true_max:
            hits += 1
    elapsed = time.time() - start
    ok = hits >= 95 and sound and elapsed < 60
    _criterion(4, "GA equals exhaustive optimum", ok, f"{hits}/100 exact, {elapsed:.1f}s")


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(4242)
    dataset = random_bit_dataset(10, rng)
    worst = 0.0
    for _ in range(20):
        net = Network(
            v=rng.uniform(-0.7, 0.7, (3, 6)),
            b_h=rng.uniform(-0.7, 0.7, 3),
            w=rng.uniform(-0.7, 0.7, (2, 3)),
            b_o=rng.uniform(-0.7, 0.7, 2),
        )
        worst = max(worst, train_step_gradient_error(net, dataset, eps=1e-4))
    _criterion(5, "backprop vs finite differences", worst < 1e-5, f"max rel err {worst:.2e}")


def test_criterion_6_planted_rule_recovery(tmp_path):
    planted = tmp_path / "planted.json"
    planted.write_text(
        json.dumps(
            {
                "rules": [
                    {"when": {"Unit 1": ["F"]}, "then": "F"},
                    {"when": {"Unit 2": ["F"]}, "then": "F"},
                    {"when": {}, "then": "P"},
                ],
                "noise": 0.0,
            }
        )
    )
    # independent attributes: under the default one-factor cohort the units
    # are collinear and rules on other units hold exactly, which is outside
    # this criterion's premise that only Unit 1 / Unit 2 carry signal
    base = studydata.default_population_spec()
    d = len(base.dimensions)
    identity = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))
    spec_doc = base.to_dict()
    for group in spec_doc["groups"].values():
        group["correlation"] = [list(row) for row in identity]
    spec_path = tmp_path / "independent.json"
    spec_path.write_text(json.dumps(spec_doc))
    seed = "13"
    assert (
        cli.main(
            [
                "generate",
                "--spec", str(spec_path),
                "--out", str(tmp_path),
                "--seed", seed,
                "--n", "2000",
                "--planted", str(planted),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "train",
                "--data", str(tmp_path / "cohort.csv"),
                "--out", str(tmp_path),
                "--seed", seed,
                "--epochs", "300",
                "--mse-target", "1e-5",
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "extract",
                "--data", str(tmp_path / "cohort.csv"),
                "--model", str(tmp_path / "model.json"),
                "--out", str(tmp_path),
                "--seed", seed,
                "--pop", "100",
                "--generations", "60",
                "--budget", "4",
            ]
        )
        == 0
    )
    doc = json.loads((tmp_path / "ruleset.json").read_text())
    accuracy = doc["training_accuracy"]
    attrs = {t["attribute"] for r in doc["rules"] for t in r["terms"]}
    ok = accuracy >= 0.98 and attrs <= {"Unit 1", "Unit 2"}
    _criterion(
        6,
        "planted rule recovery through the CLI",
        ok,
        f"accuracy={accuracy:.3f}, rule attributes={sorted(attrs)}",
    )


def test_criterion_7_statistical_oracles():
    rng = np.random.default_rng(77)

    def residual_partial(x, y, z):
        design = np.column_stack([np.ones_like(z), z])
        rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
        ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))

    partial_worst = 0.0
    for _ in range(1000):
        z = rng.normal(size=25)
        x = 0.5 * z + rng.normal(size=25)
        y = -0.4 * z + rng.normal(size=25)
        partial_worst = max(partial_worst, abs(partial_r(x, y, z) - residual_partial(x, y, z)))

    manova_worst = 0.0
    for _ in range(20):
        a = rng.normal(size=(10, 1))
        b = rng.normal(loc=0.3, size=(12, 1))
        res = manova_wilks([a, b])
        row = anova_oneway([a.ravel(), b.ravel()])
        manova_worst = max(manova_worst, abs(res.f - row.f) / max(1.0, abs(row.f)))

    commun_worst = 0.0
    for _ in range(20):
        loadings = rng.normal(scale=0.5, size=(9, 3))
        before = (loadings**2).sum(axis=1)
        after = (varimax_rotate(loadings) ** 2).sum(axis=1)
        commun_worst = max(commun_worst, float(np.abs(before - after).max()))

    beta_worst = max(
        abs(reg_inc_beta(x, 1, 1) - x) for x in np.linspace(0, 1, 101)
    )
    ok = (
        partial_worst <= 1e-10
        and manova_worst <= 1e-9
        and commun_worst <= 1e-8
        and beta_worst <= 1e-12
    )
    _criterion(
        7,
        "statistical oracles",
        ok,
        f"partial {partial_worst:.1e}, manova {manova_worst:.1e}, "
        f"communality {commun_worst:.1e}, beta {beta_worst:.1e}",
    )


def test_criterion_8_synthetic_fidelity():
    spec = studydata.default_population_spec(n_male=10000, n_female=10000, seed=8)
    cohort = sample_population(spec)
    worst_z, worst_dr = 0.0, 0.0
    for token, g in spec.groups.items():
        rows = cohort.groups[token]
        sds = np.asarray(g.sds)
        means = np.asarray(g.means)
        z = np.abs(rows.mean(axis=0) - means) / (sds / math.sqrt(g.n))
        worst_z = max(worst_z, float(z.max()))
        sample_corr = np.corrcoef(rows, rowvar=False)
        spec_corr = np.asarray(g.correlation)
        mask = ~np.eye(len(spec.dimensions), dtype=bool)
        worst_dr = max(worst_dr, float(np.abs(sample_corr - spec_corr)[mask].max()))
    ok = worst_z <= 3.0 and worst_dr <= 0.05
    _criterion(
        8,
        "10k-per-group cohort fidelity",
        ok,
        f"worst mean z={worst_z:.2f} (tol 3), worst |dr|={worst_dr:.3f} (tol 0.05)",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    artifacts = (
        "cohort.csv",
        "cohort.raw.csv",
        "cohort.meta.json",
        "cohort.npy",
        "cohort.raw.npy",
        "model.json",
        "train_log.json",
        "ruleset.json",
        "rules.txt",
        "stats.json",
        "report.txt",
    )

    def pipeline(out):
        seed = "21"
        assert cli.main(["generate", "--out", str(out), "--seed", seed, "--n", "400"]) == 0
        assert cli.main(["train", "--data", str(out / "cohort.csv"), "--out", str(out), "--seed", seed, "--epochs", "60"]) == 0
        assert (
            cli.main(
                [
                    "extract",
                    "--data", str(out / "cohort.csv"),
                    "--model", str(out / "model.json"),
                    "--out", str(out),
                    "--seed", seed,
                    "--pop", "40",
                    "--generations", "25",
                    "--budget", "2",
                ]
            )
            == 0
        )
        assert cli.main(["stats", "--data", str(out / "cohort.csv"), "--out", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    pipeline(a)
    pipeline(b)
    different = [
        name for name in artifacts if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    _criterion(
        9,
        "end-to-end byte determinism",
        not different,
        "all artifacts byte-identical" if not different else f"differ: {different}",
    )
