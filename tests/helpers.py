"""Independent oracles shared by module tests and the acceptance suite."""

import copy
import io
import json
import math
import statistics
from dataclasses import replace

import numpy as np

from edm_rulex import psychostats, studydata
from edm_rulex.errors import NumericError
from edm_rulex.evolver import EvolutionResult, evolve
from edm_rulex.neural import SIGMOID_CLIP, Network, TrainConfig, TrainResult, class_score, forward, train
from edm_rulex.rulekit import RuleSet, decode_chromosome, evaluate_rule, majority_class, refine_rule
from edm_rulex.schema import Attribute, AttributeSchema, DatasetIndex, ROLE_TARGET, StudentRecord
from edm_rulex.schema import write_index_csv
from edm_rulex.synthgen import TARGET_CHECK_ERROR_RATE
from edm_rulex.util import derive_seed


def batch_loss(net: Network, dataset) -> float:
    # mean over patterns of 0.5 * sum squared output error, via forward() only
    total = 0.0
    for bits, target_index in zip(dataset.bits, dataset.target):
        y = forward(net, bits)
        t = np.zeros(net.output_size)
        t[target_index] = 1.0
        total += 0.5 * float(((y - t) ** 2).sum())
    return total / len(dataset)


def finite_diff_gradients(net: Network, dataset, eps: float = 1e-4) -> dict:
    """Central differences of batch_loss with respect to every parameter."""
    grads = {}
    for name in ("v", "b_h", "w", "b_o"):
        arr = getattr(net, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            up = batch_loss(net, dataset)
            arr[idx] = orig - eps
            down = batch_loss(net, dataset)
            arr[idx] = orig
            g[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads[name] = g
    return grads


def train_step_gradient_error(net: Network, dataset, eps: float = 1e-4) -> float:
    """Worst ``gradient_errors`` over the patterns between the step that
    ``train`` takes on each pattern alone and that pattern's finite
    differences.  At learning rate 1 and no momentum one epoch on one pattern
    moves each weight by minus its gradient, so ``net - stepped`` is the
    gradient ``train`` applies."""
    step = TrainConfig(learning_rate=1.0, momentum=0.0, max_epochs=1, target_mse=1e-300)
    worst = 0.0
    for i in range(len(dataset)):
        pattern = dataset.subset(np.array([i]))
        stepped = train(copy.deepcopy(net), pattern, step).network
        applied = {name: getattr(net, name) - getattr(stepped, name) for name in ("v", "b_h", "w", "b_o")}
        worst = max(worst, gradient_errors(applied, finite_diff_gradients(net, pattern, eps)))
    return worst


def gradient_errors(analytic: dict, numeric: dict):
    """Max relative error per element, with a tiny absolute floor for
    components that cancel to ~0 (relative error is ill-defined there)."""
    worst = 0.0
    for name in analytic:
        a, f = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-30)
        rel = np.abs(a - f) / denom
        rel[np.abs(a - f) <= 1e-10] = 0.0
        worst = max(worst, float(rel.max()))
    return worst


def enumerate_class_scores(net: Network, class_index: int) -> np.ndarray:
    """Every chromosome's class score by direct batch matrix arithmetic."""
    n_bits = net.input_size
    x = ((np.arange(2**n_bits)[:, None] >> np.arange(n_bits)) & 1).astype(float)
    h = 1.0 / (1.0 + np.exp(-(x @ net.v.T + net.b_h)))
    y = 1.0 / (1.0 + np.exp(-(h @ net.w.T + net.b_o)))
    return y[:, class_index]


def twelve_bit_schema() -> AttributeSchema:
    return AttributeSchema(
        (
            Attribute("A", ("a1", "a2", "a3")),
            Attribute("B", ("b1", "b2", "b3")),
            Attribute("C", ("c1", "c2", "c3")),
            Attribute("D", ("d1", "d2", "d3")),
            Attribute("T", ("t1", "t2"), ROLE_TARGET),
        )
    )


def random_bit_dataset(n: int, rng) -> DatasetIndex:
    """n patterns of 6 random bits (not one-hot) with random classes of 2,
    drawn pattern by pattern: the bits, then the class."""
    schema = AttributeSchema(
        (
            Attribute("A", ("a1", "a2", "a3")),
            Attribute("B", ("b1", "b2", "b3")),
            Attribute("T", ("t1", "t2"), ROLE_TARGET),
        )
    )
    rows = [(rng.integers(0, 2, 6, dtype=np.uint8), int(rng.integers(2))) for _ in range(n)]
    return DatasetIndex.from_arrays(schema, [b for b, _ in rows], [k for _, k in rows])


def random_records(schema: AttributeSchema, n: int, rng) -> list:
    out = []
    for _ in range(n):
        values = {a.name: a.levels[rng.integers(len(a.levels))] for a in schema.attributes}
        out.append(StudentRecord(values))
    return out


def _count(rule, records, target: str) -> tuple[int, int]:
    """(support, hits) of a rule by raw set membership over the records."""
    matches = [r for r in records if all(r.values[a] in ls for a, ls in rule.terms)]
    return len(matches), sum(r.values[target] == rule.consequent for r in matches)


def _confidence(rule, records, target: str) -> float:
    support, hits = _count(rule, records, target)
    return hits / support if support else 0.0


def reference_refine(rule, records, schema: AttributeSchema, epsilon: float = 0.0):
    """Greedy backward elimination that re-counts every candidate drop from
    scratch: the oracle for rulekit.refine_rule.

    Each step tries dropping each remaining term (all terms of its attribute)
    and keeps the candidate of highest confidence, the earliest on a tie; the
    drop is accepted when confidence falls by at most epsilon.  Returns the
    rule with support, confidence, coverage and vacuity of the final terms.
    """
    target = schema.target.name
    current = rule
    current_conf = _confidence(current, records, target)
    while current.terms:
        best_candidate, best_conf = None, -1.0
        for attr_name, _ in current.terms:
            candidate = replace(current, terms=tuple(t for t in current.terms if t[0] != attr_name))
            conf = _confidence(candidate, records, target)
            if conf > best_conf:
                best_candidate, best_conf = candidate, conf
        if best_conf >= current_conf - epsilon:
            current, current_conf = best_candidate, best_conf
        else:
            break
    support, hits = _count(current, records, target)
    return replace(
        current,
        support=support,
        confidence=hits / support if support else 0.0,
        coverage=support / len(records),
    )


def reference_sigmoid(u):
    return 1.0 / (1.0 + np.exp(-np.clip(u, -SIGMOID_CLIP, SIGMOID_CLIP)))


def reference_train(net: Network, dataset, config) -> TrainResult:
    """Per-pattern gradient descent with momentum on fresh arrays for every
    update, with a dict of velocities: the oracle for neural.train, which
    must give the same weights and mse history bit for bit.  The mse after
    each epoch is that of ``forward``'s outputs."""
    x = dataset.bits.astype(float)
    t = np.zeros((len(dataset), net.output_size))
    for i, target_index in enumerate(dataset.target):
        t[i, target_index] = 1.0
    rng = np.random.default_rng(config.seed)
    lr, mom = config.learning_rate, config.momentum
    vel = {
        "v": np.zeros_like(net.v),
        "b_h": np.zeros_like(net.b_h),
        "w": np.zeros_like(net.w),
        "b_o": np.zeros_like(net.b_o),
    }
    history: list[float] = []
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(dataset))
        for i in order:
            xi, ti = x[i], t[i]
            h = reference_sigmoid(net.v @ xi + net.b_h)
            y = reference_sigmoid(net.w @ h + net.b_o)
            d_o = (y - ti) * y * (1 - y)
            d_h = (net.w.T @ d_o) * h * (1 - h)
            for name, grad in (
                ("w", np.outer(d_o, h)),
                ("b_o", d_o),
                ("v", np.outer(d_h, xi)),
                ("b_h", d_h),
            ):
                vel[name] = mom * vel[name] - lr * grad
            net.w += vel["w"]
            net.b_o += vel["b_o"]
            net.v += vel["v"]
            net.b_h += vel["b_h"]
        u_h = x @ net.v.T + net.b_h
        u_o = reference_sigmoid(u_h) @ net.w.T + net.b_o
        mse = float(np.mean((forward(net, x) - t) ** 2))
        if not np.isfinite(mse) or max(np.abs(u_h).max(), np.abs(u_o).max()) >= SIGMOID_CLIP:
            raise NumericError(f"reference training failed at epoch {epoch + 1}")
        history.append(mse)
        if mse <= config.target_mse:
            break
    return TrainResult(network=net, mse_history=history)


def written(write, *args) -> str:
    """The text that a stream writer such as ``write_raw_csv`` writes for ``args``."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def index_csv(index: DatasetIndex) -> str:
    """The token CSV of an index: ``write_index_csv`` of its level codes."""
    codes = np.column_stack([index.column(a.name) for a in index.schema.attributes])
    return written(write_index_csv, index.schema, codes)


class ReferenceLockstep:
    """One generator per run, each drawn from on its own: a draw stacks one
    draw per run, in run order."""

    def __init__(self, seeds):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]

    def integers(self, low, high, size, dtype=np.int64):
        return np.array([rng.integers(low, high, size=size[1:], dtype=dtype) for rng in self.rngs])

    def random(self, count):
        """Each run's block of ``count`` uniforms, one row per run."""
        return np.array([rng.random(count) for rng in self.rngs])


def reference_winners(fits, draws):
    """Each row's winners of its tournaments ``draws[..., n, k]``: the draw of
    best fitness, ties to the lowest drawn index."""
    size = fits.shape[-1]
    rows = np.arange(0, fits.size, size).reshape(*fits.shape[:-1], 1, 1)
    drawn = fits.ravel()[draws + rows]
    is_best = drawn == drawn.max(axis=-1, keepdims=True)
    return np.where(is_best, draws, size).min(axis=-1)


def reference_tournament(fits, k, n, rng):
    """Each row's n winners of k draws with replacement from ``rng``."""
    return reference_winners(fits, rng.integers(0, fits.shape[-1], size=(*fits.shape[:-1], n, k)))


def reference_crossover(a, b, cuts, coins):
    """The children of paired rows: pair i swaps its suffixes from cuts[i]
    on where coins[i] is set."""
    swap = (np.arange(a.shape[-1]) >= cuts[..., None]) & coins[..., None]
    differ = (a ^ b) & swap
    return a ^ differ, b ^ differ


def reference_mutate(pop, p, rng):
    """pop with its bits, read in row order, flipped by the mutation clock:
    from position -1, each geometric(p) gap from ``rng`` moves to the next
    bit to flip, until the walk leaves the n bits.  The gaps come in blocks
    of int(n p + 8 sqrt(n p)) + 16, as many as the walk uses, each drawn
    whole; at p = 0 none is drawn and no bit flips."""
    out = pop.copy()
    if p == 0:
        return out
    bits = out.reshape(-1)
    n = bits.size
    block = int(n * p + 8 * math.sqrt(n * p)) + 16
    site = -1
    while True:
        for gap in rng.geometric(p, size=block).tolist():
            site += gap
            if site >= n:
                return out
            bits[site] ^= 1


def reference_evolve(fitness, bit_length: int, configs) -> list[EvolutionResult]:
    """The lockstep GA with a fresh array for every step of every generation:
    the oracle for evolver.evolve, which must give the same champions, best
    fitnesses, histories, ties and champion generations bit for bit.  Each
    generation takes the elites by a stable sort of the fitnesses.  Each
    run then draws one block of 2 pairs (k + 1) uniforms, where pairs is
    ceil(children / 2): the k entrants of each of its 2 pairs tournaments,
    floor(u P), then each pair's crossover coin, u < the crossover
    probability, then each pair's cut, 1 + floor(u (B - 1)), used when there
    are two bits or more.  Each tournament's winner is its entrant of best
    fitness.  Then each run's children go through ``reference_mutate`` with
    its own generator.  A run's ties are the distinct rows of its last
    population whose fitness equals its champion's; its champion generation
    is the last generation in which its best fitness rose, 0 if none did."""
    cfg = configs[0]
    assert all(replace(c, seed=cfg.seed) == cfg for c in configs)
    runs, size, k = len(configs), cfg.population_size, cfg.tournament_size
    n_children = size - cfg.elitism
    pairs = (n_children + 1) // 2
    rng = ReferenceLockstep([c.seed for c in configs])
    each = np.arange(runs)
    first = (each * size)[:, None]

    pop = rng.integers(0, 2, size=(runs, size, bit_length), dtype=np.uint8)
    fits = np.asarray(fitness(pop), dtype=float)
    best = fits.argmax(axis=1)
    champion, champion_fitness = pop[each, best], fits[each, best]
    found = [0] * runs
    history = []
    for gen in range(cfg.generations):
        rows = pop.reshape(-1, bit_length)
        elite = rows[np.argsort(-fits, axis=1, kind="stable")[:, : cfg.elitism] + first]
        entrants, coins, cuts = [], [], []
        for u in rng.random(2 * pairs * (k + 1)).tolist():
            entrants.append([[int(u[i * k + j] * size) for j in range(k)] for i in range(2 * pairs)])
            coins.append([x < cfg.crossover_prob for x in u[2 * pairs * k : 2 * pairs * k + pairs]])
            cuts.append([1 + int(x * (bit_length - 1)) for x in u[2 * pairs * k + pairs :]])
        parents = rows[reference_winners(fits, np.array(entrants)) + first]
        p1, p2 = parents[:, :pairs], parents[:, pairs:]
        if bit_length > 1:
            p1, p2 = reference_crossover(p1, p2, np.array(cuts), np.array(coins))
        children = np.concatenate([p1, p2], axis=1)[:, :n_children]
        children = np.array([reference_mutate(c, cfg.mutation_prob, g) for c, g in zip(children, rng.rngs)])
        pop = np.concatenate([elite, children], axis=1)
        fits = np.asarray(fitness(pop), dtype=float)
        best = fits.argmax(axis=1)
        best_fitness = fits[each, best]
        better = best_fitness > champion_fitness
        champion = np.where(better[:, None], pop[each, best], champion)
        champion_fitness = np.where(better, best_fitness, champion_fitness)
        found = [gen + 1 if b else f for b, f in zip(better.tolist(), found)]
        history.append(champion_fitness)
    histories = np.reshape(history, (cfg.generations, runs)).T.tolist()
    ties = [
        len({tuple(row) for row, fit in zip(pop[r].tolist(), fits[r].tolist()) if fit == champion_fitness[r]})
        for r in range(runs)
    ]
    return [
        EvolutionResult(best_chromosome=champion[r], best_fitness=float(champion_fitness[r]),
                        history=histories[r], champion_ties=ties[r], champion_generation=found[r])
        for r in range(runs)
    ]


def reference_extract(net: Network, index: DatasetIndex, ga_config, budget: int,
                      confidence_threshold: float = 0.7, epsilon: float = 0.0) -> RuleSet:
    """Sequential covering round by round in this process: the oracle for
    rulekit.extract_ruleset, which must give the same rules, default and
    audit.  Round r makes one ``evolve`` call over the runs of every class
    still covering, seeded derive_seed(seed, "class-k", r); a class covers
    until a round is rejected or its working set holds no record of it."""
    schema = index.schema
    classes = range(schema.target_bits)
    working = [index for _ in classes]
    rules, audit = [[] for _ in classes], [[] for _ in classes]
    live = list(classes)
    for round_no in range(budget):
        live = [k for k in live if (working[k].target == k).any()]
        if not live:
            break
        cfgs = [replace(ga_config, seed=derive_seed(ga_config.seed, f"class-{k}", round_no)) for k in live]
        results = evolve(lambda pop: class_score(net, pop, live), schema.total_predictive_bits, cfgs)
        going = []
        for k, cfg, result in zip(live, cfgs, results):
            refined = refine_rule(decode_chromosome(result.best_chromosome, schema, k), working[k], epsilon=epsilon)
            accepted = refined.confidence >= confidence_threshold
            entry = {
                "class": schema.target.levels[k], "round": round_no, "ga_seed": cfg.seed,
                "ga_generations": result.generations, "best_fitness": result.best_fitness,
                "chromosome": result.best_chromosome.tolist(), "champion_ties": result.champion_ties,
                "champion_generation": result.champion_generation,
                "working_confidence": refined.confidence, "working_support": refined.support,
                "accepted": accepted, "outcome": "rejected: confidence below threshold",
            }
            audit[k].append(entry)
            if accepted:
                explained = working[k].antecedent_mask(refined) & working[k].consequent_mask(refined)
                entry["outcome"] = f"accepted, removed {int(explained.sum())} records"
                rules[k].append(evaluate_rule(refined, index))
                working[k] = working[k].subset(~explained)
                going.append(k)
        live = going
    return RuleSet(
        rules=tuple(rule for per_class in rules for rule in sorted(per_class, key=lambda r: -r.confidence)),
        default=majority_class(index),
        audit=tuple(entry for per_class in audit for entry in per_class),
    )


def reference_stats_sections(index: DatasetIndex, raw_dims, raw_matrix, group_by: str, spec=None) -> dict:
    """The ``sections`` of ``stats.json``, as JSON reads them back, computed
    from copies of each group's whole rows, ``raw_matrix[mask]``, and of a
    block's columns of them, ``[:, idx]``: a column-major copy, in whose
    layout each product and reduction over a block adds.  Target checks when
    ``spec`` is given, with ``group_by`` its group attribute; every measure
    block must be in the raw table."""
    col = {d: j for j, d in enumerate(raw_dims)}
    codes = index.column(group_by)
    groups = {}
    for k, token in enumerate(index.schema.attribute(group_by).levels):
        if (codes == k).any():
            groups[token] = raw_matrix[codes == k]
    tokens, target = list(groups), col[index.schema.target.name]
    sections = {}
    if spec is not None:
        checks = [
            (token, dim, float(groups[token][:, col[dim]].mean()), g.means[j],
             g.sds[j] / len(groups[token]) ** 0.5)
            for token, g in spec.groups.items() for j, dim in enumerate(spec.dimensions) if g.sds[j] != 0
        ]
        z = statistics.NormalDist().inv_cdf(1 - TARGET_CHECK_ERROR_RATE / (2 * len(checks)))
        sections["target_checks"] = {"z": z, "checks": [
            (token, dim, sample, mean, z * se, abs(sample - mean) <= z * se)
            for token, dim, sample, mean, se in checks
        ]}
    tres = psychostats.t_test(groups[tokens[0]][:, target], groups[tokens[1]][:, target])
    sections["target_group_ttest"] = {
        "groups": {
            token: {"n": len(rows), "mean": float(rows[:, target].mean()),
                    "sd": float(rows[:, target].std(ddof=1))}
            for token, rows in groups.items()
        },
        "t": tres.t, "df": tres.df, "p": tres.p, "method": tres.method,
        "significance": psychostats.significance_label(tres.p),
    }
    blocks = {}
    for name, dims in studydata.MEASURE_BLOCKS.items():
        idx = [col[d] for d in dims]
        per_group = [groups[t][:, idx] for t in tokens]
        wres = psychostats.manova_wilks(per_group)
        series = {d: [groups[t][:, col[d]] for t in tokens] for d in dims}
        series["Total"] = [g.sum(axis=1) for g in per_group]
        univariate, levene = {}, {}
        for d, samples in series.items():
            row = psychostats.anova_oneway(samples)
            univariate[d] = {
                "ss_h": row.ss_hypothesis, "ss_e": row.ss_error, "df": [row.df_hypothesis, row.df_error],
                "ms_h": row.ms_hypothesis, "ms_e": row.ms_error, "f": row.f, "p": row.p,
                "eta_squared": row.eta_squared, "significance": psychostats.significance_label(row.p),
            }
            lv = psychostats.levene_w(samples)
            levene[d] = {"w": lv.w, "df": list(lv.df), "p": lv.p}
        blocks[name] = {
            "wilks": {"lambda": wres.wilks_lambda, "f": wres.f, "df": list(wres.df), "p": wres.p,
                      "eta_squared": wres.eta_squared},
            "univariate": univariate,
            "levene": levene,
            "alpha": psychostats.cronbach_alpha(raw_matrix[:, idx]),
        }
    sections["blocks"] = blocks
    control_dims = studydata.MEASURE_BLOCKS["interaction"]
    partials = {"control": "+".join(control_dims), "groups": {}}
    for token, rows in groups.items():
        control = rows[:, [col[d] for d in control_dims]].sum(axis=1)
        y = rows[:, target]
        entry = {}
        for name in [b for b in blocks if b != "interaction"]:
            dims = studydata.MEASURE_BLOCKS[name]
            for d in dims:
                entry[d] = psychostats.partial_r(rows[:, col[d]], y, control)
            entry[f"Total ({name})"] = psychostats.partial_r(rows[:, [col[d] for d in dims]].sum(axis=1), y, control)
        partials["groups"][token] = entry
    sections["partial_correlations"] = partials
    return json.loads(json.dumps(sections))
