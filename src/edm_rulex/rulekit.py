"""Decoding chromosomes into IF-THEN rules and extracting rulesets.

A rule is an AND across attributes of OR-sets of levels within each
attribute.  Set bits of a chromosome segment name the included levels;
all-zero and all-one segments carry no constraint and yield no term, which is
how attributes disappear from rules.  Extraction runs one genetic search per
class per round under sequential covering, refines away redundant terms by
greedy backward elimination, and keeps rules that clear a confidence
threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .evolver import EvolutionResult, GaConfig, evolve
from .neural import Network, class_score
from .schema import AttributeSchema, StudentRecord
from .util import derive_seed

log = logging.getLogger(__name__)

DEFAULT_CONFIDENCE_THRESHOLD = 0.7
DEFAULT_EPSILON = 0.0
DEFAULT_RULE_BUDGET = 5


@dataclass(frozen=True)
class Rule:
    """Antecedent terms (attribute, allowed levels), a consequent class token,
    and the metrics recorded at extraction time."""

    terms: tuple[tuple[str, tuple[str, ...]], ...]
    consequent: str
    support: int | None = None
    confidence: float | None = None
    coverage: float | None = None
    vacuous: bool = False
    fitness: float | None = None
    chromosome: tuple[int, ...] | None = None

    def term_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.terms)

    def without_term(self, attr: str) -> "Rule":
        return replace(self, terms=tuple(t for t in self.terms if t[0] != attr))


@dataclass(frozen=True)
class RuleMetrics:
    support: int
    confidence: float
    coverage: float
    vacuous: bool


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules with first-match semantics and a majority-class default."""

    rules: tuple[Rule, ...]
    default: str
    audit: tuple[dict, ...] = ()

    def predict(self, record: StudentRecord) -> str:
        for rule in self.rules:
            if rule_matches(rule, record):
                return rule.consequent
        return self.default

    def accuracy(self, dataset, schema: AttributeSchema) -> float:
        """Share of records whose first matching rule (else the default)
        names their target level; ``dataset`` is records or a DatasetIndex.
        A rule naming a token outside the schema is a ValidationError."""
        if len(dataset) == 0:
            raise ValidationError("accuracy needs a non-empty dataset")
        index = _as_index(dataset, schema)
        predicted = np.full(len(index), schema.target.level_index(self.default))
        unclaimed = np.ones(len(index), dtype=bool)
        for rule in self.rules:
            claimed = unclaimed & index.antecedent_mask(rule)
            predicted[claimed] = schema.target.level_index(rule.consequent)
            unclaimed &= ~claimed
        return int((predicted == index.target_codes).sum()) / len(index)


class DatasetIndex:
    """Records encoded once as a level-index matrix for fast rule matching."""

    def __init__(self, schema: AttributeSchema, records: Sequence[StudentRecord]):
        self.schema = schema
        self.records = list(records)
        names = [a.name for a in schema.attributes]
        self.column = {name: j for j, name in enumerate(names)}
        self.codes = np.empty((len(self.records), len(names)), dtype=np.int16)
        for j, attr in enumerate(schema.attributes):
            code = {token: k for k, token in enumerate(attr.levels)}
            try:
                self.codes[:, j] = [code[r.values[attr.name]] for r in self.records]
            except KeyError:
                for r in self.records:  # raise the error that names the token
                    attr.level_index(r.values[attr.name])
                raise
        self.target_codes = self.codes[:, self.column[schema.target.name]]

    def __len__(self) -> int:
        return len(self.records)

    def term_misses(self, rule: Rule) -> np.ndarray:
        """``bool[N, T]``: entry (n, j) is true when record n fails term j."""
        misses = np.empty((len(self.records), len(rule.terms)), dtype=bool)
        for j, (attr_name, levels) in enumerate(rule.terms):
            attr = self.schema.attribute(attr_name)
            allowed = [attr.level_index(t) for t in levels]
            misses[:, j] = np.isin(self.codes[:, self.column[attr_name]], allowed, invert=True)
        return misses

    def antecedent_mask(self, rule: Rule) -> np.ndarray:
        return ~self.term_misses(rule).any(axis=1)

    def consequent_mask(self, rule: Rule) -> np.ndarray:
        return self.target_codes == self.schema.target.level_index(rule.consequent)

    def subset(self, keep: np.ndarray) -> "DatasetIndex":
        sub = object.__new__(DatasetIndex)
        sub.schema = self.schema
        sub.records = [r for r, k in zip(self.records, keep) if k]
        sub.column = self.column
        sub.codes = self.codes[keep]
        sub.target_codes = self.target_codes[keep]
        return sub


def _as_index(dataset, schema: AttributeSchema) -> DatasetIndex:
    if isinstance(dataset, DatasetIndex):
        return dataset
    return DatasetIndex(schema, dataset)


def decode_chromosome(bits, schema: AttributeSchema, class_index: int) -> Rule:
    """Read a rule off a chromosome: set bits name included levels, all-zero
    and all-one segments are don't-cares.  Total: every bit string decodes."""
    bits = np.asarray(bits).ravel()
    if bits.shape[0] != schema.total_predictive_bits:
        raise ValidationError(
            f"chromosome length {bits.shape[0]} does not match schema "
            f"({schema.total_predictive_bits} bits)"
        )
    if not 0 <= class_index < schema.target_bits:
        raise ValidationError(f"class index {class_index} out of range")
    terms = []
    for attr in schema.predictive:
        offset, width = schema.segments[attr.name]
        seg = bits[offset : offset + width]
        on = np.flatnonzero(seg)
        if 0 < len(on) < width:
            terms.append((attr.name, tuple(attr.levels[int(i)] for i in on)))
    return Rule(
        terms=tuple(terms),
        consequent=schema.target.levels[class_index],
        chromosome=tuple(int(b) for b in bits),
    )


def rule_matches(rule: Rule, record: StudentRecord) -> bool:
    """True iff every term's level set contains the record's level."""
    return all(record.values.get(attr) in levels for attr, levels in rule.terms)


def evaluate_rule(rule: Rule, dataset, schema: AttributeSchema | None = None) -> RuleMetrics:
    """Support, confidence, and coverage of a rule against a dataset.

    A rule matching nothing has confidence 0 and is flagged vacuous.
    """
    index = _as_index(dataset, schema)
    if len(index) == 0:
        raise ValidationError("evaluate_rule needs a non-empty dataset")
    ante = index.antecedent_mask(rule)
    support = int(ante.sum())
    if support == 0:
        return RuleMetrics(support=0, confidence=0.0, coverage=0.0, vacuous=True)
    hits = int((ante & index.consequent_mask(rule)).sum())
    return RuleMetrics(
        support=support,
        confidence=hits / support,
        coverage=support / len(index),
        vacuous=False,
    )


def _with_metrics(rule: Rule, metrics: RuleMetrics) -> Rule:
    return replace(
        rule,
        support=metrics.support,
        confidence=metrics.confidence,
        coverage=metrics.coverage,
        vacuous=metrics.vacuous,
    )


def refine_rule(rule: Rule, dataset, schema: AttributeSchema | None = None, epsilon: float = DEFAULT_EPSILON) -> Rule:
    """Greedy backward elimination of redundant terms.

    Repeatedly drops the term whose removal gives the highest confidence,
    accepting a drop only when confidence falls by at most epsilon relative
    to the current rule; ties resolve to the earliest attribute in schema
    order.  The returned rule carries metrics recomputed on this dataset.

    The term-miss matrix is built once.  A record matches the rule without
    term j exactly when it misses no kept term other than j, so with a
    per-record count of missed kept terms every drop is scored from the
    records that miss none (they match every candidate) and those that
    miss one (they match only the candidate dropping that term).
    """
    index = _as_index(dataset, schema)
    names = [attr_name for attr_name, _ in rule.terms]
    attrs = list(dict.fromkeys(names))
    misses = index.term_misses(rule)
    if len(attrs) < len(names):  # a repeated attribute's terms drop together
        misses = np.stack([misses[:, [n == a for n in names]].any(axis=1) for a in attrs], axis=1)
    target = index.consequent_mask(rule)
    miss_count = misses.sum(axis=1)
    kept = list(range(len(attrs)))

    def confidence(hits, support):
        return hits / support if support else 0.0

    while kept:
        matched, one_miss = miss_count == 0, miss_count == 1
        support_now, hits_now = int(matched.sum()), int((matched & target).sum())
        lone = misses[one_miss][:, kept]
        support = support_now + lone.sum(axis=0)
        hits = hits_now + lone[target[one_miss]].sum(axis=0)
        confs = [confidence(h, s) for h, s in zip(hits.tolist(), support.tolist())]
        best = int(np.argmax(confs))  # first maximum: the earliest term
        if confs[best] < confidence(hits_now, support_now) - epsilon:
            break
        miss_count -= misses[:, kept[best]]
        del kept[best]
    kept_attrs = {attrs[j] for j in kept}
    current = replace(rule, terms=tuple(t for t in rule.terms if t[0] in kept_attrs))
    return _with_metrics(current, evaluate_rule(current, index))


def majority_class(dataset, schema: AttributeSchema) -> str:
    """Most frequent target token; ties resolve to schema level order."""
    index = _as_index(dataset, schema)
    counts = np.bincount(index.target_codes, minlength=schema.target_bits)
    return schema.target.levels[int(np.argmax(counts))]


def extract_ruleset(
    net: Network,
    dataset: Sequence[StudentRecord],
    schema: AttributeSchema,
    ga_config: GaConfig | None = None,
    per_class_rule_budget: int = DEFAULT_RULE_BUDGET,
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> RuleSet:
    """Sequential covering driven by the trained network.

    Per class: evolve a chromosome maximizing that class's output (one
    batched forward pass per generation), decode, refine against the class's
    working set, accept if confidence clears the threshold, then drop the
    records the accepted rule explains (antecedent and consequent both match)
    and repeat.  A class's loop also ends on a duplicate or zero-progress
    rule, since the fitness surface is fixed.

    The GA seed for class k, round r derives from the config seed as
    derive_seed(seed, "class-k", r), so class loops are independent and
    reproducible.  Accepted rules carry metrics recomputed against the full
    dataset; working-set confidences live in the audit entries.
    """
    if len(dataset) == 0:
        raise ValidationError("cannot extract rules from an empty dataset")
    if per_class_rule_budget < 0:
        raise ValidationError(f"rule budget must be >= 0, got {per_class_rule_budget}")
    if not 0 <= confidence_threshold <= 1:
        raise ValidationError(
            f"confidence threshold must be in [0,1], got {confidence_threshold}"
        )
    if not epsilon >= 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    if net.input_size != schema.total_predictive_bits or net.output_size != schema.target_bits:
        raise ValidationError(
            "network sizes do not match the schema; was it trained on this layout?"
        )
    ga_config = ga_config or GaConfig()
    full = DatasetIndex(schema, dataset)
    rules: list[Rule] = []
    audit: list[dict] = []
    for k, class_token in enumerate(schema.target.levels):
        working = full
        for round_no in range(per_class_rule_budget):
            remaining = int((working.target_codes == k).sum())
            if remaining == 0:
                break
            cfg = replace(ga_config, seed=derive_seed(ga_config.seed, f"class-{k}", round_no))
            result: EvolutionResult = evolve(
                lambda pop: class_score(net, pop, k), schema.total_predictive_bits, cfg
            )
            raw_rule = replace(
                decode_chromosome(result.best_chromosome, schema, k),
                fitness=result.best_fitness,
            )
            refined = refine_rule(raw_rule, working, epsilon=epsilon)
            entry = {
                "class": class_token,
                "round": round_no,
                "ga_seed": cfg.seed,
                "ga_generations": result.generations,
                "best_fitness": result.best_fitness,
                "decoded_terms": [list(t) for t in raw_rule.terms],
                "working_confidence": refined.confidence,
                "working_support": refined.support,
                "accepted": False,
            }
            if refined.confidence is None or refined.confidence < confidence_threshold:
                entry["outcome"] = "rejected: confidence below threshold"
                audit.append(entry)
                break
            key = (refined.terms, refined.consequent)
            if any((r.terms, r.consequent) == key for r in rules):
                entry["outcome"] = "stopped: duplicate rule"
                audit.append(entry)
                break
            explained = working.antecedent_mask(refined) & working.consequent_mask(refined)
            if not explained.any():
                entry["outcome"] = "stopped: rule explains no remaining records"
                audit.append(entry)
                break
            entry["accepted"] = True
            entry["outcome"] = f"accepted, removed {int(explained.sum())} records"
            audit.append(entry)
            rules.append(replace(_with_metrics(refined, evaluate_rule(refined, full)), fitness=refined.fitness))
            working = working.subset(~explained)
            log.info(
                "class %s round %d: %s (confidence %.3f)",
                class_token,
                round_no,
                entry["outcome"],
                refined.confidence,
            )
    return RuleSet(
        rules=tuple(rules),
        default=majority_class(full, schema),
        audit=tuple(audit),
    )


def format_rule(rule: Rule, schema: AttributeSchema) -> str:
    """Render the rule grammar, e.g. ``If Unit 1 = F → Then Reasoning = F``.

    Terms follow schema attribute order and levels follow schema level order;
    an empty antecedent renders as ``If true``.
    """
    order = {a.name: i for i, a in enumerate(schema.attributes)}
    parts = []
    for attr_name, levels in sorted(rule.terms, key=lambda t: order[t[0]]):
        attr = schema.attribute(attr_name)
        ordered = [t for t in attr.levels if t in levels]
        parts.append(" or ".join(f"{attr_name} = {t}" for t in ordered))
    antecedent = " and ".join(parts) if parts else "true"
    return f"If {antecedent} → Then {schema.target.name} = {rule.consequent}"


def ruleset_to_dict(ruleset: RuleSet, schema: AttributeSchema) -> dict:
    return {
        "rules": [
            {
                "terms": [{"attribute": a, "levels": list(ls)} for a, ls in r.terms],
                "consequent": r.consequent,
                "support": r.support,
                "confidence": r.confidence,
                "coverage": r.coverage,
                "vacuous": r.vacuous,
                "fitness": r.fitness,
                "chromosome": list(r.chromosome) if r.chromosome is not None else None,
                "text": format_rule(r, schema),
            }
            for r in ruleset.rules
        ],
        "default": ruleset.default,
        "audit": [dict(e) for e in ruleset.audit],
    }


def ruleset_from_dict(doc: Mapping) -> RuleSet:
    rules = tuple(
        Rule(
            terms=tuple((t["attribute"], tuple(t["levels"])) for t in r["terms"]),
            consequent=r["consequent"],
            support=r.get("support"),
            confidence=r.get("confidence"),
            coverage=r.get("coverage"),
            vacuous=bool(r.get("vacuous", False)),
            fitness=r.get("fitness"),
            chromosome=tuple(r["chromosome"]) if r.get("chromosome") else None,
        )
        for r in doc["rules"]
    )
    return RuleSet(rules=rules, default=doc["default"], audit=tuple(doc.get("audit", ())))
