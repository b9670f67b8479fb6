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
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .evolver import EvolutionResult, GaConfig, evolve
from .neural import Network, class_score
from .schema import ROLE_TARGET, Attribute, AttributeSchema, DatasetIndex, StudentRecord
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

    def predict_index(self, index: DatasetIndex) -> np.ndarray:
        """``intp[N]``: each record's class index under the first matching
        rule, else the default.  A rule naming an attribute or token outside
        the index's schema is a ValidationError."""
        classes, terms, owner = self._matcher(index.schema)
        missed = (index.bits @ terms == 0) @ owner  # per record and rule: terms missed
        return classes[(missed == 0).argmax(axis=1)]  # the first rule that misses none

    @cached_property
    def _matchers(self) -> dict:
        return {}

    def _matcher(self, schema: AttributeSchema) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rules under ``schema``, built once per schema: class codes
        ``intp[R + 1]``; ``float32[B, T]``, 1 at the layout positions of each
        rule term's levels (rules in order, so ``bits @ terms == 0`` marks the
        terms a record misses); and ``float32[T, R + 1]``, 1 where term t
        belongs to rule r.  The default is rule R, which has no terms."""
        matcher = self._matchers.get(schema)
        if matcher is None:
            target = schema.target
            default = target.level_index(self.default)
            classes = [target.level_index(rule.consequent) for rule in self.rules] + [default]
            flat = [term for rule in self.rules for term in rule.terms]
            terms = np.zeros((schema.total_predictive_bits, len(flat)), dtype=np.float32)
            for t, (name, levels) in enumerate(flat):
                terms[schema.level_bits(name, levels), t] = 1
            widths = [len(rule.terms) for rule in self.rules]
            owner = np.repeat(np.eye(len(widths), len(widths) + 1, dtype=np.float32), widths, axis=0)
            matcher = self._matchers[schema] = (np.array(classes, dtype=np.intp), terms, owner)
        return matcher

    @cached_property
    def _record_schema(self) -> AttributeSchema:
        """The schema ``predict`` reads a lone record against: each attribute a
        rule names, with the rules' levels and one last level standing for
        every other token, and a target of the classes the rules can give."""
        levels: dict[str, dict] = {}
        for rule in self.rules:
            for attr, named in rule.terms:
                levels.setdefault(attr, {}).update(dict.fromkeys(named))
        attrs = tuple(  # the last level is longer than every rule level, so none of them
            Attribute(a, (*ls, "\0" * (1 + max(map(len, ls), default=0))))
            for a, ls in levels.items()
        )
        classes = dict.fromkeys([r.consequent for r in self.rules] + [self.default])
        return AttributeSchema(attrs + (Attribute("\0class", tuple(classes), ROLE_TARGET),))

    def predict(self, record: StudentRecord) -> str:
        """The class token ``predict_index`` gives one record, coded against
        ``_record_schema``.  A rule naming an attribute the record lacks is a
        ValidationError, as it is for ``accuracy``."""
        schema = self._record_schema
        try:
            row = [a.code.get(record.values[a.name], len(a.levels) - 1) for a in schema.predictive]
        except KeyError as missing:
            raise ValidationError(f"schema has no attribute named {missing.args[0]!r}") from None
        row.append(0)  # the target column, which predict_index does not read
        index = DatasetIndex(schema, np.array([row], dtype=np.intp))
        return schema.target.levels[int(self.predict_index(index)[0])]

    def accuracy(self, dataset, schema: AttributeSchema) -> float:
        """Share of records whose first matching rule (else the default)
        names their target level; ``dataset`` is records or a DatasetIndex.
        A rule naming a token outside the schema is a ValidationError."""
        if len(dataset) == 0:
            raise ValidationError("accuracy needs a non-empty dataset")
        index = _as_index(dataset, schema)
        return int((self.predict_index(index) == index.target).sum()) / len(index)


def _as_index(dataset, schema: AttributeSchema | None) -> DatasetIndex:
    if isinstance(dataset, DatasetIndex):
        return dataset
    if schema is None:
        raise ValidationError("a dataset of records needs its schema; pass schema= or a DatasetIndex")
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
    return replace(current, **asdict(evaluate_rule(current, index)))


def majority_class(dataset, schema: AttributeSchema) -> str:
    """Most frequent target token; ties resolve to schema level order."""
    index = _as_index(dataset, schema)
    counts = np.bincount(index.target, minlength=schema.target_bits)
    return schema.target.levels[int(np.argmax(counts))]


def extract_ruleset(
    net: Network,
    dataset: Sequence[StudentRecord] | DatasetIndex,
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
    dataset; working-set confidences live in the audit entries.  ``dataset``
    is records or a DatasetIndex of them, so a caller that scores the
    ruleset afterwards can build the index once.
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
    full = _as_index(dataset, schema)
    rules: list[Rule] = []
    audit: list[dict] = []
    for k, class_token in enumerate(schema.target.levels):
        working = full
        for round_no in range(per_class_rule_budget):
            if not (working.target == k).any():
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
            }
            explained = working.antecedent_mask(refined) & working.consequent_mask(refined)
            if refined.confidence < confidence_threshold:
                stop = "rejected: confidence below threshold"
            elif any((r.terms, r.consequent) == (refined.terms, refined.consequent) for r in rules):
                stop = "stopped: duplicate rule"
            elif not explained.any():
                stop = "stopped: rule explains no remaining records"
            else:
                stop = None
            entry["accepted"] = stop is None
            entry["outcome"] = stop or f"accepted, removed {int(explained.sum())} records"
            audit.append(entry)
            if stop:
                break
            rules.append(replace(refined, **asdict(evaluate_rule(refined, full))))
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
    a term naming several levels is parenthesised, as in ``If (Unit 1 = F or
    Unit 1 = P) and Unit 3 = F → ...``, so AND-before-OR precedence reads it
    as written.  An empty antecedent renders as ``If true``.  ``parse_rule``
    reads the text back.
    """
    order = {a.name: i for i, a in enumerate(schema.attributes)}
    parts = []
    for attr_name, levels in sorted(rule.terms, key=lambda t: order[t[0]]):
        attr = schema.attribute(attr_name)
        ordered = [t for t in attr.levels if t in levels]
        text = " or ".join(f"{attr_name} = {t}" for t in ordered)
        parts.append(f"({text})" if len(ordered) > 1 else text)
    antecedent = " and ".join(parts) if parts else "true"
    return f"If {antecedent} → Then {schema.target.name} = {rule.consequent}"


def parse_rule(text: str, schema: AttributeSchema) -> Rule:
    """Read back a rule written by ``format_rule``.

    The schema's attribute names and level tokens are the vocabulary, so they
    may contain spaces.  A parenthesised group is one term: levels of one
    attribute joined by ``or``.  Text outside the grammar, an unknown name or
    token, or an ``or`` outside parentheses is a ValidationError.
    """
    body = text.strip()
    antecedent, sep, consequent = body.removeprefix("If ").rpartition(" → Then ")
    if not body.startswith("If ") or not sep:
        raise ValidationError(f"rule text must read 'If ... → Then ...': {text!r}")
    target = schema.target
    token = consequent.removeprefix(f"{target.name} = ")
    if token == consequent or token not in target.levels:
        raise ValidationError(
            f"rule consequent {consequent!r} is not '{target.name} = <level>' "
            f"with a level in {list(target.levels)}"
        )
    if antecedent == "true":
        return Rule(terms=(), consequent=token)
    attrs = sorted(schema.predictive, key=lambda a: len(a.name), reverse=True)

    def literal(pos: int, stops: tuple[str, ...]) -> tuple[str, str, int]:
        """The ``name = level`` at pos, which must end at a stop or the end."""
        for attr in attrs:
            head = f"{attr.name} = "
            if not antecedent.startswith(head, pos):
                continue
            start = pos + len(head)
            for level in sorted(attr.levels, key=len, reverse=True):
                end = start + len(level)
                if antecedent.startswith(level, start) and (
                    end == len(antecedent) or antecedent.startswith(stops, end)
                ):
                    return attr.name, level, end
        raise ValidationError(
            f"expected '<attribute> = <level>' at {antecedent[pos:]!r} in rule {text!r}"
        )

    terms, pos = [], 0
    while True:
        if antecedent.startswith("(", pos):
            name, level, pos = literal(pos + 1, (" or ", ")"))
            levels = [level]
            while antecedent.startswith(" or ", pos):
                other, level, pos = literal(pos + 4, (" or ", ")"))
                if other != name:
                    raise ValidationError(
                        f"'or' joins levels of one attribute, got {name!r} and "
                        f"{other!r} in rule {text!r}"
                    )
                levels.append(level)
            if not antecedent.startswith(")", pos):
                raise ValidationError(f"unclosed '(' in rule {text!r}")
            pos += 1
        else:
            name, level, pos = literal(pos, (" and ",))
            levels = [level]
        terms.append((name, tuple(levels)))
        if pos == len(antecedent):
            return Rule(terms=tuple(terms), consequent=token)
        if not antecedent.startswith(" and ", pos):
            raise ValidationError(f"expected ' and ' at {antecedent[pos:]!r} in rule {text!r}")
        pos += 5


def format_ruleset(ruleset: RuleSet, schema: AttributeSchema) -> str:
    """The ``rules.txt`` text: one ``format_rule`` line per rule, in order,
    then ``Default <target> = <level>``."""
    lines = [format_rule(r, schema) for r in ruleset.rules]
    lines.append(f"Default {schema.target.name} = {ruleset.default}")
    return "\n".join(lines) + "\n"


def parse_ruleset(text: str, schema: AttributeSchema) -> RuleSet:
    """Read back ``format_ruleset``'s text: each rule line through
    ``parse_rule``, and the default from the last line."""
    lines = text.splitlines()
    head = f"Default {schema.target.name} = "
    default = lines[-1].removeprefix(head) if lines else ""
    if not lines or not lines[-1].startswith(head) or default not in schema.target.levels:
        raise ValidationError(
            f"the last line of a ruleset must read '{head}<level>' with a level in "
            f"{list(schema.target.levels)}, got {lines[-1] if lines else ''!r}"
        )
    return RuleSet(rules=tuple(parse_rule(line, schema) for line in lines[:-1]), default=default)


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
