"""Decoding chromosomes into IF-THEN rules and extracting rulesets.

A rule is an AND across attributes of OR-sets of levels within each
attribute.  Set bits of a chromosome segment name the included levels;
all-zero and all-one segments carry no constraint and yield no term, which is
how attributes disappear from rules.  Extraction runs one genetic search per
class per round under sequential covering, refines away redundant terms by
greedy backward elimination, and keeps rules that clear a confidence
threshold; each round's searches and refinements are spread over one
process per usable CPU (``util.split_over_cpus``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .evolver import GaConfig, evolve
from .neural import Network, class_score
from .schema import AttributeSchema, DatasetIndex, StudentRecord
from .util import check, derive_seed, split_over_cpus

log = logging.getLogger(__name__)

DEFAULT_CONFIDENCE_THRESHOLD = 0.7
DEFAULT_EPSILON = 0.0
DEFAULT_RULE_BUDGET = 5


@dataclass(frozen=True)
class Rule:
    """Antecedent terms (attribute, allowed levels), a consequent class token,
    and the metrics ``evaluate_rule`` sets.  How a rule was found (a GA
    champion and its fitness) is recorded in its round's audit entry."""

    terms: tuple[tuple[str, tuple[str, ...]], ...]
    consequent: str
    support: int | None = None
    confidence: float | None = None
    coverage: float | None = None

    @property
    def vacuous(self) -> bool:
        """True once evaluated on a dataset none of whose records match."""
        return self.support == 0


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules with first-match semantics and a majority-class default."""

    rules: tuple[Rule, ...]
    default: str
    audit: tuple[dict, ...] = ()

    def predict_index(self, index: DatasetIndex) -> np.ndarray:
        """``intp[N]``: each record's class index under the first rule whose
        antecedent it matches, else the default.  A rule naming an attribute
        or token outside the index's schema is a ValidationError."""
        target = index.schema.target
        default = target.level_index(self.default)
        classes = [target.level_index(rule.consequent) for rule in self.rules] + [default]
        misses = index.misses([rule.terms for rule in self.rules] + [()])  # no record misses ()
        return np.array(classes, dtype=np.intp)[np.argmin(misses, axis=1)]

    def predict(self, record: StudentRecord) -> str:
        """The class token of the first rule each of whose terms names the
        record's level of its attribute, else the default.  A rule naming an
        attribute the record lacks is a ValidationError, as it is for
        ``accuracy``."""
        values = record.values
        try:
            hits = [all([values[name] in levels for name, levels in rule.terms]) for rule in self.rules]
        except KeyError as missing:
            raise ValidationError(f"schema has no attribute named {missing.args[0]!r}") from None
        return next((rule.consequent for rule, hit in zip(self.rules, hits) if hit), self.default)

    def accuracy(self, dataset, schema: AttributeSchema) -> float:
        """Share of records whose first matching rule (else the default)
        names their target level; ``dataset`` is records or a DatasetIndex.
        A rule naming a token outside the schema is a ValidationError."""
        if len(dataset) == 0:
            raise ValidationError("accuracy needs a non-empty dataset")
        index = _as_index(dataset, schema)
        return int((self.predict_index(index) == index.target).sum()) / len(index)


def _as_index(dataset, schema: AttributeSchema | None) -> DatasetIndex:
    """``dataset`` as an index: a DatasetIndex as it is, records through
    ``schema``.  An index built on another schema than a given one is a
    ValidationError, since its bits would be read under the wrong names."""
    if isinstance(dataset, DatasetIndex):
        if schema is not None and schema != dataset.schema:
            raise ValidationError("the DatasetIndex was built on another schema than the one given")
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
    return Rule(terms=tuple(terms), consequent=schema.target.levels[class_index])


def evaluate_rule(rule: Rule, dataset, schema: AttributeSchema | None = None) -> Rule:
    """The rule with its support, confidence and coverage against a dataset.

    A rule matching nothing has confidence 0 and is flagged vacuous.  A
    consequent outside the target's levels is a ValidationError even then.
    """
    index = _as_index(dataset, schema)
    if len(index) == 0:
        raise ValidationError("evaluate_rule needs a non-empty dataset")
    ante = index.antecedent_mask(rule)
    support = int(ante.sum())
    hits = int((ante & index.consequent_mask(rule)).sum())
    return replace(
        rule,
        support=support,
        confidence=hits / max(support, 1),  # hits is 0 where support is
        coverage=support / len(index),
    )


def refine_rule(rule: Rule, index: DatasetIndex, epsilon: float = DEFAULT_EPSILON) -> Rule:
    """Greedy backward elimination of redundant terms.

    Repeatedly drops the term whose removal gives the highest confidence,
    accepting a drop only when confidence falls by at most epsilon relative
    to the current rule; ties resolve to the earliest attribute in schema
    order.  The returned rule carries metrics recomputed on the index.

    The miss matrix is built once, one ``misses`` group per attribute, so
    a repeated attribute's terms drop together.  A record matches the rule
    without group j exactly when it misses no kept group but j, so with a
    per-record count of missed kept groups every drop is scored from the
    records that miss none (they match every candidate) and those that
    miss one (they match only the candidate dropping that group).
    """
    attrs = list(dict.fromkeys(attr_name for attr_name, _ in rule.terms))
    misses = index.misses([[t for t in rule.terms if t[0] == a] for a in attrs])
    target = index.consequent_mask(rule)
    miss_count = misses.sum(axis=1)
    kept = list(range(len(attrs)))

    while kept:
        matched, one_miss = miss_count == 0, miss_count == 1
        support_now, hits_now = int(matched.sum()), int((matched & target).sum())
        lone = misses[one_miss][:, kept]
        support = support_now + lone.sum(axis=0)
        hits = hits_now + lone[target[one_miss]].sum(axis=0)
        confs = [h / max(s, 1) for h, s in zip(hits.tolist(), support.tolist())]
        best = int(np.argmax(confs))  # first maximum: the earliest term
        if confs[best] < hits_now / max(support_now, 1) - epsilon:
            break
        miss_count -= misses[:, kept[best]]
        del kept[best]
    kept_attrs = {attrs[j] for j in kept}
    current = replace(rule, terms=tuple(t for t in rule.terms if t[0] in kept_attrs))
    return evaluate_rule(current, index)


def majority_class(index: DatasetIndex) -> str:
    """Most frequent target token; ties resolve to schema level order."""
    schema = index.schema
    counts = np.bincount(index.target, minlength=schema.target_bits)
    return schema.target.levels[int(np.argmax(counts))]


def extract_ruleset(
    net: Network,
    index: DatasetIndex,
    ga_config: GaConfig | None = None,
    per_class_rule_budget: int = DEFAULT_RULE_BUDGET,
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> RuleSet:
    """Sequential covering driven by the trained network.

    Per class: evolve a chromosome maximizing that class's output, decode,
    refine against the class's working set, accept if confidence clears the
    threshold, then drop the records the accepted rule explains (antecedent
    and consequent both match) and repeat.  A refined rule always explains
    a remaining record: refinement never stops at confidence 0, and with
    every term dropped the confidence is the class's share of the working
    set.  So each accepted rule shrinks the working set and none repeats.

    The GA seed for class k, round r derives from the config seed as
    derive_seed(seed, "class-k", r), and a run depends only on the network,
    k and that seed, never on the working set.  So the loops go round by
    round: in round r, the GA runs of every class whose loop is still going
    evolve together, and each class then refines, accepts and covers on its
    own.  ``util.split_over_cpus`` cuts the runs into one contiguous slice
    per usable CPU (those ``os.sched_getaffinity`` lists, so ``taskset``
    limits them, and no more than a CPU quota allows); this process does
    the first slice and a forked child each other.  A slice evolves its
    runs in lockstep (one forward pass over its populations per
    generation), then decodes, refines and tests each champion against its
    class's working set, fixed before the round, and measures each
    accepted rule on the index; this process joins the slices in class
    order, records the audit and covers.  Each run gives the same bits in
    any slice, so the ruleset does not depend on the number of CPUs.
    At the end the classes are joined in level order: each class's audit
    entries in round order, as class-by-class loops would give them, and its
    rules by descending confidence (a stable sort, so ties keep round order).

    Accepted rules carry metrics recomputed against the full index;
    working-set confidences live in the audit entries.  Each round's entry,
    accepted or not, records its GA champion (``chromosome``, whose
    ``decode_chromosome`` under ``index.schema`` is the rule refined), its
    ``best_fitness``, its ``champion_ties`` and its ``champion_generation``
    (``EvolutionResult``); a round whose champion ties with other
    chromosomes logs a warning.
    """
    if len(index) == 0:
        raise ValidationError("cannot extract rules from an empty dataset")
    if per_class_rule_budget < 0:
        raise ValidationError(f"rule budget must be >= 0, got {per_class_rule_budget}")
    if not 0 <= confidence_threshold <= 1:
        raise ValidationError(
            f"confidence threshold must be in [0,1], got {confidence_threshold}"
        )
    if not epsilon >= 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    schema = index.schema
    if net.input_size != schema.total_predictive_bits or net.output_size != schema.target_bits:
        raise ValidationError(
            "network sizes do not match the schema; was it trained on this layout?"
        )
    ga_config = ga_config or GaConfig()
    classes = range(schema.target_bits)
    working = [index for _ in classes]  # each class's records not yet explained
    rules: list[list[Rule]] = [[] for _ in classes]
    audit: list[list[dict]] = [[] for _ in classes]
    live = list(classes)
    for round_no in range(per_class_rule_budget):
        live = [k for k in live if (working[k].target == k).any()]
        if not live:
            break
        cfgs = [replace(ga_config, seed=derive_seed(ga_config.seed, f"class-{k}", round_no)) for k in live]
        targets = np.array(live)

        def finish(runs: slice) -> list:
            """The slice's runs evolved in lockstep, then each class's round
            finished against its working set: the GA result, the refined rule
            and, where accepted, the records it explains and its measurement
            on the full index."""
            results = evolve(
                lambda pop: class_score(net, pop, targets[runs]), schema.total_predictive_bits, cfgs[runs]
            )
            rounds = []
            for k, result in zip(live[runs], results):
                decoded = decode_chromosome(result.best_chromosome, schema, k)
                refined = refine_rule(decoded, working[k], epsilon=epsilon)
                explained = measured = None
                if refined.confidence >= confidence_threshold:
                    explained = working[k].antecedent_mask(refined) & working[k].consequent_mask(refined)
                    measured = evaluate_rule(refined, index)
                rounds.append((result, refined, explained, measured))
            return rounds

        finished = list(split_over_cpus(finish, len(cfgs), 1, "GA worker"))
        going = []
        for k, cfg, (result, refined, explained, measured) in zip(live, cfgs, finished):
            class_token = schema.target.levels[k]
            entry = {
                "class": class_token,
                "round": round_no,
                "ga_seed": cfg.seed,
                "ga_generations": result.generations,
                "best_fitness": result.best_fitness,
                "chromosome": result.best_chromosome.tolist(),
                "champion_ties": result.champion_ties,
                "champion_generation": result.champion_generation,
                "working_confidence": refined.confidence,
                "working_support": refined.support,
            }
            entry["accepted"] = explained is not None
            audit[k].append(entry)
            if result.champion_ties > 1:
                log.warning(
                    "class %s round %d: %d distinct chromosomes of the last population tie "
                    "with the champion's fitness %r; the GA chose among them",
                    class_token, round_no, result.champion_ties, result.best_fitness,
                )
            if not entry["accepted"]:
                entry["outcome"] = "rejected: confidence below threshold"
                continue
            entry["outcome"] = f"accepted, removed {int(explained.sum())} records"
            rules[k].append(measured)
            working[k] = working[k].subset(~explained)
            going.append(k)
            log.info(
                "class %s round %d: %s (confidence %.3f)",
                class_token,
                round_no,
                entry["outcome"],
                refined.confidence,
            )
        live = going
    return RuleSet(
        rules=tuple(
            rule for per_class in rules for rule in sorted(per_class, key=lambda r: -r.confidence)
        ),
        default=majority_class(index),
        audit=tuple(entry for per_class in audit for entry in per_class),
    )


def format_rule(rule: Rule, schema: AttributeSchema) -> str:
    """Render the rule grammar, e.g. ``If Unit 1 = F → Then Reasoning = F``.

    Terms follow schema attribute order and levels follow schema level order;
    a term naming several levels is parenthesised, as in ``If (Unit 1 = F or
    Unit 1 = P) and Unit 3 = F → ...``, so AND-before-OR precedence reads it
    as written.  An empty antecedent renders as ``If true``.  ``parse_rule``
    reads the text back; a term or consequent outside the schema's predictive
    attributes and levels, or a term of no levels, is a ValidationError.
    """
    for attr_name, levels in rule.terms:
        if not levels:
            raise ValidationError(f"rule term on {attr_name!r} names no levels")
        schema.level_bits(attr_name, levels)
    schema.target.level_index(rule.consequent)
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


def ruleset_to_dict(ruleset: RuleSet) -> dict:
    """``ruleset.json``'s rules, default and audit.  A rule's text is not
    recorded: ``format_rule`` derives it from the terms and consequent."""
    return {
        "rules": [
            {
                "terms": [{"attribute": a, "levels": list(ls)} for a, ls in r.terms],
                "consequent": r.consequent,
                "support": r.support,
                "confidence": r.confidence,
                "coverage": r.coverage,
            }
            for r in ruleset.rules
        ],
        "default": ruleset.default,
        "audit": [dict(e) for e in ruleset.audit],
    }


RULESET_SHAPE = {"default": str, "audit?": [{str: object}], "rules": [{
    "terms": [{"attribute": str, "levels": [str]}], "consequent": str, "support?": int,
    "confidence?": float, "coverage?": float}]}


def ruleset_from_dict(doc: Mapping) -> RuleSet:
    doc = check(doc, RULESET_SHAPE, "ruleset document")
    rules = tuple(
        Rule(
            terms=tuple((t["attribute"], tuple(t["levels"])) for t in r["terms"]),
            consequent=r["consequent"],
            support=r.get("support"),
            confidence=r.get("confidence"),
            coverage=r.get("coverage"),
        )
        for r in doc["rules"]
    )
    return RuleSet(rules=rules, default=doc["default"], audit=tuple(doc.get("audit", ())))
