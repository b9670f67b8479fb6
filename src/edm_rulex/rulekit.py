"""Decoding chromosomes into IF-THEN rules and extracting rulesets.

A rule is an AND across attributes of OR-sets of levels within each
attribute.  Set bits of a chromosome segment name the included levels;
all-zero and all-one segments carry no constraint and yield no term, which is
how attributes disappear from rules.  Extraction runs one genetic search per
class per round under sequential covering, each round's searches in
lockstep over one process per usable CPU, refines away redundant terms by
greedy backward elimination, and keeps rules that clear a confidence
threshold.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from dataclasses import dataclass, replace
from typing import Mapping, NoReturn

import numpy as np

from .errors import ValidationError
from .evolver import EvolutionResult, GaConfig, evolve
from .neural import Network, class_score
from .schema import AttributeSchema, DatasetIndex, StudentRecord
from .util import check, derive_seed

log = logging.getLogger(__name__)

DEFAULT_CONFIDENCE_THRESHOLD = 0.7
DEFAULT_EPSILON = 0.0
DEFAULT_RULE_BUDGET = 5


@dataclass(frozen=True)
class Rule:
    """Antecedent terms (attribute, allowed levels), a consequent class token,
    and the metrics ``evaluate_rule`` sets and extraction records."""

    terms: tuple[tuple[str, tuple[str, ...]], ...]
    consequent: str
    support: int | None = None
    confidence: float | None = None
    coverage: float | None = None
    fitness: float | None = None
    chromosome: tuple[int, ...] | None = None

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
        matched = [index.antecedent_mask(rule) for rule in self.rules]
        matched.append(np.ones(len(index), dtype=bool))  # the default matches every record
        return np.array(classes, dtype=np.intp)[np.argmax(matched, axis=0)]

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
    return Rule(
        terms=tuple(terms),
        consequent=schema.target.levels[class_index],
        chromosome=tuple(int(b) for b in bits),
    )


def evaluate_rule(rule: Rule, dataset, schema: AttributeSchema | None = None) -> Rule:
    """The rule with its support, confidence and coverage against a dataset.

    A rule matching nothing has confidence 0 and is flagged vacuous.
    """
    index = _as_index(dataset, schema)
    if len(index) == 0:
        raise ValidationError("evaluate_rule needs a non-empty dataset")
    ante = index.antecedent_mask(rule)
    support = int(ante.sum())
    if support == 0:
        return replace(rule, support=0, confidence=0.0, coverage=0.0)
    hits = int((ante & index.consequent_mask(rule)).sum())
    return replace(
        rule,
        support=support,
        confidence=hits / support,
        coverage=support / len(index),
    )


def refine_rule(rule: Rule, index: DatasetIndex, epsilon: float = DEFAULT_EPSILON) -> Rule:
    """Greedy backward elimination of redundant terms.

    Repeatedly drops the term whose removal gives the highest confidence,
    accepting a drop only when confidence falls by at most epsilon relative
    to the current rule; ties resolve to the earliest attribute in schema
    order.  The returned rule carries metrics recomputed on the index.

    The term-miss matrix is built once.  A record matches the rule without
    term j exactly when it misses no kept term other than j, so with a
    per-record count of missed kept terms every drop is scored from the
    records that miss none (they match every candidate) and those that
    miss one (they match only the candidate dropping that term).
    """
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
    return evaluate_rule(current, index)


def majority_class(index: DatasetIndex) -> str:
    """Most frequent target token; ties resolve to schema level order."""
    schema = index.schema
    counts = np.bincount(index.target, minlength=schema.target_bits)
    return schema.target.levels[int(np.argmax(counts))]


_SIGKILL = 9  # POSIX; the signal module is not otherwise loaded


def _usable_cpus() -> int:
    """CPUs this process may run on, as ``taskset`` or a container leaves
    them; 1 where a fork is unavailable or unsafe: no ``os.fork`` or
    ``os.sched_getaffinity``, or other threads running, which a forked
    child would not have."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _evolve_split(fitness, bit_length: int, cfgs: list[GaConfig]) -> list[EvolutionResult]:
    """``evolve`` over one covering round's runs, split into at most one
    contiguous slice per usable CPU; ``fitness(pop, runs)`` scores the stack
    of the runs in the slice ``runs``.

    This process evolves the first slice.  A child made with ``os.fork``
    evolves each other slice in lockstep and pickles its results, or its
    exception, into a pipe.  Where no pipe or child can be made (the host
    is out of process ids, memory or file descriptors), this process
    evolves that slice and every later one itself.  A run's result depends
    only on its config, so the results joined in config order are bit for
    bit those of one ``evolve`` over all the runs.  An exception in any
    slice is raised here with its type and message, and no child outlives
    the call: on an error the children are killed, and every child is
    reaped.
    """
    workers = min(len(cfgs), _usable_cpus())
    bounds = [len(cfgs) * i // workers for i in range(workers + 1)]
    slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def run(runs: slice) -> list[EvolutionResult]:
        return evolve(lambda pop: fitness(pop, runs), bit_length, cfgs[runs])

    pids, pipes, rest = [], [], None
    try:
        for runs in slices[1:]:
            try:
                pid, read_end = _fork(lambda: run(runs), pipes)
            except OSError:
                rest = slice(runs.start, len(cfgs))
                break
            pids.append(pid)
            pipes.append(read_end)
        results = run(slices[0])
        for read_end in pipes:
            results += _received(read_end)
        if rest is not None:
            results += run(rest)
    except BaseException:
        for pid in pids:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def _fork(work, read_ends: list[int]) -> tuple[int, int]:
    """The pid of a forked child that sends ``work()`` back, and the read
    end of its pipe; the child closes ``read_ends``, the parent's other
    pipes.  An OSError, with no pipe end left open, where no pipe or
    process can be made."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _child(work, write_end, [*read_ends, read_end])
    os.close(write_end)
    return pid, read_end


def _child(work, write_end: int, read_ends: list[int]) -> NoReturn:
    """A forked child's whole life: close the parent's read ends, pickle
    ``work()`` or its exception into ``write_end``, and leave by
    ``os._exit``, so that nothing of the parent's (exit handlers, buffered
    output, a test runner's hooks) runs twice."""
    try:
        for fd in read_ends:
            os.close(fd)
        try:
            payload = work()
        except BaseException as error:  # sent to the parent, which raises it
            payload = error
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # a type its arguments do not rebuild
                payload = RuntimeError(f"{type(error).__name__}: {error}")
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
    finally:
        os._exit(0)


def _received(read_end: int) -> list[EvolutionResult]:
    """The results a child sent through ``read_end``; the exception it sent
    is raised."""
    chunks = []
    while chunk := os.read(read_end, 1 << 16):
        chunks.append(chunk)
    try:
        got = pickle.loads(b"".join(chunks))
    except (pickle.UnpicklingError, EOFError):
        raise ChildProcessError("a GA worker process ended without sending its results") from None
    if isinstance(got, BaseException):
        raise got
    return got


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
    own.  The runs are cut into one contiguous slice per usable CPU (as
    ``os.sched_getaffinity`` reports them, so ``taskset`` limits them); this
    process evolves the first slice and a forked child each other, each
    slice in lockstep (one forward pass over its populations per
    generation).  Each run gives the same bits in any slice, so the ruleset
    does not depend on the number of CPUs.
    At the end the classes are joined in level order: each class's audit
    entries in round order, as class-by-class loops would give them, and its
    rules by descending confidence (a stable sort, so ties keep round order).

    Accepted rules carry metrics recomputed against the full index;
    working-set confidences live in the audit entries.  Rules are decoded
    under ``index.schema``.
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
        results = _evolve_split(
            lambda pop, runs: class_score(net, pop, targets[runs]), schema.total_predictive_bits, cfgs
        )
        going = []
        for k, cfg, result in zip(live, cfgs, results):
            class_token = schema.target.levels[k]
            raw_rule = replace(
                decode_chromosome(result.best_chromosome, schema, k),
                fitness=result.best_fitness,
            )
            refined = refine_rule(raw_rule, working[k], epsilon=epsilon)
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
            explained = working[k].antecedent_mask(refined) & working[k].consequent_mask(refined)
            entry["accepted"] = refined.confidence >= confidence_threshold
            entry["outcome"] = (
                f"accepted, removed {int(explained.sum())} records"
                if entry["accepted"]
                else "rejected: confidence below threshold"
            )
            audit[k].append(entry)
            if not entry["accepted"]:
                continue
            rules[k].append(evaluate_rule(refined, index))
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
                "fitness": r.fitness,
                "chromosome": list(r.chromosome) if r.chromosome is not None else None,
            }
            for r in ruleset.rules
        ],
        "default": ruleset.default,
        "audit": [dict(e) for e in ruleset.audit],
    }


RULESET_SHAPE = {"default": str, "audit?": [{str: object}], "rules": [{
    "terms": [{"attribute": str, "levels": [str]}], "consequent": str, "support?": int,
    "confidence?": float, "coverage?": float, "fitness?": float, "chromosome?": [int]}]}


def ruleset_from_dict(doc: Mapping) -> RuleSet:
    doc = check(doc, RULESET_SHAPE, "ruleset document")
    rules = tuple(
        Rule(
            terms=tuple((t["attribute"], tuple(t["levels"])) for t in r["terms"]),
            consequent=r["consequent"],
            support=r.get("support"),
            confidence=r.get("confidence"),
            coverage=r.get("coverage"),
            fitness=r.get("fitness"),
            chromosome=tuple(r["chromosome"]) if "chromosome" in r else None,
        )
        for r in doc["rules"]
    )
    return RuleSet(rules=rules, default=doc["default"], audit=tuple(doc.get("audit", ())))
