"""In-memory span recorder and the patches that time each package module.

A span has a name, a start, an end and a parent.  Calls too frequent to be a
span each (one fitness evaluation, one rule evaluation, one statistics call)
are tallied instead: a count and a total time kept under the span that was
open when they ran.  A span's self time is its duration minus the part of it
covered by child spans and tallies.

Functions are patched where their caller looks them up (``rulekit.evolve``
for the call in ``extract_ruleset``, ``cli.train`` for the call in
``cmd_train``), and classes only through their methods, so ``isinstance``
tests in the package keep working.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.tallies: dict[tuple[int | None, str], list] = {}  # -> [count, seconds]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._in_tally = False

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def tally(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else None, name)
        entry = self.tallies.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def spanned(self, name: str, fn, after=None):
        """``fn`` timed as a span; ``after(args, kwargs, result)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_tally:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def tallied(self, name: str, fn):
        """``fn`` counted and timed into its caller's span.  A tallied call
        made inside another tallied call is part of the outer one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_tally:
                return fn(*args, **kwargs)
            self._in_tally = True
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tally(name, self.clock() - start)
                self._in_tally = False

        return wrapper

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals
        and the time of tallies recorded under it."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        tallied: dict[int, float] = {}
        for (parent, _), (_, seconds) in self.tallies.items():
            if parent is not None:
                tallied[parent] = tallied.get(parent, 0.0) + seconds
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            out[s.id] = s.end - s.start - covered - tallied.get(s.id, 0.0)
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_total(self, prefix: str) -> float:
        own = self.self_times()
        return sum(own[s.id] for s in self.spans if s.name.startswith(prefix))

    def n_spans(self, name: str) -> int:
        return sum(s.name == name for s in self.spans)

    def tally_total(self, name: str, under: str | None = None) -> tuple[int, float]:
        """(count, seconds) of a tally, optionally only under spans named ``under``."""
        names = {s.id: s.name for s in self.spans}
        count, seconds = 0, 0.0
        for (parent, tname), (n, t) in self.tallies.items():
            if tname == name and (under is None or names.get(parent) == under):
                count += n
                seconds += t
        return count, seconds

    def dump(self, path: Path) -> None:
        doc = {
            "spans": [asdict(s) for s in self.spans],
            "tallies": [
                {"parent": p, "name": n, "count": c, "seconds": t}
                for (p, n), (c, t) in self.tallies.items()
            ],
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def install(recorder: SpanRecorder):
    """Patch the package's module boundaries; returns a function that undoes it."""
    from edm_rulex import cli, psychostats, rulekit

    def on_train(args, kwargs, result):
        dataset = args[1] if len(args) > 1 else kwargs["dataset"]
        recorder.count("neural.epochs", result.epochs_run)
        recorder.count("neural.pattern_updates", result.epochs_run * len(dataset))

    def on_refine(args, kwargs, result):
        recorder.count("rulekit.terms_decoded", len(args[0].terms))
        recorder.count("rulekit.terms_kept", len(result.terms))

    spanned = [
        (cli, "sample_population", "synthgen.sample_population", None),
        (cli, "discretize_cohort", "synthgen.label", None),
        (cli, "plant_rules", "synthgen.label", None),
        (cli, "parse_dataset_csv", "schema.parse_dataset_csv", None),
        (cli, "encode_dataset", "schema.encode_dataset", None),
        (cli, "train", "neural.train", on_train),
        (cli, "extract_ruleset", "rulekit.extract_ruleset", None),
        (rulekit, "evolve", "evolver.evolve", None),
        (rulekit, "refine_rule", "rulekit.refine_rule", on_refine),
        (rulekit.DatasetIndex, "__init__", "rulekit.index", None),
        (rulekit.DatasetIndex, "subset", "rulekit.index", None),
        (rulekit.RuleSet, "accuracy", "rulekit.accuracy", None),
    ]
    tallied = [
        (rulekit, "class_score", "neural.class_score"),
        (rulekit, "evaluate_rule", "rulekit.evaluate_rule"),
        *(
            (cli, fn, "psychostats")
            for fn in ("t_test", "manova_wilks", "levene_w", "cronbach_alpha", "partial_r")
        ),
        # cli._anova_from_groups imports this from the module at call time
        (psychostats, "anova_oneway", "psychostats"),
    ]
    saved = []
    for owner, attr, name, after in spanned:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.spanned(name, original, after))
    for owner, attr, name in tallied:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.tallied(name, original))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
