"""Independent oracles shared by module tests and the acceptance suite."""

import numpy as np

from edm_rulex.neural import Network, forward
from edm_rulex.schema import Attribute, AttributeSchema, ROLE_TARGET, StudentRecord


def batch_loss(net: Network, dataset) -> float:
    # mean over patterns of 0.5 * sum squared output error, via forward() only
    total = 0.0
    for vec in dataset:
        y = forward(net, vec.bits)
        t = np.zeros(net.output_size)
        t[vec.target_index] = 1.0
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
    from dataclasses import replace

    target = schema.target.name
    current = rule
    current_conf = _confidence(current, records, target)
    while current.terms:
        best_candidate, best_conf = None, -1.0
        for attr_name, _ in current.terms:
            candidate = current.without_term(attr_name)
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
        vacuous=support == 0,
    )
