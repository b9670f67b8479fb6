"""Genetic search over fixed-length binary chromosomes.

Maximizes an arbitrary pure population fitness with tournament selection,
single-point crossover, per-bit mutation, and elitism.  Each generation is
array code over the whole population: one fitness call, one matrix of
tournament draws, one crossover mask, one mutation mask.

``evolve`` takes runs that differ only in their seeds and runs them in
lockstep: their populations form one stack ``uint8[R, P, B]``, each
generation makes one fitness call for the whole stack, and every operator is
one array operation over it.  Each run keeps its own generator and draws from
it the same shapes in the same order at any R, so with a fitness that scores
a row the same in any batch, each run's result is bit for bit the one it
gives alone, as the stack with R = 1.  ``rulekit.extract_ruleset`` relies
on this to split a covering round's runs over processes, one slice per CPU:
the joined results are the same bits as one stack's.

Chromosomes are unconstrained bit strings; segments may be multi-hot or
empty, the decoder gives them meaning.  Fitness must be pure; runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .util import check_indexable

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    generations: int = 200
    crossover_prob: float = 0.8
    mutation_prob: float = 0.02  # per bit
    tournament_size: int = 3
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValidationError(f"population must be >= 2, got {self.population_size}")
        if not 0 <= self.elitism < self.population_size:
            raise ValidationError(
                f"elitism must be in [0, population), got {self.elitism}"
            )
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValidationError(f"{name} must be in [0,1], got {p}")
        if self.tournament_size < 1:
            raise ValidationError(f"tournament size must be >= 1, got {self.tournament_size}")
        if self.generations < 0:
            raise ValidationError(f"generations must be >= 0, got {self.generations}")


@dataclass
class EvolutionResult:
    best_chromosome: np.ndarray
    best_fitness: float
    history: list[float]  # running best per generation; non-decreasing

    @property
    def generations(self) -> int:
        return len(self.history)


class _Lockstep:
    """One generator per run, drawn together: a draw of shape ``(R, *s)``
    stacks a draw of shape ``s`` from each run's own generator.  The operators
    take this or a plain ``np.random.Generator``."""

    def __init__(self, seeds: Sequence[int]):
        self._rngs = [np.random.default_rng(seed) for seed in seeds]

    def integers(self, low, high, size, dtype=np.int64) -> np.ndarray:
        return np.array([rng.integers(low, high, size=size[1:], dtype=dtype) for rng in self._rngs])

    def random(self, size) -> np.ndarray:
        out = np.empty(size)
        for rng, row in zip(self._rngs, out):
            rng.random(out=row)
        return out


def select_tournament(
    fitnesses: Sequence[float] | np.ndarray,
    k: int,
    n: int,
    rng: np.random.Generator | _Lockstep,
) -> np.ndarray:
    """Indices of n tournament winners, each the best of k uniform draws with
    replacement, from ``float[P]`` fitnesses or from each row of a stack
    ``float[R, P]``.  The draws are one ``(n, k)`` matrix per row; ties go to
    the lowest drawn index."""
    fits = np.asarray(fitnesses, dtype=float)
    size = fits.shape[-1]
    if size == 0:
        raise ValidationError("cannot select from an empty population")
    if k < 1:
        raise ValidationError(f"tournament size must be >= 1, got {k}")
    draws = rng.integers(0, size, size=(*fits.shape[:-1], n, k))
    rows = np.arange(0, fits.size, size).reshape(*fits.shape[:-1], 1, 1)
    drawn = fits.ravel()[draws + rows]
    is_best = drawn == drawn.max(axis=-1, keepdims=True)
    return np.where(is_best, draws, size).min(axis=-1)


def crossover_point(
    a: np.ndarray, b: np.ndarray, cuts, coins
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover of paired bit rows: pair i swaps its suffixes from
    cuts[i] on where coins[i] is set and passes through unchanged otherwise.
    The pairs are ``(..., pairs, B)`` with one cut and coin each, so a stack
    of runs crosses in one call.  The bits at each position are conserved
    across the pair."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape != b.shape:
        raise ValidationError(f"parent batches differ in shape: {a.shape} vs {b.shape}")
    cuts = np.asarray(cuts)
    coins = np.asarray(coins, dtype=bool)
    if cuts.shape != a.shape[:-1] or coins.shape != a.shape[:-1]:
        raise ValidationError(
            f"need one cut and one coin per pair {a.shape[:-1]}, "
            f"got shapes {cuts.shape} and {coins.shape}"
        )
    if cuts.size and not (cuts.min() >= 1 and cuts.max() < a.shape[-1]):
        raise ValidationError(f"cuts must be in [1, {a.shape[-1]}), got {cuts.tolist()}")
    swap = (np.arange(a.shape[-1]) >= cuts[..., None]) & coins[..., None]
    differ = (a ^ b) & swap  # the bits each child takes from the other parent
    return a ^ differ, b ^ differ


def mutate_bits(pop: np.ndarray, p: float, rng: np.random.Generator | _Lockstep) -> np.ndarray:
    """Flip each bit independently with probability p: one Bernoulli mask of
    the population's shape, XORed onto it."""
    if not 0 <= p <= 1:
        raise ValidationError(f"mutation probability must be in [0,1], got {p}")
    pop = np.asarray(pop, dtype=np.uint8)
    return pop ^ (rng.random(pop.shape) < p).astype(np.uint8)


def _evaluate(fitness, population: np.ndarray) -> np.ndarray:
    """``fitness(population)`` as floats, one per chromosome: ``float[R, P]``
    for a stack ``uint8[R, P, B]``."""
    fits = np.asarray(fitness(population), dtype=float)
    if fits.shape != population.shape[:-1]:
        raise ValidationError(
            f"fitness must return one value per chromosome, shape "
            f"{population.shape[:-1]}; got shape {fits.shape}"
        )
    if not np.isfinite(fits).all():
        at = tuple(np.argwhere(~np.isfinite(fits))[0])
        raise NumericError(
            f"fitness returned non-finite value {float(fits[at])!r} "
            f"for chromosome {population[at].tolist()} of run {at[0]}"
        )
    return fits


def evolve(
    fitness: Callable[[np.ndarray], np.ndarray],
    bit_length: int,
    configs: Sequence[GaConfig],
) -> list[EvolutionResult]:
    """Run the full loop: initialize, then (select, cross, mutate, elitism)
    per generation, for one run per config.

    The configs may differ only in their seeds, and the runs go in lockstep:
    ``fitness`` takes the stack ``uint8[R, P, B]`` and returns
    ``float[R, P]``, so each generation costs one call.  The result has one
    entry per config, each equal to that config's run in a stack of one,
    ``evolve(fitness, B, [config])[0]``.

    The history records the best fitness seen so far after each generation,
    so it is non-decreasing; the returned best never exceeds the true
    maximum because it is always one of the evaluated chromosomes.
    """
    configs = list(configs)
    if not configs:
        raise ValidationError("evolve needs at least one config")
    cfg = configs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in configs):
        raise ValidationError("runs in lockstep may differ only in their seeds")
    if bit_length < 1:
        raise ValidationError(f"bit length must be >= 1, got {bit_length}")
    runs, size = len(configs), cfg.population_size
    n_children = size - cfg.elitism
    pairs = (n_children + 1) // 2
    check_indexable(f"population size {size}", (runs, size, bit_length))
    check_indexable(f"tournament size {cfg.tournament_size}", (runs, 2 * pairs, cfg.tournament_size))
    rng = _Lockstep([c.seed for c in configs])
    each = np.arange(runs)
    first = (each * size)[:, None]  # each run's first row in the flattened stack

    pop = rng.integers(0, 2, size=(runs, size, bit_length), dtype=np.uint8)
    fits = _evaluate(fitness, pop)
    best = fits.argmax(axis=1)
    champion, champion_fitness = pop[each, best], fits[each, best]
    history: list[np.ndarray] = []
    for gen in range(cfg.generations):
        rows = pop.reshape(-1, bit_length)
        elite = rows[np.argsort(-fits, axis=1, kind="stable")[:, : cfg.elitism] + first]
        parents = rows[select_tournament(fits, cfg.tournament_size, 2 * pairs, rng) + first]
        p1, p2 = parents[:, :pairs], parents[:, pairs:]
        if bit_length > 1:
            coins = rng.random((runs, pairs)) < cfg.crossover_prob
            cuts = rng.integers(1, bit_length, size=(runs, pairs))
            p1, p2 = crossover_point(p1, p2, cuts, coins)
        children = np.concatenate([p1, p2], axis=1)[:, :n_children]
        pop = np.concatenate([elite, mutate_bits(children, cfg.mutation_prob, rng)], axis=1)
        fits = _evaluate(fitness, pop)
        best = fits.argmax(axis=1)
        best_fitness = fits[each, best]
        better = best_fitness > champion_fitness
        champion = np.where(better[:, None], pop[each, best], champion)
        champion_fitness = np.where(better, best_fitness, champion_fitness)
        history.append(champion_fitness)
        log.debug("generation %d best %s", gen + 1, champion_fitness)
    histories = np.reshape(history, (cfg.generations, runs)).T.tolist()
    return [
        EvolutionResult(
            best_chromosome=champion[r],
            best_fitness=float(champion_fitness[r]),
            history=histories[r],
        )
        for r in range(runs)
    ]
