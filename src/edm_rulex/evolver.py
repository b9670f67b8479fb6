"""Genetic search over fixed-length binary chromosomes.

Maximizes an arbitrary pure population fitness with tournament selection,
single-point crossover, per-bit mutation, and elitism.  Each generation is
array code over the whole population: one fitness call, one matrix of
tournament draws, one crossover mask, one mutation mask.  Chromosomes are
unconstrained bit strings; segments may be multi-hot or empty, the decoder
gives them meaning.  Fitness must be pure; runs are deterministic for a
fixed seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ValidationError

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
    generations: int


def select_tournament(
    fitnesses: Sequence[float] | np.ndarray,
    k: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices of n tournament winners, each the best of k uniform draws with
    replacement.  The draws are one (n, k) matrix; ties go to the lowest
    drawn index."""
    fits = np.asarray(fitnesses, dtype=float)
    if fits.shape[0] == 0:
        raise ValidationError("cannot select from an empty population")
    if k < 1:
        raise ValidationError(f"tournament size must be >= 1, got {k}")
    draws = rng.integers(0, fits.shape[0], size=(n, k))
    drawn = fits[draws]
    is_best = drawn == drawn.max(axis=1, keepdims=True)
    return np.where(is_best, draws, fits.shape[0]).min(axis=1)


def crossover_point(
    a: np.ndarray, b: np.ndarray, cuts, coins
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover of paired rows: pair i swaps its suffixes from
    cuts[i] on where coins[i] is set and passes through unchanged otherwise.
    The bits at each position are conserved across the pair."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValidationError(f"parent batches differ in shape: {a.shape} vs {b.shape}")
    cuts = np.asarray(cuts)
    coins = np.asarray(coins, dtype=bool)
    if cuts.shape != (a.shape[0],) or coins.shape != (a.shape[0],):
        raise ValidationError(
            f"need one cut and one coin per pair ({a.shape[0]}), "
            f"got shapes {cuts.shape} and {coins.shape}"
        )
    if cuts.size and not (cuts.min() >= 1 and cuts.max() < a.shape[1]):
        raise ValidationError(f"cuts must be in [1, {a.shape[1]}), got {cuts.tolist()}")
    swap = (np.arange(a.shape[1]) >= cuts[:, None]) & coins[:, None]
    return np.where(swap, b, a), np.where(swap, a, b)


def mutate_bits(pop: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p: one Bernoulli mask of
    the population's shape, XORed onto it."""
    if not 0 <= p <= 1:
        raise ValidationError(f"mutation probability must be in [0,1], got {p}")
    pop = np.asarray(pop, dtype=np.uint8)
    return pop ^ (rng.random(pop.shape) < p).astype(np.uint8)


def _evaluate(fitness, population: np.ndarray) -> np.ndarray:
    fits = np.asarray(fitness(population), dtype=float)
    if fits.shape != (population.shape[0],):
        raise ValidationError(
            f"fitness must return one value per chromosome, shape "
            f"({population.shape[0]},); got shape {fits.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(fits))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"fitness returned non-finite value {float(fits[i])!r} "
            f"for chromosome {population[i].tolist()}"
        )
    return fits


def evolve(
    fitness: Callable[[np.ndarray], np.ndarray], bit_length: int, config: GaConfig
) -> EvolutionResult:
    """Run the full loop: initialize, then (select, cross, mutate, elitism)
    per generation.

    ``fitness`` scores a whole population at once: it takes a ``uint8[P, B]``
    matrix and returns ``float[P]``, so each generation costs one call.

    The history records the best fitness seen so far after each generation,
    so it is non-decreasing; the returned best never exceeds the true
    maximum because it is always one of the evaluated chromosomes.
    """
    if bit_length < 1:
        raise ValidationError(f"bit length must be >= 1, got {bit_length}")
    rng = np.random.default_rng(config.seed)
    size = config.population_size
    n_children = size - config.elitism
    pairs = (n_children + 1) // 2
    pop = rng.integers(0, 2, size=(size, bit_length), dtype=np.uint8)
    fits = _evaluate(fitness, pop)
    champ_idx = int(np.argmax(fits))
    champion = pop[champ_idx].copy()
    champion_fitness = float(fits[champ_idx])
    history: list[float] = []
    for gen in range(config.generations):
        elite = pop[np.argsort(-fits, kind="stable")[: config.elitism]]
        parents = pop[select_tournament(fits, config.tournament_size, 2 * pairs, rng)]
        p1, p2 = parents[:pairs], parents[pairs:]
        if bit_length > 1:
            coins = rng.random(pairs) < config.crossover_prob
            cuts = rng.integers(1, bit_length, size=pairs)
            p1, p2 = crossover_point(p1, p2, cuts, coins)
        children = np.concatenate([p1, p2])[:n_children]
        pop = np.concatenate([elite, mutate_bits(children, config.mutation_prob, rng)])
        fits = _evaluate(fitness, pop)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > champion_fitness:
            champion = pop[gen_best].copy()
            champion_fitness = float(fits[gen_best])
        history.append(champion_fitness)
        log.debug("generation %d best %.6f", gen + 1, champion_fitness)
    return EvolutionResult(
        best_chromosome=champion,
        best_fitness=champion_fitness,
        history=history,
        generations=config.generations,
    )
