"""Genetic search over fixed-length binary chromosomes.

Maximizes an arbitrary pure population fitness with tournament selection,
single-point crossover, per-bit mutation, and elitism.  Each generation is
array code over the whole population: one fitness call, one stable sort of
the fitnesses, which ranks the population for both the elites and the
tournaments, one matrix of tournament entrants, one crossover mask and the
mutation's flips.  The next population is built in place in one of two
buffers allocated per call: the elites and the tournament winners are
gathered into it, each pair of winners is crossed there and the mutated
bits XORed, and the buffers swap.  The operators' masks and index arrays
are scratch allocated per call too, and so are the two blocks that each
run draws per generation: one uniform block, which gives its tournament
entrants, its crossing coins and its cuts, and one block of geometric gaps
between mutated bits, the mutation clock (Goldberg 1989), which flips each
child bit independently with the mutation probability in about n·p draws
rather than one per bit.  The initial population is drawn into the first
population buffer.  ``evolve`` calls each operator (``_tournament``,
``_cross``, ``_mutate``) unchecked, on arrays it built itself.  The
champions change only in a generation where some run's best fitness beats
its champion's, so only then are the best chromosomes found and copied.
``tests/helpers.reference_evolve`` pins these steps: it runs the same GA
with a fresh array for every step and per-run Python loops for the draws,
and ``evolve`` must match it bit for bit.

``evolve`` takes one config that all its runs share and one seed per
run, and runs them in lockstep: their populations form one stack
``uint8[R, P, B]``, each generation makes one fitness call for the whole
stack, and every operator is one array operation over it, but for the
mutation clock, which walks each run's children in turn.  Each run keeps
its own generator and draws from it the same blocks in the same order at
any R, so with a fitness that scores a row the same in any batch, each
run's result is bit for bit the one it gives alone, as the stack with
R = 1.  ``rulekit.extract_ruleset`` relies on this to evolve several
covering rounds of a class in one stack, before it knows which of them
it will use, and to split the classes over processes, one slice per CPU:
the joined results are the same bits as those of one run at a time.

Chromosomes are unconstrained bit strings; segments may be multi-hot or
empty, the decoder gives them meaning.  Fitness must be pure; runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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
    # distinct chromosomes of the last population whose fitness equals
    # best_fitness, counted after the loop: above 1, the GA chose the champion
    # among ties (as where an output saturates at 1.0); 0 when elitism 0 lost it
    champion_ties: int
    # the generation whose best first reached best_fitness, the first whose
    # history entry equals it; 0 when the initial population held it
    champion_generation: int

    @property
    def generations(self) -> int:
        return len(self.history)


def _split_block(uniform, size, bit_length, crossover_prob, entrants, crossed, cuts) -> None:
    """A generation's tournament entrants, crossing coins and cuts, from
    each run's uniform block ``uniform`` ``float[..., 2 pairs (k + 1)]``
    of draws in [0, 1): the first 2 pairs k give the entrants
    ``floor(u * size)`` into ``entrants`` ``int64[..., 2 pairs, k]``, the
    next pairs the coins ``u < crossover_prob`` into ``crossed`` (bool),
    the last pairs the cuts ``1 + floor(u * (bit_length - 1))`` into
    ``cuts`` (int64).  The cast truncates the float product, and for any
    integer n below 2**53 the largest draw, 1 - 2**-53, times n rounds below
    n, so ``floor(u * n)`` is at most n - 1: the entrants lie in [0, size)
    and the cuts in [1, bit_length)."""
    entries, pairs = entrants.shape[-2] * entrants.shape[-1], cuts.shape[-1]
    flat = entrants.reshape(*uniform.shape[:-1], entries)
    np.multiply(uniform[..., :entries], size, out=flat, casting="unsafe")
    np.less(uniform[..., entries : entries + pairs], crossover_prob, out=crossed)
    np.multiply(uniform[..., entries + pairs :], bit_length - 1, out=cuts, casting="unsafe")
    cuts += 1


def _tournament(order, draws, rows, place, rank, winners) -> None:
    """Tournament selection: each winner is the best-ranked of its row's k
    ``draws`` ``int[..., n, k]``, so with ``order`` ``int[..., P]`` the stable
    ``argsort(-fitnesses)``, the draw of highest fitness, ties to the lowest
    drawn index.  Each winner's place in the flattened ranking goes into
    ``winners`` ``intp[..., n]``; ``rows`` is each row's first flattened
    index, ``place`` scratch of ``order.size`` and ``rank`` ``arange(order.size)``."""
    # each chromosome's place in the flattened ranking: row r's j-th best is r * P + j
    place[(order + rows).ravel()] = rank
    draws += rows[..., None]
    drawn = place[draws]
    winners[...] = drawn[..., 0]  # k - 1 minimums of columns beat one reduction over short rows
    for j in range(1, drawn.shape[-1]):
        np.minimum(winners, drawn[..., j], out=winners)


def _cross(a, b, cuts, coins, positions, swap, differ) -> None:
    """Single-point crossover of paired bit rows ``(..., pairs, B)``, in
    place: pair i swaps its suffixes from ``cuts[i]`` (in ``[1, B)``) on
    where ``coins[i]`` is set and is left as it is otherwise, so the bits at
    each position are conserved across the pair.  ``positions`` is
    ``arange(B)`` in the narrowest unsigned integers that hold B, and
    ``swap`` (bool) and ``differ`` (uint8) are scratch of the pairs' shape."""
    starts = np.where(coins, cuts, a.shape[-1]).astype(positions.dtype)
    np.greater_equal(positions, starts[..., None], out=swap)
    np.bitwise_xor(a, b, out=differ)
    differ &= swap.view(np.uint8)  # the bits each child takes from the other parent
    a ^= differ
    b ^= differ


def _flip_sites(rng, p, n, ends) -> np.ndarray:
    """The mutation clock (Goldberg 1989) of one run: the positions in
    [0, n) of the bits that flip, each independently with probability
    p > 0, as the running sums of geometric gaps between flips drawn from
    the run's generator ``rng``, the first gap less one so that the sums are
    positions: about n·p draws rather than n.  ``ends`` (int64) is scratch
    for one block of gaps; while a block's flips all fall inside [0, n),
    the same generator draws another, so the flips do not depend on the
    block's length.  The sites are sorted and distinct."""
    # numpy gives gaps of INT64_MAX at tiny p, whose sums would wrap
    # negative; a gap of n + 1 already leaves the n bits
    np.minimum(rng.geometric(p, size=ends.size), n + 1, out=ends)
    ends[0] -= 1
    sites = np.add.accumulate(ends, out=ends)
    while sites[-1] < n:  # a short block: the walk goes on from its last flip
        more = np.minimum(rng.geometric(p, size=ends.size), n + 1)
        more[0] += sites[-1]
        sites = np.concatenate([sites, np.add.accumulate(more)])
    return sites[: sites.searchsorted(n)]


def _mutate(bits, starts, n, p, rngs, ends) -> None:
    """Per-bit mutation, in place: run r's n child bits, ``bits[starts[r] :
    starts[r] + n]`` of the flat buffer ``bits``, flip at the sites of
    ``_flip_sites`` from its own generator ``rngs[r]``, with ``ends`` its
    scratch.  With p = 0 nothing is drawn."""
    if p == 0:  # rng.geometric(0) raises: no bit ever flips
        return
    for rng, start in zip(rngs, starts):
        bits[start : start + n][_flip_sites(rng, p, n, ends)] ^= 1


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
    config: GaConfig,
    seeds: Sequence[int],
) -> list[EvolutionResult]:
    """Run the full loop: initialize, then (select, cross, mutate, elitism)
    per generation, for one run of ``config`` per seed.

    The runs go in lockstep: ``fitness`` takes the stack ``uint8[R, P, B]``
    and returns ``float[R, P]``, so each generation costs one call.  The
    stack is a view of a buffer that a later generation overwrites, so a
    fitness that keeps it must copy it.  The result has one entry per seed,
    each equal to that seed's run in a stack of one,
    ``evolve(fitness, B, config, [seed])[0]``.

    The history records the best fitness seen so far after each generation,
    so it is non-decreasing; the returned best never exceeds the true
    maximum because it is always one of the evaluated chromosomes.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("evolve needs at least one seed")
    if bit_length < 1:
        raise ValidationError(f"bit length must be >= 1, got {bit_length}")
    runs, size, elites = len(seeds), config.population_size, config.elitism
    n_children = size - elites
    pairs = (n_children + 1) // 2
    # Two population buffers, swapped each generation.  A run's rows are its
    # elites, then the crossed tournament winners: the first of each pair,
    # then the second.  With an odd child count the last row is the last
    # pair's second child, crossed and dropped, one past the population.
    depth = elites + 2 * pairs
    check_indexable(f"population size {size}", (runs, depth, bit_length), np.uint8)
    # each run's uniform block per generation: its k tournament entrants per
    # winner, then a crossing coin and a cut per pair; it outsizes the int64
    # entrants drawn from it.  It holds about P (k + 1) draws, so it names the
    # larger of the two sizes: with a small schema a population whose uint8
    # stack passes can still take a block past the limit
    entries = 2 * pairs * config.tournament_size
    blamed = f"tournament size {config.tournament_size}" if config.tournament_size > size else f"population size {size}"
    check_indexable(blamed, (runs, entries + 2 * pairs), np.float64)
    # a run's block of mutation gaps: its n = children x B bits flip about
    # n·p times, and a block of 8 standard deviations and 16 more past that
    # falls short of the n bits in fewer than one generation in 10**15
    mutable = n_children * bit_length
    flips = mutable * config.mutation_prob
    block = int(flips + 8 * math.sqrt(flips)) + 16
    check_indexable(f"population size {size}", (block,), np.int64)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # allocated one at a time and before the float draws, so a population
    # past the memory fails as a MemoryError, not as numpy's ValueError
    # for an array of more bytes than it can index; each is reused by
    # every generation
    pop = np.empty((runs, depth, bit_length), dtype=np.uint8)
    nxt = np.empty_like(pop)
    differ = np.empty((runs, pairs, bit_length), dtype=np.uint8)
    swap = np.empty(differ.shape, dtype=bool)
    uniform = np.empty((runs, entries + 2 * pairs))
    ends = np.empty(block, dtype=np.int64)
    entrants = np.empty((runs, 2 * pairs, config.tournament_size), dtype=np.int64)  # each tournament's k draws
    sources = np.empty((runs, depth), dtype=np.intp)  # each next row's row in pop
    winners = np.empty((runs, 2 * pairs), dtype=np.intp)
    place, rank = np.empty(runs * size, dtype=np.intp), np.arange(runs * size)
    negated = np.empty((runs, size))
    cuts = np.empty((runs, pairs), dtype=np.int64)
    crossed = np.empty((runs, pairs), dtype=bool)
    positions = np.arange(bit_length, dtype=np.min_scalar_type(bit_length))
    each = np.arange(runs)
    rows = (each * size)[:, None]  # each run's first place in the flattened ranking
    first = (each * depth)[:, None]  # each run's first row in the flattened buffer
    starts = ((each * depth + elites) * bit_length).tolist()  # each run's first child bit in it
    found = np.zeros(runs, dtype=int)  # the generation of each run's champion
    debug = log.isEnabledFor(logging.DEBUG)

    for rng, run in zip(rngs, pop):
        run[:size] = rng.integers(0, 2, size=(size, bit_length), dtype=np.uint8)
    fits = _evaluate(fitness, pop[:, :size])
    best = fits.argmax(axis=1)
    champion, champion_fitness = pop[each, best], fits[each, best]
    history: list[np.ndarray] = []
    for gen in range(config.generations):
        for rng, row in zip(rngs, uniform):
            rng.random(out=row)
        order = np.argsort(np.negative(fits, out=negated), axis=1, kind="stable")
        _split_block(uniform, size, bit_length, config.crossover_prob, entrants, crossed, cuts)
        _tournament(order, entrants, rows, place, rank, winners)
        sources[:, :elites] = order[:, :elites]
        np.take(order, winners, out=sources[:, elites:])
        sources += first
        # every source is a row of pop, so "clip" clips nothing; it spares the
        # bounds check a copy through a temporary
        np.take(pop.reshape(-1, bit_length), sources, axis=0, out=nxt, mode="clip")
        if bit_length > 1:
            _cross(nxt[:, elites : elites + pairs], nxt[:, elites + pairs :], cuts, crossed, positions, swap, differ)
        _mutate(nxt.reshape(-1), starts, mutable, config.mutation_prob, rngs, ends)
        pop, nxt = nxt, pop
        fits = _evaluate(fitness, pop[:, :size])
        better = fits.max(axis=1) > champion_fitness
        if better.any():  # champions rarely change, so most generations copy nothing
            best = fits.argmax(axis=1)
            np.copyto(champion, pop[each, best], where=better[:, None])
            champion_fitness = np.where(better, fits[each, best], champion_fitness)
            found[better] = gen + 1
        history.append(champion_fitness)
        if debug:
            log.debug("generation %d best %s", gen + 1, champion_fitness)
    histories = np.reshape(history, (config.generations, runs)).T.tolist()
    last = pop[:, :size]
    return [
        EvolutionResult(
            best_chromosome=champion[r],
            best_fitness=float(champion_fitness[r]),
            history=histories[r],
            # a set of the rows' bytes: np.unique(axis=0) would import numpy.ma
            champion_ties=len({row.tobytes() for row in last[r][fits[r] == champion_fitness[r]]}),
            champion_generation=int(found[r]),
        )
        for r in range(runs)
    ]
