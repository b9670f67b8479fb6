import logging
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edm_rulex.errors import NumericError, ValidationError
from edm_rulex.evolver import EvolutionResult, GaConfig, _flip_sites, _mutate, _split_block, evolve
from edm_rulex.neural import Network, class_score
from helpers import reference_crossover, reference_evolve, reference_mutate, reference_tournament


def popcount(pop):
    return pop.sum(axis=-1).astype(float)


def test_onemax_reaches_all_ones():
    for seed in range(20):
        result = evolve(popcount, 16, [GaConfig(seed=seed)])[0]
        assert result.best_fitness == 16.0
        assert result.best_chromosome.sum() == 16
        assert result.champion_ties == 1  # copies of the one all-ones string are one chromosome


def test_constant_fitness_terminates():
    result = evolve(
        lambda pop: np.ones(pop.shape[:-1]), 8, [GaConfig(population_size=10, generations=15, seed=0)]
    )[0]
    assert result.best_fitness == 1.0
    assert result.history == [1.0] * 15
    assert result.generations == 15


def test_constant_fitness_ties_every_distinct_chromosome_of_the_last_population():
    # a flat fitness is saturation at its extreme: every chromosome of the
    # last population ties with the champion, each distinct one counted once
    populations = []

    def flat(pop):
        populations.append(pop.copy())
        return np.ones(pop.shape[:-1])

    result = evolve(flat, 8, [GaConfig(population_size=10, generations=15, seed=0)])[0]
    distinct = {tuple(row) for row in populations[-1][0].tolist()}
    assert result.champion_ties == len(distinct) > 1


def test_history_non_decreasing():
    def lumpy(pop):  # pure but deliberately rugged
        x = pop.astype(np.int64) @ (1 << np.arange(pop.shape[-1])[::-1])
        return ((x * 2654435761) % 997).astype(float)

    result = evolve(lumpy, 14, [GaConfig(population_size=30, generations=40, seed=3)])[0]
    assert all(a <= b for a, b in zip(result.history, result.history[1:]))


def test_deterministic():
    cfg = GaConfig(population_size=20, generations=25, seed=1234)
    a = evolve(popcount, 12, [cfg])[0]
    b = evolve(popcount, 12, [cfg])[0]
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.best_chromosome, b.best_chromosome)
    assert a.history == b.history


def test_non_finite_fitness_aborts():
    def bad(pop):
        return np.where(pop[..., 0] == 1, np.nan, 0.0)

    with pytest.raises(NumericError, match="chromosome"):
        evolve(bad, 4, [GaConfig(population_size=8, generations=5, seed=0)])


@pytest.mark.parametrize(
    "wrong",
    [
        lambda pop: float(pop.sum()),
        lambda pop: pop.sum(axis=-1)[..., :-1].astype(float),
        lambda pop: pop.astype(float),
    ],
    ids=["scalar", "short", "matrix"],
)
def test_fitness_wrong_shape_rejected(wrong):
    with pytest.raises(ValidationError, match="shape"):
        evolve(wrong, 6, [GaConfig(population_size=8, generations=3, seed=0)])


def test_one_fitness_call_per_generation():
    calls = []

    def counted(pop):
        calls.append(pop.shape)
        return popcount(pop)

    evolve(counted, 5, [GaConfig(population_size=9, generations=7, seed=0)])
    assert calls == [(1, 9, 5)] * 8


def test_soundness_against_enumeration():
    rng = np.random.default_rng(99)
    weights = rng.normal(size=12)

    def fitness(pop):
        return np.asarray(pop, dtype=float) @ weights

    everything = (np.arange(2**12)[:, None] >> np.arange(12)) & 1
    exhaustive = fitness(everything).max()
    for seed in range(5):
        result = evolve(fitness, 12, [GaConfig(population_size=40, generations=40, seed=seed)])[0]
        assert result.best_fitness <= exhaustive + 1e-12


# The operator contracts, tested on reference_evolve's own steps, which
# test_evolve_equals_reference ties to evolve bit for bit.


def test_tournament_prefers_best():
    rng = np.random.default_rng(0)
    fitnesses = np.array([0.1, 0.9, 0.4, 0.2])
    winners = reference_tournament(fitnesses, 64, 10**4, rng)
    # P(best in 64 draws with replacement) = 1 - (3/4)^64 ~ 1 - 1e-8
    assert (winners == 1).sum() >= 9900


def test_tournament_single_member():
    rng = np.random.default_rng(0)
    assert reference_tournament(np.array([0.5]), 3, 10, rng).tolist() == [0] * 10


def test_tournament_tie_lowest_index():
    # with equal fitnesses the winner is the lowest drawn index
    for seed in range(50):
        draws = np.random.default_rng(seed).integers(0, 5, size=(20, 7))
        winners = reference_tournament(np.ones(5), 7, 20, np.random.default_rng(seed))
        assert np.array_equal(winners, draws.min(axis=1))
    # and among tied best draws only, not the lowest draw overall
    fitnesses = np.array([0.0, 2.0, 0.0, 2.0, 1.0])
    for seed in range(50):
        draws = np.random.default_rng(seed).integers(0, 5, size=(20, 4))
        winners = reference_tournament(fitnesses, 4, 20, np.random.default_rng(seed))
        for row, winner in zip(draws, winners):
            best = fitnesses[row].max()
            assert winner == row[fitnesses[row] == best].min()


def crossed(a, b, cuts, coins):
    """The children of ``reference_crossover`` for parents, cuts and coins given as lists."""
    a, b = np.array(a, dtype=np.uint8), np.array(b, dtype=np.uint8)
    return reference_crossover(a, b, np.asarray(cuts), np.asarray(coins, dtype=bool))


def test_crossover_examples():
    a = np.array([[1, 1, 1, 1]], dtype=np.uint8)
    b = np.array([[0, 0, 0, 0]], dtype=np.uint8)
    c1, c2 = crossed(a, b, [2], [True])
    assert c1.tolist() == [[1, 1, 0, 0]]
    assert c2.tolist() == [[0, 0, 1, 1]]
    c1, c2 = crossed(a, a, [1], [True])
    assert np.array_equal(c1, a) and np.array_equal(c2, a)
    c1, c2 = crossed(np.vstack([a, a]), np.vstack([b, b]), [1, 3], [False, True])
    assert c1.tolist() == [[1, 1, 1, 1], [1, 1, 1, 0]]
    assert c2.tolist() == [[0, 0, 0, 0], [0, 0, 0, 1]]


def test_crossover_conserves_bits():
    rng = np.random.default_rng(4)
    for _ in range(10**4):
        length = int(rng.integers(2, 300))
        pairs = int(rng.integers(1, 12))
        a = rng.integers(0, 2, (pairs, length), dtype=np.uint8)
        b = rng.integers(0, 2, (pairs, length), dtype=np.uint8)
        cuts = rng.integers(1, length, pairs)
        coins = rng.random(pairs) < 0.5
        c1, c2 = crossed(a, b, cuts, coins)
        assert np.array_equal(c1 + c2, a + b)
        for i, (cut, coin) in enumerate(zip(cuts, coins)):
            assert np.array_equal(c1[i], np.r_[a[i, :cut], (b if coin else a)[i, cut:]])


def test_mutate_edges():
    rng = np.random.default_rng(0)
    c = rng.integers(0, 2, (8, 64), dtype=np.uint8)
    m = reference_mutate(c, 0.0, rng)
    assert np.array_equal(m, c)
    m = reference_mutate(m, 1.0, rng)
    assert np.array_equal(m, 1 - c)


def test_mutate_flip_rate():
    rng = np.random.default_rng(8)
    c = reference_mutate(np.zeros((1000, 1000), dtype=np.uint8), 0.02, rng)
    assert 15 <= np.mean(c.sum(axis=1)) <= 25


# The mutation clock and the uniform block, tested on evolve's own helpers.


def clock_block(n, p):
    """The length of evolve's block of mutation gaps for n child bits."""
    return int(n * p + 8 * math.sqrt(n * p)) + 16


def stack(runs, elites, size, bits):
    """A zero buffer laid out as evolve's population buffers, each run's
    elites, children and, for an odd child count, one row past them; with
    each run's first child bit in the flat buffer and its child bit count."""
    depth = elites + 2 * ((size - elites + 1) // 2)
    starts = ((np.arange(runs) * depth + elites) * bits).tolist()
    return np.zeros((runs, depth, bits), dtype=np.uint8), starts, (size - elites) * bits


def recorded(bits, config, seeds):
    """Every population that evolve scores, in order, under a popcount fitness."""
    seen = []

    def fitness(pop):
        seen.append(pop.copy())
        return popcount(pop)

    evolve(fitness, bits, [replace(config, seed=s) for s in seeds])
    return seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutation_0_draws_no_gaps():
    with pytest.raises(ValueError):
        np.random.default_rng(0).geometric(0.0)
    buf, starts, n = stack(2, 1, 6, 7)
    rngs = [np.random.default_rng(s) for s in (0, 1)]
    states = [rng.bit_generator.state for rng in rngs]
    _mutate(buf.reshape(-1), starts, n, 0.0, rngs, np.empty(16, dtype=np.int64))
    assert not buf.any()
    assert [rng.bit_generator.state for rng in rngs] == states


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutation_1_flips_every_child_bit():
    buf, starts, n = stack(3, 2, 9, 11)
    rngs = [np.random.default_rng(s) for s in (0, 1, 2)]
    _mutate(buf.reshape(-1), starts, n, 1.0, rngs, np.empty(clock_block(n, 1.0), dtype=np.int64))
    assert buf[:, 2:9].all() and not buf[:, :2].any() and not buf[:, 9:].any()
    # in evolve, without crossover each child is the complement of a row before it
    config = GaConfig(population_size=9, generations=6, elitism=2, crossover_prob=0.0, mutation_prob=1.0)
    seen = recorded(12, config, (3, 4))
    for before, after in zip(seen, seen[1:]):
        for r in range(2):
            rows = {row.tobytes() for row in before[r]}
            assert all((1 - child).tobytes() in rows for child in after[r, 2:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [5e-324, 1e-300])
def test_tiny_mutation_gaps_are_clipped_before_they_are_summed(p):
    # numpy's gaps saturate at INT64_MAX, whose sums would wrap negative and
    # flip bits counted from the end of the run
    assert (np.random.default_rng(5).geometric(p, size=16) == np.iinfo(np.int64).max).all()
    assert _flip_sites(np.random.default_rng(5), p, 7448, np.empty(16, dtype=np.int64)).size == 0
    buf, starts, n = stack(2, 2, 100, 76)
    _mutate(buf.reshape(-1), starts, n, p, [np.random.default_rng(s) for s in (5, 6)], np.empty(16, dtype=np.int64))
    assert not buf.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mutation", [0.0, 5e-324, 1e-300])
def test_without_crossover_no_mutation_keeps_every_chromosome_of_the_start(mutation):
    config = GaConfig(population_size=12, generations=30, crossover_prob=0.0, mutation_prob=mutation)
    seen = recorded(40, config, (3, 4))
    for r in range(2):
        start = {row.tobytes() for row in seen[0][r]}
        assert all(row.tobytes() in start for pop in seen for row in pop[r])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("p", [0.02, 0.3, 0.5, 1.0])  # numpy draws p < 1/3 by inversion, the rest by search
def test_a_short_block_draws_on_from_the_same_generator(p, block):
    n = 500
    for seed in range(5):
        sites = _flip_sites(np.random.default_rng(seed), p, n, np.empty(block, dtype=np.int64))
        walk = np.cumsum(np.random.default_rng(seed).geometric(p, size=2 * n + 100)) - 1
        assert np.array_equal(sites, walk[walk < n])
        whole = _flip_sites(np.random.default_rng(seed), p, n, np.empty(clock_block(n, p), dtype=np.int64))
        assert np.array_equal(sites, whole)
        flipped = reference_mutate(np.zeros(n, dtype=np.uint8), p, np.random.default_rng(seed))
        assert np.array_equal(sites, np.flatnonzero(flipped))


def test_a_mutation_block_past_numpy_index_range_is_a_validation_error():
    # the stack of 2 * 10**16 76-bit chromosomes is inside numpy's index
    # range, but at mutation 1 its block of int64 gaps is not; it is sized
    # before anything is allocated, so this is no MemoryError
    size = 2 * 10**16
    assert size * 76 < np.iinfo(np.intp).max < clock_block((size - 2) * 76, 1.0) * 8
    with pytest.raises(ValidationError, match=f"population size {size} is too large"):
        evolve(popcount, 76, [GaConfig(population_size=size, mutation_prob=1.0)])


def split_blocks(rng, blocks, runs, size, bits, k, pairs, crossover):
    """``_split_block`` over ``blocks`` fresh uniform blocks: the counts of
    each entrant and each cut, and the number of coins set."""
    entrants = np.empty((runs, 2 * pairs, k), dtype=np.int64)
    crossed = np.empty((runs, pairs), dtype=bool)
    cuts = np.empty((runs, pairs), dtype=np.int64)
    drawn, cut, coins = np.zeros(size, dtype=int), np.zeros(bits, dtype=int), 0
    for _ in range(blocks):
        _split_block(rng.random((runs, 2 * pairs * (k + 1))), size, bits, crossover, entrants, crossed, cuts)
        drawn += np.bincount(entrants.ravel(), minlength=size)  # longer, and unequal, if one is out of range
        cut += np.bincount(cuts.ravel(), minlength=bits)
        coins += int(crossed.sum())
    return drawn, cut, coins


@pytest.mark.parametrize("size, bits", [(2, 2), (13, 9), (100, 76), (37, 300)])
def test_entrants_and_cuts_are_uniform(size, bits):
    drawn, cut, _ = split_blocks(np.random.default_rng(size), 2000, 3, size, bits, 3, 5, 0.8)
    assert drawn.sum() == 2000 * 3 * 10 * 3 and cut.sum() == 2000 * 3 * 5
    assert cut[0] == 0  # cuts lie in [1, B)
    assert scipy.stats.chisquare(drawn).pvalue > 1e-3
    if bits > 2:
        assert scipy.stats.chisquare(cut[1:]).pvalue > 1e-3


@pytest.mark.parametrize("crossover", [0.0, 0.3, 0.8, 1.0])
def test_coin_rate(crossover):
    _, _, coins = split_blocks(np.random.default_rng(7), 2000, 3, 10, 9, 2, 5, crossover)
    trials = 2000 * 3 * 5
    assert abs(coins - trials * crossover) <= 5 * math.sqrt(trials * crossover * (1 - crossover))


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 2**31), bits=st.integers(2, 2**31))
@example(size=2**31, bits=2**31)
@example(size=2**31 - 1, bits=3)
@example(size=1, bits=2)
def test_the_largest_uniform_maps_inside_the_ranges(size, bits):
    # rng.random's largest value is 1 - 2**-53; row 0 draws only it, row 1 only 0
    uniform = np.array([[1 - 2**-53] * 4, [0.0] * 4])
    entrants = np.empty((2, 2, 1), dtype=np.int64)
    crossed = np.empty((2, 1), dtype=bool)
    cuts = np.empty((2, 1), dtype=np.int64)
    _split_block(uniform, size, bits, 1.0, entrants, crossed, cuts)
    assert entrants.ravel().tolist() == [size - 1, size - 1, 0, 0]
    assert cuts.ravel().tolist() == [bits - 1, 1]


def test_every_child_bit_flips_at_the_mutation_rate():
    # 3 runs of 2 elites and 7 children of 11 bits, as evolve lays them out:
    # each run's elites, then its children, then one row past them
    runs, elites, size, bits, p, trials = 3, 2, 9, 11, 0.05, 4000
    buf, starts, n = stack(runs, elites, size, bits)
    rngs = [np.random.default_rng(s) for s in range(runs)]
    ends = np.empty(clock_block(n, p), dtype=np.int64)
    flips, both = np.zeros(buf.shape), 0
    for _ in range(trials):
        buf[...] = 0
        _mutate(buf.reshape(-1), starts, n, p, rngs, ends)
        flips += buf
        run_bits = buf[:, elites:size].reshape(runs, -1)
        both += int((run_bits[:, 1:] & run_bits[:, :-1]).sum())  # neighbours, across rows too
    assert not flips[:, :elites].any() and not flips[:, size:].any()
    children = flips[:, elites:size]
    bound = 5 * math.sqrt(trials * p * (1 - p))
    assert np.abs(children - trials * p).max() < bound  # every position
    for edge in (children[..., 0], children[..., -1], children[:, 0, 0], children[:, -1, -1]):
        # each child's first and last bit; each run's first and last child bit
        assert np.abs(edge - trials * p).max() < bound
    assert scipy.stats.chisquare(children.ravel()).pvalue > 1e-3
    # neighbouring bits flip independently: together at rate p**2
    pairs = trials * runs * (n - 1)
    assert abs(both - pairs * p**2) < 5 * math.sqrt(pairs * p**2)


def test_champion_generation_is_where_the_history_reaches_the_best():
    def lumpy(pop):
        x = pop.astype(np.int64) @ (1 << np.arange(pop.shape[-1])[::-1])
        return ((x * 2654435761) % 997).astype(float)

    generations = set()
    results = evolve(lumpy, 14, [GaConfig(population_size=30, generations=40, seed=s) for s in range(12)])
    for result in results:
        g, best, history = result.champion_generation, result.best_fitness, result.history
        generations.add(g)
        if g == 0:
            assert history == [best] * 40
        else:
            assert history[g - 1] == best and (g == 1 or history[g - 2] < best)
    assert len(generations) > 1
    flat = evolve(lambda pop: np.ones(pop.shape[:-1]), 8, [GaConfig(population_size=10, generations=5)])[0]
    assert flat.champion_generation == 0
    assert evolve(popcount, 6, [GaConfig(population_size=12, generations=0)])[0].champion_generation == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(population_size=1),
        dict(elitism=100, population_size=100),
        dict(crossover_prob=1.5),
        dict(mutation_prob=-0.1),
        dict(tournament_size=0),
        dict(generations=-1),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        GaConfig(**kwargs)


def test_zero_generations_returns_initial_best():
    result = evolve(popcount, 6, [GaConfig(population_size=12, generations=0, seed=2)])[0]
    assert isinstance(result, EvolutionResult)
    assert result.history == []
    assert result.best_fitness == popcount(result.best_chromosome[None])[0]


def _hashed(pop, mult):
    """A rugged, pure integer fitness: each chromosome read as a binary
    number, scrambled by ``mult``.  Exact in any batch."""
    x = pop.astype(np.int64) @ (1 << np.arange(pop.shape[-1], dtype=np.int64))
    return ((x * mult) % 997).astype(float)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True),
    size=st.integers(2, 24),
    bits=st.integers(1, 20),
    generations=st.integers(0, 12),
    elitism=st.integers(0, 23),
    tournament=st.integers(1, 4),
    crossover=st.floats(0, 1),
    mutation=st.floats(0, 0.3),
)
@example(seeds=[3], size=2, bits=1, generations=0, elitism=0, tournament=1, crossover=1.0, mutation=0.1)
@example(
    seeds=[0, 1, 2, 3, 4, 5], size=7, bits=1, generations=6, elitism=0, tournament=3,
    crossover=0.8, mutation=0.2,
)
@example(
    seeds=[9, 4], size=10, bits=12, generations=8, elitism=0, tournament=2, crossover=0.5,
    mutation=0.05,
)
def test_lockstep_runs_equal_lone_runs(
    seeds, size, bits, generations, elitism, tournament, crossover, mutation
):
    base = GaConfig(
        population_size=size,
        generations=generations,
        elitism=min(elitism, size - 1),
        tournament_size=tournament,
        crossover_prob=crossover,
        mutation_prob=mutation,
    )
    configs = [replace(base, seed=seed) for seed in seeds]
    mults = np.array([2654435761 + 2 * r for r in range(len(seeds))])  # a surface per run
    batch = evolve(lambda pop: _hashed(pop, mults[:, None]), bits, configs)
    assert len(batch) == len(configs)
    for config, mult, got in zip(configs, mults, batch):
        alone = evolve(lambda pop: _hashed(pop, mult), bits, [config])[0]
        assert np.array_equal(got.best_chromosome, alone.best_chromosome)
        assert got.best_fitness == alone.best_fitness
        assert got.history == alone.history
        assert got.generations == alone.generations == generations


probabilities = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)


@settings(max_examples=80, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True),
    size=st.integers(2, 24),
    bits=st.integers(1, 20),
    generations=st.integers(0, 8),
    elitism=st.integers(0, 23),
    tournament=st.integers(1, 4),
    crossover=probabilities,
    mutation=probabilities,
    by_network=st.booleans(),
)
@example(  # an odd child count, crossover and mutation always
    seeds=[1, 2, 3], size=9, bits=7, generations=5, elitism=0, tournament=1, crossover=1.0,
    mutation=1.0, by_network=False,
)
@example(  # an even child count, crossover and mutation never
    seeds=[4, 5], size=12, bits=9, generations=5, elitism=2, tournament=4, crossover=0.0,
    mutation=0.0, by_network=True,
)
@example(  # one child, one bit: no crossover draws
    seeds=[0, 1, 2, 3, 4, 5], size=24, bits=1, generations=6, elitism=23, tournament=3,
    crossover=0.5, mutation=0.1, by_network=True,
)
@example(
    seeds=[6], size=2, bits=3, generations=4, elitism=1, tournament=2, crossover=1.0, mutation=0.0,
    by_network=False,
)
@example(  # past 255 bits crossover positions are uint16
    seeds=[7, 8], size=10, bits=300, generations=3, elitism=1, tournament=7, crossover=1.0,
    mutation=0.01, by_network=True,
)
@example(  # a long run: 14 generations in which no run improves, 33 in which only some do
    seeds=[10, 11, 12, 13, 14, 15], size=20, bits=16, generations=48, elitism=0, tournament=2,
    crossover=0.8, mutation=0.05, by_network=True,
)
def test_evolve_equals_reference(
    seeds, size, bits, generations, elitism, tournament, crossover, mutation, by_network
):
    # bit for bit the lockstep GA that built a fresh array for every step
    config = GaConfig(
        population_size=size,
        generations=generations,
        elitism=min(elitism, size - 1),
        tournament_size=tournament,
        crossover_prob=crossover,
        mutation_prob=mutation,
    )
    configs = [replace(config, seed=seed) for seed in seeds]
    if by_network:
        rng = np.random.default_rng(seeds[0])
        hidden, outputs = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        net = Network(
            v=rng.normal(scale=2.0, size=(hidden, bits)),
            b_h=rng.normal(size=hidden),
            w=rng.normal(scale=2.0, size=(outputs, hidden)),
            b_o=rng.normal(size=outputs),
        )
        classes = rng.integers(outputs, size=len(seeds))

        def fitness(pop):
            return class_score(net, pop, classes)
    else:
        mults = np.array([2654435761 + 2 * r for r in range(len(seeds))])

        def fitness(pop):
            return _hashed(pop, mults[:, None]) % 4  # many distinct chromosomes tie

    got, want = evolve(fitness, bits, configs), reference_evolve(fitness, bits, configs)
    assert len(got) == len(want) == len(configs)
    for g, w in zip(got, want):
        assert np.array_equal(g.best_chromosome, w.best_chromosome)
        assert g.best_fitness == w.best_fitness
        assert g.history == w.history
        assert g.champion_ties == w.champion_ties
        assert g.champion_generation == w.champion_generation


def test_debug_log_one_record_per_generation(caplog):
    configs = [GaConfig(population_size=8, generations=6, seed=s) for s in (0, 1)]
    with caplog.at_level(logging.INFO, logger="edm_rulex.evolver"):
        evolve(popcount, 5, configs)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="edm_rulex.evolver"):
        results = evolve(popcount, 5, configs)
    messages = [r.getMessage() for r in caplog.records]
    assert [m.split(" best ")[0] for m in messages] == [f"generation {g}" for g in range(1, 7)]
    # each record holds that generation's running best of every run
    assert [r.args[1].tolist() for r in caplog.records] == [list(h) for h in zip(*(r.history for r in results))]


def test_lockstep_non_finite_fitness_names_run_and_chromosome():
    seen = []

    def bad_in_run_1(pop):
        seen.append(pop.copy())
        fits = pop.sum(axis=-1).astype(float)
        fits[1][pop[1, :, 0] == 1] = np.inf
        return fits

    configs = [GaConfig(population_size=8, generations=5, seed=s) for s in (0, 1, 2)]
    with pytest.raises(NumericError) as err:
        evolve(bad_in_run_1, 4, configs)
    first = seen[-1][1][seen[-1][1][:, 0] == 1][0]
    assert f"chromosome {first.tolist()} of run 1" in str(err.value)
    assert "inf" in str(err.value)


def test_lockstep_one_fitness_call_per_generation():
    calls = []

    def counted(pop):
        calls.append(pop.shape)
        return pop.sum(axis=-1).astype(float)

    configs = [GaConfig(population_size=9, generations=7, seed=s) for s in range(3)]
    evolve(counted, 5, configs)
    assert calls == [(3, 9, 5)] * 8


@pytest.mark.parametrize(
    "configs, message",
    [
        ([], "at least one config"),
        ([GaConfig(seed=1), GaConfig(seed=2, generations=3)], "only in their seeds"),
    ],
)
def test_lockstep_rejects_configs(configs, message):
    with pytest.raises(ValidationError, match=message):
        evolve(lambda pop: pop.sum(axis=-1).astype(float), 4, configs)


def test_lockstep_fitness_wrong_shape_rejected():
    configs = [GaConfig(population_size=6, generations=2, seed=s) for s in range(2)]
    with pytest.raises(ValidationError, match=r"shape \(2, 6\)"):
        evolve(lambda pop: pop[0].sum(axis=-1).astype(float), 4, configs)
