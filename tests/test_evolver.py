from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edm_rulex.errors import NumericError, ValidationError
from edm_rulex.evolver import EvolutionResult, GaConfig, evolve
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
