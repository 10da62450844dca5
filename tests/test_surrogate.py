"""Loss function, selection and evolution-loop tests."""

import numpy as np
import pytest

from smoothgp import benchmarks, stackgp, surrogate
from smoothgp.surrogate import (EvolutionConfig, RunRecord, ScoredIndividual,
                                default_const_range, evolve, fitness,
                                program_stream, tournament_select)

ROSENBROCK_2D = "x0 x0 * x1 - DUP * 10.0 * x0 1.0 - DUP * +"


@pytest.fixture(scope="module")
def rastrigin_sample():
    fn = benchmarks.get("rastrigin", 2)
    return fn, fn.sample_uniform(200, np.random.default_rng(5))


@pytest.fixture(scope="module")
def rosenbrock_sample():
    fn = benchmarks.get("rosenbrock", 2)
    return fn, fn.sample_uniform(200, np.random.default_rng(5))


class TestFitness:
    def test_exact_symbolic_copy_scores_near_zero(self, rosenbrock_sample):
        # a perfect surrogate reproduces the target bit-for-bit, so the
        # shape term vanishes and the located argmin hits the true optimum
        fn, sampled = rosenbrock_sample
        program = stackgp.parse(ROSENBROCK_2D, 2)
        scored = fitness(program, fn, sampled, 100, np.random.default_rng(0))
        assert scored.rmse <= 1e-9
        assert scored.f_at_argmin <= 1e-2
        assert scored.fitness <= 1e-2

    def test_constant_surrogate_decomposition(self, rastrigin_sample):
        fn, sampled = rastrigin_sample
        program = stackgp.parse("0.0", 2)
        scored = fitness(program, fn, sampled, 50, np.random.default_rng(1))
        expected_rmse = float(np.sqrt(np.mean(sampled[1] ** 2)))
        assert scored.rmse == expected_rmse
        assert scored.rmse > 0.0
        assert scored.f_at_argmin > 0.0
        assert scored.f_at_argmin == fn.evaluate(scored.argmin)

    def test_deterministic_given_stream(self, rastrigin_sample):
        fn, sampled = rastrigin_sample
        program = stackgp.parse("x0 x0 * x1 x1 * +", 2)
        a = fitness(program, fn, sampled, 50, np.random.default_rng(3))
        b = fitness(program, fn, sampled, 50, np.random.default_rng(3))
        assert a == b

    def test_loss_decomposition_recomputable(self, rastrigin_sample):
        fn, sampled = rastrigin_sample
        rng = np.random.default_rng(17)
        for _ in range(10):
            program = stackgp.random_program(2, 20, (-5.0, 5.0), rng)
            scored = fitness(program, fn, sampled, 20, rng)
            assert scored.fitness == scored.f_at_argmin + scored.rmse
            assert scored.f_at_argmin == fn.evaluate(scored.argmin)
            assert all(fn.lower <= v <= fn.upper for v in scored.argmin)

    def test_equal_rmse_ranked_by_argmin_value(self, rastrigin_sample):
        # identical program under two swarm streams: identical shape term,
        # so the loss must order by the target value at the located argmin
        fn, sampled = rastrigin_sample
        program = stackgp.parse("7.0", 2)
        a = fitness(program, fn, sampled, 50, np.random.default_rng(2))
        b = fitness(program, fn, sampled, 50, np.random.default_rng(9))
        assert a.rmse == b.rmse
        assert a.f_at_argmin != b.f_at_argmin
        better, worse = sorted((a, b), key=lambda s: s.f_at_argmin)
        assert better.fitness < worse.fitness

    def test_dimension_mismatch_rejected(self, rastrigin_sample):
        fn, sampled = rastrigin_sample
        with pytest.raises(ValueError):
            fitness(stackgp.parse("x0", 1), fn, sampled, 10,
                    np.random.default_rng(0))

    def test_invalid_bounds_raise_on_every_call(self, rastrigin_sample):
        # the box of a valid benchmark is derived once; an error never is
        fn, sampled = rastrigin_sample
        unbounded = benchmarks.BenchmarkFunction(
            name="unbounded", dimension=2, lower=-np.inf, upper=0.0,
            evaluator=fn.evaluator)
        for _ in range(2):
            with pytest.raises(ValueError, match="edge lengths must be finite"):
                fitness(stackgp.parse("x0", 2), unbounded, sampled, 10, 0)

    def test_empty_sample_rejected(self, rastrigin_sample):
        fn, _ = rastrigin_sample
        empty = (np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            fitness(stackgp.parse("x0", 2), fn, empty, 10,
                    np.random.default_rng(0))


class TestProgramStream:
    def test_pure_function_of_seed_and_genome(self):
        p = stackgp.parse("x0 1.0 +", 2)
        a = program_stream(7, p).random(4)
        b = program_stream(7, stackgp.parse("x0 1.0 +", 2)).random(4)
        assert np.array_equal(a, b)

    def test_varies_with_seed_and_genome(self):
        p = stackgp.parse("x0 1.0 +", 2)
        q = stackgp.parse("x0 2.0 +", 2)
        assert not np.array_equal(program_stream(7, p).random(4),
                                  program_stream(8, p).random(4))
        assert not np.array_equal(program_stream(7, p).random(4),
                                  program_stream(7, q).random(4))


def _scored(program_text, fitness_value):
    return ScoredIndividual(
        program=stackgp.parse(program_text, 2), argmin=(0.0, 0.0),
        fitness=fitness_value, f_at_argmin=fitness_value, rmse=0.0)


class TestTournament:
    def test_whole_population_tournament_returns_global_best_two(self):
        population = [_scored("1.0", v) for v in (4.0, 1.0, 3.0, 2.0)]
        a, b = tournament_select(population, 4, np.random.default_rng(0))
        assert a.fitness == 1.0
        assert b.fitness == 2.0

    def test_ties_break_toward_lower_index(self):
        population = [_scored("1.0", 5.0) for _ in range(4)]
        a, b = tournament_select(population, 4, np.random.default_rng(1))
        assert a is population[0]
        assert b is population[1]

    def test_dominant_parent_frequency_matches_inclusion_probability(self):
        # the strictly best of n individuals is parent_a whenever the k-draw
        # includes it, which happens with probability k / n
        rng = np.random.default_rng(42)
        n, k, trials = 20, 4, 10_000
        population = [_scored("1.0", 100.0 + i) for i in range(n)]
        population[7] = _scored("1.0", 0.0)
        hits = sum(
            tournament_select(population, k, rng)[0] is population[7]
            for _ in range(trials))
        expected = trials * k / n
        sigma = np.sqrt(trials * (k / n) * (1 - k / n))
        assert abs(hits - expected) <= 3.0 * sigma

    def test_oversized_tournament_rejected(self):
        population = [_scored("1.0", 1.0)] * 3
        with pytest.raises(ValueError):
            tournament_select(population, 4, np.random.default_rng(0))

    def test_degenerate_tournament_rejected(self):
        population = [_scored("1.0", 1.0)] * 3
        with pytest.raises(ValueError):
            tournament_select(population, 1, np.random.default_rng(0))


class TestRunRecord:
    def test_increasing_trace_rejected(self):
        best = _scored("1.0", 1.0)
        with pytest.raises(ValueError):
            RunRecord(best=best, best_fitness_per_generation=(2.0, 1.0, 3.0),
                      total_benchmark_evaluations=10)

    def test_flat_trace_accepted(self):
        best = _scored("1.0", 1.0)
        record = RunRecord(best=best, best_fitness_per_generation=(2.0, 2.0),
                           total_benchmark_evaluations=10)
        assert record.best_fitness_per_generation == (2.0, 2.0)


class TestEvolutionConfig:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=0)
        with pytest.raises(ValueError):
            EvolutionConfig(tournament_size=1)
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=4, tournament_size=5)
        with pytest.raises(ValueError):
            EvolutionConfig(rmse_samples=0)

    def test_numpy_integer_counts_accepted(self):
        config = EvolutionConfig(population_size=np.int64(6), generations=np.int32(2),
                                 tournament_size=np.uint8(2), rmse_samples=np.int64(20),
                                 pso_iterations=np.int16(10))
        assert config == EvolutionConfig(population_size=6, generations=2,
                                         tournament_size=2, rmse_samples=20,
                                         pso_iterations=10)
        assert {type(v) for v in vars(config).values()} == {int}

    def test_const_range_scales(self):
        fn = benchmarks.get("griewank", 2)
        ranges = default_const_range(fn, np.array([1.0, 181.0]))
        assert ranges[0] == (-600.0, 600.0)
        assert ranges[1] == (1.0, 181.0)
        # decade ladder from the combined scale down to tiny coefficients
        assert ranges[2] == (-600.0, 600.0)
        assert ranges[3] == (-60.0, 60.0)
        assert ranges[-1][1] == pytest.approx(600.0 / 10.0 ** 6)


class TestEvolve:
    def _tiny_config(self, **overrides):
        settings = dict(population_size=6, generations=2, tournament_size=2,
                        rmse_samples=30, pso_iterations=10, seed=3)
        settings.update(overrides)
        return EvolutionConfig(**settings)

    def test_degenerate_run_trace_and_best(self):
        fn = benchmarks.get("rastrigin", 2)
        config = self._tiny_config(population_size=2, generations=1)
        record = evolve(fn, config)
        assert len(record.best_fitness_per_generation) == 1
        assert record.best.fitness == record.best_fitness_per_generation[0]

    def test_trace_non_increasing(self):
        fn = benchmarks.get("alpine", 2)
        record = evolve(fn, self._tiny_config(generations=6))
        trace = record.best_fitness_per_generation
        assert len(trace) == 6
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_end_to_end_determinism(self):
        fn = benchmarks.get("griewank", 2)
        a = evolve(fn, self._tiny_config())
        b = evolve(fn, self._tiny_config())
        assert a == b
        assert a.best.program == b.best.program

    def test_benchmark_evaluation_accounting(self):
        fn = benchmarks.get("rastrigin", 2)
        config = self._tiny_config(generations=3)
        record = evolve(fn, config)
        scored = config.population_size + 3 * 2 * (config.population_size // 2)
        assert record.total_benchmark_evaluations == config.rmse_samples + scored

    def test_argmin_inside_bounds(self):
        fn = benchmarks.get("schwefel", 2)
        record = evolve(fn, self._tiny_config())
        assert all(fn.lower <= v <= fn.upper for v in record.best.argmin)

    def test_rastrigin_desk_smoke(self):
        # run-once seeded oracle at reduced scale: the evolved surrogate's
        # argmin must land in the target's global basin
        fn = benchmarks.get("rastrigin", 2)
        record = evolve(fn, EvolutionConfig(population_size=30,
                                            generations=15, seed=1))
        best = record.best
        assert best.f_at_argmin <= 1e-1
        assert float(np.hypot(*best.argmin)) <= 0.15
