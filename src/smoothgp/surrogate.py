"""Evolution of smooth surrogate programs for rugged objectives.

The loss of a candidate surrogate combines where its minimum sits with how
well it tracks the target's shape:

    loss = target(argmin of surrogate, located by the swarm optimizer)
         + RMSE(target, surrogate) over a fixed uniformly sampled point set

The point set is drawn once per run and reused for every individual, so
two candidates are always compared on identical evidence. The loop is a
steady-state GP: each generation draws population_size/2 parent pairs by
tournament, and every offspring, right after scoring, replaces the current
worst member of the population. The best individual can never be displaced
(elitism), so best fitness per generation never increases.

The swarm stream used to score an individual is derived from the run seed
and the program text, making the loss a pure function of the genome within
a run: re-encountering a program always reproduces its score, and scoring
order never matters. Fitness ties resolve by population index: the lower
index ranks first in a tournament and as the best, and of members tied for
worst the higher index is replaced.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import fstpso, stackgp
from .benchmarks import BenchmarkFunction
from .stackgp import Program

# The seed hash comes from CPython's builtin _blake2: hashlib would map
# OpenSSL's libcrypto into every process that imports smoothgp. numpy.random
# maps it too, unless cli.entrypoint has hidden _hashlib.
try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

RMSE_SAMPLES_PER_DIMENSION = 100
# the reference setup's per-instruction mutation rate and first-generation length
MUTATION_RATE = 0.2
INITIAL_LENGTH = 10


def as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int of at least ``minimum``; else ValueError naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return count


@dataclass(frozen=True)
class EvolutionConfig:
    """Run settings; defaults follow the reference experimental setup."""

    population_size: int = 50
    generations: int = 100
    tournament_size: int = 4
    rmse_samples: int | None = None  # defaults to 100 * dimension
    pso_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("population_size", 1), ("generations", 1),
                              ("tournament_size", 2), ("rmse_samples", 1),
                              ("pso_iterations", 1)):
            if getattr(self, name) is not None:  # rmse_samples may be unset
                object.__setattr__(self, name,
                                   as_count(getattr(self, name), name, minimum))
        object.__setattr__(self, "seed", as_count(self.seed, "seed", 0))
        if self.tournament_size > self.population_size:
            raise ValueError("tournament_size must not exceed population_size")


@dataclass(frozen=True)
class ScoredIndividual:
    """A program with its located argmin and loss decomposition."""

    program: Program
    argmin: tuple[float, ...]
    fitness: float
    f_at_argmin: float
    rmse: float


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one evolve() call; the trace is checked on construction."""

    best: ScoredIndividual
    best_fitness_per_generation: tuple[float, ...]
    total_benchmark_evaluations: int

    def __post_init__(self):
        trace = tuple(float(v) for v in self.best_fitness_per_generation)
        object.__setattr__(self, "best_fitness_per_generation", trace)
        for earlier, later in zip(trace, trace[1:]):
            if later > earlier:
                raise ValueError("best-fitness trace must be non-increasing")


def fitness(program: Program, fn: BenchmarkFunction,
            sampled: tuple[np.ndarray, np.ndarray],
            pso_iterations: int, rng) -> ScoredIndividual:
    """Score one surrogate candidate against the target function.

    Runs the swarm optimizer on the interpreted program over the target's
    bounds, evaluates the target at the located argmin, and adds the RMSE
    between target and program over the fixed sample set.
    """
    if program.dimension != fn.dimension:
        raise ValueError("program dimension differs from benchmark dimension")
    points, values = sampled
    if len(points) == 0:
        raise ValueError("sampled point set must be nonempty")
    budget = pso_iterations * fstpso.swarm_size(fn.dimension)
    argmin, _ = fstpso.optimize(
        lambda pts: stackgp.interpret_batch(program, pts),
        fn.bounds, budget, rng)
    f_at = fn.evaluate(argmin)
    with np.errstate(over="ignore"):
        residual = values - stackgp.interpret_batch(program, points)
        # the root of the mean exactly as np.sqrt(np.mean(...)) computes it
        rmse = math.sqrt(np.add.reduce(residual * residual) / len(residual))
    return ScoredIndividual(
        program=program,
        argmin=tuple(argmin.tolist()),
        fitness=f_at + rmse,
        f_at_argmin=f_at,
        rmse=rmse,
    )


def tournament_select(population: list[ScoredIndividual], k: int,
                      rng) -> tuple[ScoredIndividual, ScoredIndividual]:
    """Best two of k individuals sampled without replacement.

    Ties break toward the earlier population index, so selection is fully
    deterministic given the drawn indices.
    """
    if k > len(population):
        raise ValueError("tournament size exceeds population size")
    if k < 2:
        raise ValueError("tournament size must be >= 2")
    rng = np.random.default_rng(rng)
    drawn = rng.choice(len(population), size=k, replace=False)
    ranked = sorted(map(int, drawn), key=lambda i: (population[i].fitness, i))
    return population[ranked[0]], population[ranked[1]]


GP_CONST_DECADES = 7


def default_const_range(fn: BenchmarkFunction, sample_values):
    """Constant intervals for a benchmark, one picked uniformly per constant.

    Intervals derive from the domain and codomain boundaries of the target:
    the search box itself (coordinate-scale constants like centers), the
    codomain as observed on the run's own sample (value-scale constants
    like vertical offsets), and a ladder of nested symmetric intervals
    shrinking decade by decade from the combined scale. The ladder gives
    roughly log-uniform coverage of magnitudes, so coefficients exist at
    whatever scale a term needs, from vertical offsets down to the tiny
    quadratic coefficients of wide-domain, small-value targets.
    """
    low = float(np.min(sample_values))
    high = float(np.max(sample_values))
    scale = max(abs(fn.lower), abs(fn.upper), abs(low), abs(high), 1e-12)
    ranges = [(fn.lower, fn.upper), (low, high)]
    step = scale
    for _ in range(GP_CONST_DECADES):
        ranges.append((-step, step))
        step /= 10.0
    return tuple(ranges)


def _best_index(population: list[ScoredIndividual]) -> int:
    return min(range(len(population)), key=lambda i: (population[i].fitness, i))


def _worst_index(population: list[ScoredIndividual]) -> int:
    return max(range(len(population)), key=lambda i: (population[i].fitness, i))


def program_stream(run_seed: int, program: Program) -> np.random.Generator:
    """Swarm stream for scoring: a pure function of run seed and genome.

    Content-addressed streams make identical programs score identically
    within a run, so selection acts on heritable structure rather than on
    per-evaluation luck, and scoring order cannot perturb a run.
    """
    digest = blake2b(
        f"{run_seed}|{program.dimension}|{stackgp.render(program)}".encode(),
        digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def evolve(fn: BenchmarkFunction, config: EvolutionConfig) -> RunRecord:
    """Run the full surrogate evolution loop against one benchmark."""
    n_samples = config.rmse_samples or RMSE_SAMPLES_PER_DIMENSION * fn.dimension
    master = np.random.SeedSequence(config.seed)
    sample_seq, gp_seq = master.spawn(2)
    gp_rng = np.random.default_rng(gp_seq)
    sampled = fn.sample_uniform(n_samples, np.random.default_rng(sample_seq))
    const_range = default_const_range(fn, sampled[1])
    benchmark_evaluations = n_samples

    def score(program: Program) -> ScoredIndividual:
        nonlocal benchmark_evaluations
        benchmark_evaluations += 1
        return fitness(program, fn, sampled, config.pso_iterations,
                       program_stream(config.seed, program))

    population = [
        score(stackgp.random_program(
            fn.dimension, INITIAL_LENGTH, const_range, gp_rng,
            min_length=INITIAL_LENGTH))
        for _ in range(config.population_size)
    ]

    trace = []
    for _ in range(config.generations):
        for _ in range(config.population_size // 2):
            parent_a, parent_b = tournament_select(
                population, config.tournament_size, gp_rng)
            child_a, child_b = stackgp.two_point_crossover(
                parent_a.program, parent_b.program, gp_rng)
            for child in (child_a, child_b):
                child = stackgp.mutate(child, MUTATION_RATE, const_range, gp_rng)
                population[_worst_index(population)] = score(child)
        trace.append(population[_best_index(population)].fitness)

    best = population[_best_index(population)]
    return RunRecord(
        best=best,
        best_fitness_per_generation=tuple(trace),
        total_benchmark_evaluations=benchmark_evaluations,
    )
