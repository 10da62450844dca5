"""Acceptance criteria, one test per criterion, one printed line per check.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as
they complete. The desk-scale campaign (criteria 4-6) executes 10 seeded
runs x 30 generations for six benchmarks at D=2 and dominates the runtime.
"""

import math
import os

import numpy as np
import pytest

from smoothgp import benchmarks, fstpso, stackgp
from smoothgp.harness import Campaign, pair_csv_path, run_campaign
from smoothgp.surrogate import RunRecord, ScoredIndividual
from smoothgp.stackgp import MAX_PROGRAM_LENGTH

CAMPAIGN_FUNCTIONS = ("alpine", "rastrigin", "griewank", "rosenbrock",
                      "schwefel", "michalewicz")
CAMPAIGN_RUNS = 10
CAMPAIGN_GENERATIONS = 30
CAMPAIGN_SEED = 0

# the campaign fixture takes minutes; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def campaign_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_campaign")
    campaign = Campaign(
        functions=CAMPAIGN_FUNCTIONS,
        dimensions=(2,),
        runs=CAMPAIGN_RUNS,
        base_seed=CAMPAIGN_SEED,
        overrides={"generations": CAMPAIGN_GENERATIONS},
        output_dir=out,
        workers=min(4, os.cpu_count() or 1),
    )
    return run_campaign(campaign)


def test_criterion_1_benchmark_oracle_suite():
    checked = 0
    for fn in benchmarks.catalog():
        if not fn.verified:
            continue
        residual = abs(fn.evaluate(fn.known_argmin) - fn.known_minimum)
        assert residual <= 1e-3, (fn.name, fn.dimension, residual)
        checked += 1
    report(1, checked >= 19,
           f"{checked} verified optima reproduced within 1e-3")


def test_criterion_2_interpreter_and_operator_properties():
    rng = np.random.default_rng(2)
    const_range = ((-600.0, 600.0), (-10.0, 10.0))
    non_finite = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 5))
        program = stackgp.random_program(dim, MAX_PROGRAM_LENGTH, const_range, rng)
        points = rng.uniform(-600.0, 600.0, size=(10, dim))
        values = stackgp.interpret_batch(program, points)
        if not np.all(np.isfinite(values)):
            non_finite += 1
    closure_failures = 0
    for _ in range(5_000):
        a = stackgp.random_program(3, 60, const_range, rng)
        b = stackgp.random_program(3, 60, const_range, rng)
        for child in stackgp.two_point_crossover(a, b, rng):
            if not (1 <= len(child) <= MAX_PROGRAM_LENGTH
                    and all(ins.arg < 3 for ins in child.code
                            if ins.op == stackgp.Op.VAR)):
                closure_failures += 1
        mutated = stackgp.mutate(a, 0.2, const_range, rng)
        if len(mutated) != len(a):
            closure_failures += 1
    report(2, non_finite == 0 and closure_failures == 0,
           f"10000 fuzzed programs finite at 10 points each, "
           f"15000 operator applications closed (non-finite={non_finite}, "
           f"closure failures={closure_failures})")


def test_criterion_3_pso_oracle_suite():
    bounds = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    size = fstpso.swarm_size(2)
    hits = 0
    for seed in range(100):
        calls = {"n": 0}

        def sphere(points):
            calls["n"] += len(points)
            return np.sum(points * points, axis=1)

        rng = np.random.default_rng(seed)
        state = fstpso.init_swarm(sphere, bounds, rng)
        best = state.global_best_value
        while state.evaluations_used + size <= 4000:
            fstpso.step(state, sphere, bounds, rng)
            assert state.global_best_value <= best  # monotone on every run
            best = state.global_best_value
        assert calls["n"] <= 4000  # budget exactness on every run
        assert calls["n"] == state.evaluations_used
        if state.global_best_value <= 1e-4:
            hits += 1
    report(3, hits >= 95,
           f"{hits}/100 seeded sphere runs reached 1e-4 within budget 4000")


def test_criterion_4_desk_scale_medians(campaign_result):
    failures = []
    details = []
    for name in ("alpine", "rastrigin", "griewank", "rosenbrock"):
        median = campaign_result.pairs[(name, 2)].median_fitness
        details.append(f"{name} median f(argmin)={median:.3e}")
        if not median <= 1e-2:
            failures.append(name)
    report(4, not failures, "; ".join(details))


def test_criterion_5_argmin_localization(campaign_result):
    details = []
    ok = True
    for name in ("rastrigin", "alpine"):
        argmin_true = np.array(benchmarks.get(name, 2).known_argmin)
        rows = campaign_result.pairs[(name, 2)].rows
        near = sum(
            np.linalg.norm(np.array(row.argmin) - argmin_true) <= 0.15
            for row in rows)
        details.append(f"{name}: {near}/{len(rows)} runs within 0.15")
        ok = ok and near >= 7
    report(5, ok, "; ".join(details))


def test_criterion_6_hard_curvature_cases(campaign_result):
    schwefel = campaign_result.pairs[("schwefel", 2)].median_fitness
    michalewicz = campaign_result.pairs[("michalewicz", 2)].median_fitness
    ok = schwefel <= 1.0 and michalewicz <= -1.5
    report(6, ok, f"schwefel median={schwefel:.3e} (<=1.0), "
                  f"michalewicz median={michalewicz:.3f} (<=-1.5)")


def test_criterion_7_elitism_monotonicity(campaign_result):
    # RunRecord refuses to exist with an increasing trace, so every record
    # produced anywhere already satisfies the invariant; prove the guard
    # is active and spot-check real traces.
    best = ScoredIndividual(
        program=stackgp.parse("1.0", 2), argmin=(0.0, 0.0), fitness=1.0,
        f_at_argmin=1.0, pso_min_value=0.0, rmse=0.0)
    with pytest.raises(ValueError):
        RunRecord(best=best, best_fitness_per_generation=(1.0, 2.0),
                  total_benchmark_evaluations=1)
    from smoothgp.surrogate import EvolutionConfig, evolve
    traces = 0
    for seed in (1, 2):
        record = evolve(
            benchmarks.get("rastrigin", 2),
            EvolutionConfig(population_size=8, generations=4,
                            tournament_size=2, rmse_samples=30,
                            pso_iterations=10, seed=seed))
        trace = record.best_fitness_per_generation
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        traces += 1
    report(7, True,
           f"constructor guard active, {traces} sampled traces non-increasing")


def test_criterion_8_campaign_determinism(tmp_path):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        campaign = Campaign(
            functions=("rastrigin",), dimensions=(2,), runs=2, base_seed=5,
            overrides={"generations": 2, "population_size": 6,
                       "tournament_size": 2, "pso_iterations": 10,
                       "rmse_samples": 20},
            output_dir=out, workers=workers)
        run_campaign(campaign)
        outputs.append({
            name.name: name.read_bytes() for name in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1]
    report(8, ok, "CSV outputs byte-identical for workers=1 and workers=2")
