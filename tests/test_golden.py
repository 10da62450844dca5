"""Behaviour pin: exact outputs of small runs, swarm states and a grid export.

The values were recorded from the code and must stay bit for bit the same
under refactors and optimizations. A change that alters them on purpose
re-records them and says why.
"""

import hashlib

import numpy as np
import pytest

from smoothgp import benchmarks, fstpso, stackgp
from smoothgp.harness import export_surface_grid
from smoothgp.surrogate import EvolutionConfig, evolve

# (function, dimension, seed) -> (best program, fitness, argmin, trace);
# floats are given as float.hex(). Griewank at D=3 runs a 13-particle swarm.
GOLDEN_RUNS = {
    ("rastrigin", 2, 0): (
        "/ - SWAP - + - x1 DUP SWAP * / 48.05532145308161 x0",
        "0x1.9d70c56f26632p+5",
        ("-0x1.47ae147ae147bp+2", "0x1.a4bceafcea400p-12"),
        ("0x1.00c6872667f3ap+6", "0x1.9d70c56f26632p+5",
         "0x1.9d70c56f26632p+5"),
    ),
    ("schwefel", 2, 1): (
        "SWAP * x0 x0 x0 - / -0.06424766999300875 212.74940350011892",
        "0x1.19a4d90371734p+10",
        ("0x1.b44473e3a09eep+8", "-0x1.ddb5fa6f1dfa0p+4"),
        ("0x1.28be45cc2f9fbp+10", "0x1.19a4d90371734p+10",
         "0x1.19a4d90371734p+10"),
    ),
    ("rosenbrock", 2, 2): (
        "* / 0.013695539475791219 x1 DUP - - 1024.8292519527458 DUP "
        "26.080361656196402 x1 0.07416828136213514 x1 1722.364773356945",
        "0x1.6d8b8a42c0434p+14",
        ("0x1.203c4e1688130p+0", "-0x1.4000000000000p+2"),
        ("0x1.79bba3b77f68ep+14", "0x1.79bba3b77f68ep+14",
         "0x1.6d8b8a42c0434p+14"),
    ),
    ("griewank", 3, 3): (
        "x1 / * DUP SWAP - * SWAP *",
        "0x1.af3915a17a760p+6",
        ("0x1.46eb9f620e380p+3", "-0x1.fe4c02da630a4p+6",
         "-0x1.5dbd173090b68p+6"),
        ("0x1.af3915a17a760p+6", "0x1.af3915a17a760p+6",
         "0x1.af3915a17a760p+6"),
    ),
}

# A shallow SWAP and an underflowing + (both skipped), a division guarded
# where x1 - x1 and x1 are 0, 1e300 DUP * overflowing to inf (replaced by 0)
# and a constant-only product.
GRID_PROGRAM = ("SWAP + x0 x1 x1 - / 1e300 DUP * x1 SWAP - x0 x1 / * "
                "0.5 x0 DUP * + 2.0 3.0 * +")
GRID_SHA256 = "a86cfd2fedcdaa1bd7d524971223c7c38889526c420c9a9f0f97ebb393291b26"


# name -> (program, bounds, seed, NaN where x0 > 0, SHA-256 of every
# SwarmState field's bytes after init_swarm and after each of 8 steps). A
# one-ULP change anywhere in the swarm state changes the digest.
SWARM_STATES = {
    "rastrigin-box": (
        "x0 x0 * x1 3.5 * - x1 DUP * +", ((-5.12, 5.12), (-5.12, 5.12)), 0,
        False, "099a7040e67f64487cc9e9f1ae0b0dde2db115cac5674f349a77fb288749fac3"),
    "nan-half": (
        "x0 x1 * x2 / 1.5 x0 - DUP * +",
        ((-600.0, 600.0), (-30.0, 10.0), (0.0, 3.14)), 1,
        True, "9248004b283ec6f894add79d9c1c1642a65e6010f37cfbd216eba6645666f5d9"),
    "schwefel-box": (
        "x0 SWAP 418.9829 x1 * - x0 DUP * 0.001 * +",
        ((-500.0, 500.0), (-500.0, 500.0)), 2,
        False, "7fe50922195cf99415e518b0329eb1c63240a1aff433c3ce2fb82d8ba0a4d5c3"),
}
STATE_FIELDS = ("positions", "velocities", "values", "prev_values",
                "best_positions", "best_values", "global_best_position",
                "global_best_value", "evaluations_used")


@pytest.mark.parametrize("case", sorted(SWARM_STATES))
def test_swarm_states_are_pinned(case):
    text, bounds, seed, nan, expected = SWARM_STATES[case]
    program = stackgp.parse(text, len(bounds))

    def objective(points):
        values = stackgp.interpret_batch(program, points)
        return np.where(points[:, 0] > 0.0, np.nan, values) if nan else values

    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    state = fstpso.init_swarm(objective, bounds, rng)
    for steps in range(9):
        if steps:
            fstpso.step(state, objective, bounds, rng)
        for field in STATE_FIELDS:
            digest.update(np.asarray(getattr(state, field)).tobytes())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS), ids=str)
def test_small_run_is_pinned(case):
    name, dimension, seed = case
    config = EvolutionConfig(population_size=10, generations=3,
                             pso_iterations=20, seed=seed)
    record = evolve(benchmarks.get(name, dimension), config)
    best = record.best
    observed = (
        stackgp.render(best.program),
        best.fitness.hex(),
        tuple(v.hex() for v in best.argmin),
        tuple(v.hex() for v in record.best_fitness_per_generation),
    )
    assert observed == GOLDEN_RUNS[case]


def test_grid_export_is_pinned(tmp_path):
    program = stackgp.parse(GRID_PROGRAM, 2)
    path = export_surface_grid(benchmarks.get("rastrigin", 2), program, 7,
                               tmp_path / "grid.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRID_SHA256
