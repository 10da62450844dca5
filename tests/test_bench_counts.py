"""The benchmark's traced count checks hold on a tiny real run.

``smoothbench/traced.py`` records spans by replacing the package's public
functions on their modules. Its count checks expect one ``surrogate.fitness``
span per scoring and ``pso_iterations`` swarm-size ``interpret_batch`` calls
inside each ``fstpso.optimize`` span. A hot path that calls ``fitness``,
``optimize``, ``init_swarm`` or the swarm's ``interpret_batch`` other than
through its module attribute hides those calls from the trace and fails
here.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import smoothgp

BENCH_DIR = Path(__file__).resolve().parent.parent / "smoothbench"
POPULATION, GENERATIONS, PSO_ITERATIONS = 4, 1, 3
SCORINGS = POPULATION + GENERATIONS * 2 * (POPULATION // 2)


def test_traced_run_passes_the_count_checks(tmp_path, monkeypatch):
    spans = tmp_path / "spans"
    spans.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "traced.py"), str(spans / "run"), "run",
         "--function", "rastrigin", "--dim", "2", "--runs", "1",
         "--generations", str(GENERATIONS), "--pop", str(POPULATION),
         "--pso-iters", str(PSO_ITERATIONS), "--workers", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env=env)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    layers = importlib.import_module("layers")
    expected = layers.Expected(
        scorings=SCORINGS, pso_iterations=PSO_ITERATIONS,
        swarm_sizes=frozenset({12}), rmse_sizes=frozenset({200}), grid_size=0)
    loaded = layers.load(spans)
    metrics, errors = layers.summarize(*loaded, expected)
    assert errors == []
    assert metrics["surrogate.fitness_calls"] == SCORINGS
    # the count checks leave init_swarm out: one per optimize, inside it
    inits = [s for s in loaded[0] if s.name == "fstpso.init_swarm"]
    assert len(inits) == SCORINGS
    assert all(s.parent.name == "fstpso.optimize" for s in inits)
