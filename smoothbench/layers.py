"""Per-layer metrics from the span files of one traced round.

A layer's self time is its span's duration minus the durations of its
direct child spans. Alongside the metrics, ``summarize`` checks two totals
that are reached apart from the config arithmetic the caller passes in:
the counted ``surrogate.fitness`` spans must equal the expected scorings,
and the ``interpret_batch`` calls at swarm size must equal scorings x
``pso_iterations``, with no ``optimize`` call evaluating more points than
its budget.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

SLOTS = 5  # a span record is (name index, start, end, parent index, attribute)

# metric name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "cli.import_s": "s",
    "harness.campaign_self_s": "s",
    "harness.pool_idle_s": "s",
    "harness.export_s": "s",
    "surrogate.evolve_s": "s",
    "surrogate.fitness_ms": "ms",
    "surrogate.fitness_calls": "count",
    "surrogate.useful_scoring_ratio": "ratio",
    "surrogate.select_us": "us",
    "surrogate.stream_us": "us",
    "fstpso.step_self_us": "us",
    "fstpso.init_self_us": "us",
    "fstpso.self_s": "s",
    "stackgp.interpret_swarm_us": "us",
    "stackgp.interpret_rmse_us": "us",
    "stackgp.interpret_grid_ms": "ms",
    "stackgp.interpret_self_s": "s",
    "stackgp.variation_us": "us",
    "benchmarks.evaluate_us": "us",
    "benchmarks.sample_ms": "ms",
    "benchmarks.grid_eval_ms": "ms",
}


@dataclass(frozen=True)
class Expected:
    """What the workload's config says one round must do."""

    scorings: int
    pso_iterations: int
    swarm_sizes: frozenset
    rmse_sizes: frozenset
    grid_size: int


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: object  # index within its file until load() links the Span
    attr: object
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def load(prefix_dir: Path):
    """Spans of every file in ``prefix_dir``, each with its file's parents
    resolved, plus the import times the command processes recorded."""
    spans, imports = [], []
    for path in sorted(Path(prefix_dir).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        names, flat = data["names"], data["records"]
        local = [Span(names[flat[i]], flat[i + 1], flat[i + 2], flat[i + 3],
                      flat[i + 4]) for i in range(0, len(flat), SLOTS)]
        for span in local:
            if span.parent >= 0:
                local[span.parent].child_time += span.duration
        # parents become objects so spans of several files can be pooled
        for span in local:
            span.parent = local[span.parent] if span.parent >= 0 else None
        spans.extend(local)
        if data["import_s"] is not None:
            imports.append(data["import_s"])
    return spans, imports


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _mean(values, scale=1.0) -> float:
    return scale * sum(values) / len(values) if values else 0.0


def summarize(spans, imports, expected: Expected):
    """``(metrics, errors)`` for one traced round."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    evolves = by_name["surrogate.evolve"]
    interprets = by_name["stackgp.interpret_batch"]
    fitness = by_name["surrogate.fitness"]

    campaign_self = 0.0
    for span in by_name["harness.run_campaign"]:
        inside = [(e.start, e.end) for e in evolves
                  if span.start <= e.start and e.end <= span.end]
        campaign_self += span.duration - _union_length(inside)
    pool_idle = 0.0
    for span in by_name["harness.execute"]:
        tasks, workers = span.attr
        used = workers if workers > 1 and tasks > 1 else 1
        busy = sum(e.duration for e in evolves
                   if span.start <= e.start and e.end <= span.end)
        pool_idle += used * span.duration - busy

    genomes = defaultdict(set)
    for span in fitness:
        genomes[id(span.parent)].add(span.attr)
    distinct = sum(len(keys) for keys in genomes.values())

    fstpso_names = ("fstpso.optimize", "fstpso.init_swarm", "fstpso.step")
    crossovers = by_name["stackgp.two_point_crossover"]
    variation = sum(s.duration for s in crossovers + by_name["stackgp.mutate"])
    grid_evals = [s.duration for s in by_name["benchmarks.evaluate_batch"]
                  if s.attr == expected.grid_size]

    metrics = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "harness.campaign_self_s": campaign_self,
        "harness.pool_idle_s": pool_idle,
        "harness.export_s": sum(s.duration for s in by_name["harness.export_surface_grid"]),
        "surrogate.evolve_s": statistics.median(e.duration for e in evolves) if evolves else 0.0,
        "surrogate.fitness_ms": _mean([s.duration for s in fitness], 1e3),
        "surrogate.fitness_calls": len(fitness),
        "surrogate.useful_scoring_ratio": distinct / len(fitness) if fitness else 0.0,
        "surrogate.select_us": _mean([s.duration for s in by_name["surrogate.tournament_select"]], 1e6),
        "surrogate.stream_us": _mean([s.duration for s in by_name["surrogate.program_stream"]], 1e6),
        "fstpso.step_self_us": _mean([s.self_time for s in by_name["fstpso.step"]], 1e6),
        "fstpso.init_self_us": _mean([s.self_time for s in by_name["fstpso.init_swarm"]], 1e6),
        "fstpso.self_s": sum(s.self_time for n in fstpso_names for s in by_name[n]),
        "stackgp.interpret_swarm_us": _mean([s.duration for s in interprets
                                             if s.attr in expected.swarm_sizes], 1e6),
        "stackgp.interpret_rmse_us": _mean([s.duration for s in interprets
                                            if s.attr in expected.rmse_sizes], 1e6),
        "stackgp.interpret_grid_ms": _mean([s.duration for s in interprets
                                            if s.attr == expected.grid_size], 1e3),
        "stackgp.interpret_self_s": sum(s.self_time for s in interprets),
        "stackgp.variation_us": variation / len(crossovers) * 1e6 if crossovers else 0.0,
        "benchmarks.evaluate_us": _mean([s.duration for s in by_name["benchmarks.evaluate"]], 1e6),
        "benchmarks.sample_ms": _mean([s.duration for s in by_name["benchmarks.sample_uniform"]], 1e3),
        "benchmarks.grid_eval_ms": _mean(grid_evals, 1e3),
    }
    return metrics, _count_errors(by_name, expected)


def _count_errors(by_name, expected: Expected) -> list[str]:
    errors = []
    fitness_calls = len(by_name["surrogate.fitness"])
    if fitness_calls != expected.scorings:
        errors.append(f"{fitness_calls} fitness spans, config gives {expected.scorings}")
    swarm_calls = 0
    evaluated = defaultdict(int)
    for span in by_name["stackgp.interpret_batch"]:
        if span.attr not in expected.swarm_sizes:
            continue
        swarm_calls += 1
        owner = span.parent
        while owner is not None and owner.name != "fstpso.optimize":
            owner = owner.parent
        if owner is None:
            errors.append("swarm-size interpret_batch call outside optimize")
            break
        evaluated[id(owner)] += span.attr
    want = expected.scorings * expected.pso_iterations
    if swarm_calls != want:
        errors.append(f"{swarm_calls} swarm-size interpret_batch calls, "
                      f"config gives {want}")
    over = [s.attr for s in by_name["fstpso.optimize"] if evaluated[id(s)] > s.attr]
    if over:
        errors.append(f"{len(over)} optimize calls evaluated more points than budget")
    return errors
