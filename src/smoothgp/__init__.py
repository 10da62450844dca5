"""Smooth surrogate evolution for rugged optimization landscapes.

Stack-based linear genetic programming evolves cheap smooth stand-ins for
rugged benchmark functions; each candidate is scored by running a
self-tuning particle swarm optimizer on it and evaluating the original
function at the located argminimum, plus a shape-fidelity RMSE term.
"""

from .benchmarks import BenchmarkFunction, catalog, get, names
from .fstpso import fuzzy_settings, optimize, swarm_size
from .harness import Campaign, dump_catalog, export_surface_grid, run_campaign
from .stackgp import (Program, interpret_batch, mutate, parse, random_program,
                      render, two_point_crossover)
from .surrogate import (EvolutionConfig, RunRecord, ScoredIndividual, evolve,
                        fitness, tournament_select)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkFunction", "Campaign", "EvolutionConfig", "Program",
    "RunRecord", "ScoredIndividual", "catalog", "dump_catalog", "evolve",
    "export_surface_grid", "fitness", "fuzzy_settings", "get",
    "interpret_batch", "mutate", "names", "optimize", "parse",
    "random_program", "render", "run_campaign", "swarm_size",
    "tournament_select", "two_point_crossover",
]
