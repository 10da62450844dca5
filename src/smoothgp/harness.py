"""Campaign driver: seeded multi-run experiments, CSV outputs, grid export.

A campaign executes `runs` independent evolutions per (function, dimension)
pair with seeds ``base_seed + run_index`` and writes, per pair, a CSV of
per-run results plus a text artifact with the winning programs, and one
``summary.csv`` row per pair. Runs may execute concurrently; a worker pool
takes them longest first, by population times swarm size, so short runs
fill the pool's tail. Outputs are ordered by run index before writing, so
bytes never depend on scheduling, and after a failure the first failing
run in campaign order is re-raised.
Rerunning a partially completed campaign keeps the rows already on disk
byte for byte: each pair's kept and computed runs share one map, from
which both pair files and the summary are written. Every file is written
to a sibling temp file and moved onto its path with
``os.replace``, so a crash mid-write leaves the old file intact.

Median convention: for even run counts the lower-middle element is used.
All CSVs use '.' decimals, LF line endings and UTF-8.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import benchmarks, fstpso, stackgp
from .benchmarks import BenchmarkFunction
from .stackgp import Program
from .surrogate import EvolutionConfig, as_count, evolve

RESULT_COLUMNS = ("function", "dimension", "run", "seed",
                  "fitness_f_at_argmin", "fitness_full_L", "rmse")
SUMMARY_HEADER = ("function,dimension,runs,median_f_at_argmin,mean_f_at_argmin,"
                  "median_full_L,mean_full_L")
CATALOG_HEADER = "name,dimension,lo,hi,known_minimum,known_argmin,verified"

# Population defaults by dimension, from the reference setup.
DEFAULT_POPULATION = {2: 50, 3: 50, 4: 100}

_CONFIG_FIELDS = {f.name for f in dataclass_fields(EvolutionConfig)} - {"seed"}


def result_header(dimension: int) -> str:
    return ",".join(RESULT_COLUMNS + tuple(f"argmin_{d}" for d in range(dimension)))


def median_lower(values) -> float:
    """Median; lower-middle element for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


@dataclass(frozen=True)
class RunRow:
    """One campaign run as it appears in the per-pair CSV."""

    function: str
    dimension: int
    run: int
    seed: int
    f_at_argmin: float
    full_loss: float
    rmse: float
    argmin: tuple[float, ...]


@dataclass(frozen=True)
class PairResult:
    rows: tuple[RunRow, ...]
    median_fitness: float
    mean_fitness: float
    median_full_loss: float
    mean_full_loss: float


@dataclass(frozen=True)
class Campaign:
    """A reproducible batch of evolutions over (function, dimension) pairs."""

    functions: tuple[str, ...]
    dimensions: tuple[int, ...] = (2,)
    runs: int = 30
    base_seed: int = 0
    overrides: dict = field(default_factory=dict)
    output_dir: str | Path = "results"
    workers: int = 1

    def __post_init__(self):
        known = set(benchmarks.names())
        normalized = tuple(name.strip().lower() for name in self.functions)
        object.__setattr__(self, "functions", normalized)
        object.__setattr__(self, "dimensions", tuple(int(d) for d in self.dimensions))
        if not normalized:
            raise ValueError("campaign needs at least one function")
        for name in normalized:
            if name not in known:
                raise ValueError(f"unknown benchmark function {name!r}")
        for dim in self.dimensions:
            if dim not in benchmarks.CATALOG_DIMENSIONS:
                raise ValueError(f"dimension {dim} outside supported "
                                 f"{benchmarks.CATALOG_DIMENSIONS}")
        # a pair listed twice would be computed twice and summarized twice
        for kind, values in (("function", normalized), ("dimension", self.dimensions)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{kind} {value!r} is listed more than once")
        for name in ("runs", "workers"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        unknown = set(self.overrides) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")

    def pairs(self) -> list[tuple[str, int]]:
        return [(name, dim) for name in self.functions for dim in self.dimensions]


def config_for(dimension: int, seed: int, overrides: dict) -> EvolutionConfig:
    """EvolutionConfig with the per-dimension population default applied."""
    settings = {"population_size": DEFAULT_POPULATION[dimension]}
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return EvolutionConfig(seed=seed, **settings)


def _run_task(task) -> tuple[RunRow, str]:
    """Evolve one run; its row and its programs-file line."""
    name, dimension, run, config = task
    best = evolve(benchmarks.get(name, dimension), config).best
    row = RunRow(name, dimension, run, config.seed, best.f_at_argmin,
                 best.fitness, best.rmse, best.argmin)
    return row, f"{run}\t{config.seed}\t{stackgp.render(best.program)}"


def _expected_cost(task) -> int:
    """A run's relative cost, population times swarm size, for dispatch order."""
    _, dimension, _, config = task
    return config.population_size * fstpso.swarm_size(dimension)


def _execute(tasks, workers: int, done: dict) -> None:
    # fills `done` in place so completed runs survive a failing sibling
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            done[task[:3]] = _run_task(task)
        return
    # imported here: a one-worker run or a bare CLI import never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # the longest runs first, so that no worker idles while one finishes
        futures = {task[:3]: pool.submit(_run_task, task)
                   for task in sorted(tasks, key=_expected_cost, reverse=True)}
        keys = {future: key for key, future in futures.items()}
        for future in as_completed(keys):
            if future.exception() is None:
                done[keys[future]] = future.result()
    for task in tasks:
        futures[task[:3]].result()  # re-raises the first failure in task order


def _format(value: float) -> str:
    return repr(float(value))


def _row_line(row: RunRow) -> str:
    cells = [row.function, str(row.dimension), str(row.run), str(row.seed),
             _format(row.f_at_argmin), _format(row.full_loss), _format(row.rmse)]
    cells.extend(_format(v) for v in row.argmin)
    return ",".join(cells)


def _parse_row(line: str, dimension: int) -> RunRow | None:
    """The row of a per-pair CSV line; None when it is truncated or garbled."""
    parts = line.split(",")
    if len(parts) != len(RESULT_COLUMNS) + dimension:
        return None
    try:
        return RunRow(parts[0], int(parts[1]), int(parts[2]), int(parts[3]),
                      *map(float, parts[4:7]), tuple(map(float, parts[7:])))
    except ValueError:
        return None


def _program_seed(line: str, dimension: int) -> int | None:
    """The seed of a programs-file line; None unless its three tab-separated
    fields are a run, an integer seed and a program that parses at
    ``dimension``."""
    try:
        _, seed, text = line.split("\t", 2)
        stackgp.parse(text, dimension)
    except ValueError:
        return None
    return int(seed) if seed.removeprefix("-").isdecimal() else None


def pair_csv_path(output_dir, name: str, dimension: int) -> Path:
    return Path(output_dir) / f"{name}_d{dimension}.csv"


def pair_programs_path(output_dir, name: str, dimension: int) -> Path:
    return Path(output_dir) / f"{name}_d{dimension}_programs.txt"


def _read_keyed_lines(path: Path, key_field: int, sep: str, runs: int) -> dict[int, str]:
    """Lines after the header, keyed by the integer in field ``key_field``.

    A key outside ``range(runs)`` or on a second line raises ValueError,
    since rewriting the file would drop that line.
    """
    if not path.exists():
        return {}
    keyed = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        try:
            run = int(line.split(sep)[key_field])
        except (IndexError, ValueError):
            continue
        if not 0 <= run < runs:
            raise ValueError(f"{path}: run {run} is outside the campaign's {runs} "
                             f"runs; rewriting the file would drop it")
        if run in keyed:
            raise ValueError(f"{path}: run {run} is on more than one line")
        keyed[run] = line
    return keyed


def _kept_runs(campaign: Campaign, name: str, dim: int) -> dict:
    """The pair's runs on disk: ``{run: (row, csv line, program line)}``.

    A run is computed again when its row is truncated or garbled, or when
    its program line is missing, lacks an integer seed, or holds a program
    that does not parse at the pair's dimension. A row or program line
    whose seed is not ``base_seed + run``, or a row of another (function,
    dimension) pair, raises ValueError.
    """
    path = pair_csv_path(campaign.output_dir, name, dim)
    programs_path = pair_programs_path(campaign.output_dir, name, dim)
    rows = _read_keyed_lines(path, 2, ",", campaign.runs)
    programs = _read_keyed_lines(programs_path, 0, "\t", campaign.runs)
    kept = {}
    for run in range(campaign.runs):
        row = _parse_row(rows.get(run, ""), dim)
        program_seed = _program_seed(programs.get(run, ""), dim)
        seeds = [] if row is None else [(path, row.seed)]
        if program_seed is not None:
            seeds.append((programs_path, program_seed))
        for where, seed in seeds:
            if seed != campaign.base_seed + run:
                raise ValueError(
                    f"{where}: run {run} has seed {seed}, expected "
                    f"{campaign.base_seed + run} from base seed {campaign.base_seed}")
        if row is not None and (row.function, row.dimension) != (name, dim):
            raise ValueError(f"{path}: run {run} is a row of {row.function} "
                             f"D={row.dimension}, not of {name} D={dim}")
        if row is not None and program_seed is not None:
            kept[run] = (row, rows[run], programs[run])
    return kept


@contextmanager
def _replacing(path: Path):
    """A text handle on a sibling temp file that replaces ``path`` on success.

    On an exception the temp file is deleted and ``path`` keeps its bytes.
    A symlink (such as /dev/stdout), pipe or device is written in place:
    replacing it would swap the link or device for a plain file and leave
    what it points to unwritten.
    """
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        return
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, lines) -> None:
    with _replacing(path) as handle:
        for line in lines:
            handle.write(line + "\n")


def run_campaign(campaign: Campaign) -> dict[tuple[str, int], PairResult]:
    """Execute a campaign, write its CSV outputs, and return the
    ``PairResult`` of each (function, dimension) pair.

    Kept per-run rows are reused untouched; only missing runs are computed.
    These raise ValueError before any run starts or any file is written,
    even when no run is left: an invalid setting, which fails before the
    output directory is created; a kept row or program line whose run is
    outside ``range(campaign.runs)`` or on two lines; a kept row or program
    line whose seed is not ``base_seed + run``; a row of another pair.
    Partial results are flushed to disk even when a run fails.
    """
    configs = {dim: config_for(dim, campaign.base_seed, campaign.overrides)
               for dim in campaign.dimensions}
    runs = {(name, dim): _kept_runs(campaign, name, dim)
            for name, dim in campaign.pairs()}
    tasks = [(name, dim, run, replace(configs[dim], seed=campaign.base_seed + run))
             for (name, dim), kept in runs.items()
             for run in range(campaign.runs) if run not in kept]
    out = Path(campaign.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    computed = {}
    try:
        _execute(tasks, campaign.workers, computed)
    finally:
        for (name, dim, run), (row, program_line) in computed.items():
            runs[(name, dim)][run] = (row, _row_line(row), program_line)
        for (name, dim), records in runs.items():
            if records:
                ordered = [records[run] for run in sorted(records)]
                _write_lines(pair_csv_path(out, name, dim),
                             [result_header(dim), *(line for _, line, _ in ordered)])
                _write_lines(pair_programs_path(out, name, dim), ["run\tseed\tprogram"]
                             + [program for _, _, program in ordered])

    pairs = {}
    summary_lines = [SUMMARY_HEADER]
    for (name, dim), records in runs.items():
        rows = tuple(records[run][0] for run in range(campaign.runs))
        f_values = [r.f_at_argmin for r in rows]
        loss_values = [r.full_loss for r in rows]
        pair = PairResult(rows, median_lower(f_values), float(np.mean(f_values)),
                          median_lower(loss_values), float(np.mean(loss_values)))
        pairs[(name, dim)] = pair
        summary_lines.append(",".join([
            name, str(dim), str(campaign.runs),
            _format(pair.median_fitness), _format(pair.mean_fitness),
            _format(pair.median_full_loss), _format(pair.mean_full_loss),
        ]))
    _write_lines(out / "summary.csv", summary_lines)
    return pairs


def export_surface_grid(fn: BenchmarkFunction, program: Program,
                        resolution: int, path) -> Path:
    """Write a resolution x resolution grid CSV of target vs surrogate.

    Two-dimensional functions only; each axis is a corner-inclusive
    linspace over the box, rows are emitted row-major in (x0, x1).
    """
    if fn.dimension != 2 or program.dimension != 2:
        raise ValueError("surface export requires dimension 2")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    axis = np.linspace(fn.lower, fn.upper, resolution)
    labels = [_format(x1) for x1 in axis.tolist()]
    block = np.empty((resolution, 2))
    block[:, 1] = axis
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    # one x0 row at a time: only a (resolution, 2) block is ever evaluated
    with _replacing(path) as handle:
        handle.write("x0,x1,f_original,f_surrogate\n")
        for x0 in axis.tolist():
            block[:, 0] = x0
            original = fn.evaluate_batch(block).tolist()
            surrogate_values = stackgp.interpret_batch(program, block).tolist()
            prefix = _format(x0) + ","
            handle.write("".join([
                f"{prefix}{x1},{a!r},{b!r}\n"
                for x1, a, b in zip(labels, original, surrogate_values)]))
    return path


def dump_catalog(path=None) -> str:
    """Machine-readable catalog: one CSV row per (function, dimension)."""
    lines = [CATALOG_HEADER]
    for fn in benchmarks.catalog():
        minimum = "" if fn.known_minimum is None else _format(fn.known_minimum)
        argmin = ("" if fn.known_argmin is None
                  else ";".join(_format(v) for v in fn.known_argmin))
        lines.append(",".join([
            fn.name, str(fn.dimension), _format(fn.lower), _format(fn.upper),
            minimum, argmin, "true" if fn.verified else "false",
        ]))
    if path is not None:
        _write_lines(Path(path), lines)
    return "\n".join(lines) + "\n"
