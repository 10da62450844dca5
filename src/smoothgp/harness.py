"""Campaign driver: seeded multi-run experiments, CSV outputs, grid export.

A campaign executes `runs` independent evolutions per (function, dimension)
pair with seeds ``base_seed + run_index`` and writes, per pair, a CSV of
per-run results plus a text artifact with the winning programs, and one
``summary.csv`` row per pair. Runs may execute concurrently; a worker pool
takes them longest first, by population times swarm size, so short runs
fill the pool's tail. Outputs are ordered by run index before writing, so
bytes never depend on scheduling, and after a failure the first failing
run in campaign order is re-raised.
Rerunning a partially completed campaign skips run rows that already exist
on disk and preserves their bytes; a kept row written with another base
seed, or for a run index the campaign does not have, is an error. Every
file is written to a sibling temp file and moved onto its path with
``os.replace``, so a crash mid-write leaves the old file intact.

Median convention: for even run counts the lower-middle element is used.
All CSVs use '.' decimals, LF line endings and UTF-8.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import benchmarks, fstpso, stackgp
from .benchmarks import BenchmarkFunction
from .stackgp import Program
from .surrogate import EvolutionConfig, evolve

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
    program: str | None = field(default=None, compare=False)


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
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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


def _run_task(task) -> RunRow:
    name, dimension, run_index, seed, overrides = task
    fn = benchmarks.get(name, dimension)
    record = evolve(fn, config_for(dimension, seed, overrides))
    best = record.best
    return RunRow(
        function=name,
        dimension=dimension,
        run=run_index,
        seed=seed,
        f_at_argmin=best.f_at_argmin,
        full_loss=best.fitness,
        rmse=best.rmse,
        argmin=best.argmin,
        program=stackgp.render(best.program),
    )


def _expected_cost(task) -> int:
    """A run's relative cost, population times swarm size, for dispatch order.

    Reads the population as ``config_for`` does but builds no config, and
    takes the default for a value that is not an integer, so an invalid
    config fails inside its own task rather than here.
    """
    _, dimension, _, _, overrides = task
    population = overrides.get("population_size")
    if not isinstance(population, int):
        population = DEFAULT_POPULATION[dimension]
    return population * fstpso.swarm_size(dimension)


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


def pair_csv_path(output_dir, name: str, dimension: int) -> Path:
    return Path(output_dir) / f"{name}_d{dimension}.csv"


def pair_programs_path(output_dir, name: str, dimension: int) -> Path:
    return Path(output_dir) / f"{name}_d{dimension}_programs.txt"


def _read_keyed_lines(path: Path, key_field: int, sep: str) -> dict[int, str]:
    """Lines after the header, keyed by the integer in field ``key_field``."""
    if not path.exists():
        return {}
    keyed = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        parts = line.split(sep)
        try:
            keyed[int(parts[key_field])] = line
        except (IndexError, ValueError):
            continue
    return keyed


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


def _write_pair_outputs(campaign: Campaign, existing_rows, existing_programs,
                        computed) -> None:
    out = Path(campaign.output_dir)
    for name, dim in campaign.pairs():
        kept = existing_rows[(name, dim)]
        fresh = {run: computed[(name, dim, run)]
                 for run in range(campaign.runs)
                 if (name, dim, run) in computed}
        if not fresh and not kept:
            continue
        lines = [result_header(dim)]
        program_lines = ["run\tseed\tprogram"]
        for run in range(campaign.runs):
            if run in kept:
                lines.append(kept[run])
            elif run in fresh:
                lines.append(_row_line(fresh[run]))
            else:
                continue
            if run in fresh:
                program_lines.append(
                    f"{run}\t{fresh[run].seed}\t{fresh[run].program}")
            elif run in existing_programs[(name, dim)]:
                program_lines.append(existing_programs[(name, dim)][run])
        _write_lines(pair_csv_path(out, name, dim), lines)
        _write_lines(pair_programs_path(out, name, dim), program_lines)


def _check_run_in_range(path: Path, run: int, runs: int) -> None:
    if not 0 <= run < runs:
        raise ValueError(f"{path}: run {run} is outside the campaign's {runs} "
                         f"runs; rewriting the file would drop it")


def run_campaign(campaign: Campaign) -> dict[tuple[str, int], PairResult]:
    """Execute a campaign, write its CSV outputs, and return the
    ``PairResult`` of each (function, dimension) pair.

    Existing per-run rows in the output directory are reused untouched;
    only missing (function, dimension, run) triples are computed. A kept
    row whose seed is not ``base_seed + run``, or a kept row or program
    line whose run is not in ``range(campaign.runs)``, raises ValueError
    before any run starts or any file is written. Partial results are
    flushed to disk even when a run fails.
    """
    out = Path(campaign.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    existing_rows = {}
    existing_programs = {}
    tasks = []
    for name, dim in campaign.pairs():
        path = pair_csv_path(out, name, dim)
        kept = existing_rows[(name, dim)] = {}
        for run, line in _read_keyed_lines(path, key_field=2, sep=",").items():
            row = _parse_row(line, dim)
            if row is None:
                continue  # a truncated or garbled row is recomputed
            _check_run_in_range(path, run, campaign.runs)
            if row.seed != campaign.base_seed + run:
                raise ValueError(
                    f"{path}: run {run} has seed {row.seed}, expected "
                    f"{campaign.base_seed + run} from base seed "
                    f"{campaign.base_seed}")
            kept[run] = line
        programs_path = pair_programs_path(out, name, dim)
        existing_programs[(name, dim)] = _read_keyed_lines(
            programs_path, key_field=0, sep="\t")
        for run in existing_programs[(name, dim)]:
            _check_run_in_range(programs_path, run, campaign.runs)
        for run in range(campaign.runs):
            if run not in kept:
                tasks.append((name, dim, run, campaign.base_seed + run,
                              dict(campaign.overrides)))
    computed = {}
    try:
        _execute(tasks, campaign.workers, computed)
    finally:
        _write_pair_outputs(campaign, existing_rows, existing_programs, computed)

    pairs = {}
    summary_lines = [SUMMARY_HEADER]
    for name, dim in campaign.pairs():
        rows = []
        for run in range(campaign.runs):
            if (name, dim, run) in computed:
                rows.append(computed[(name, dim, run)])
            else:
                rows.append(_parse_row(existing_rows[(name, dim)][run], dim))
        f_values = [r.f_at_argmin for r in rows]
        loss_values = [r.full_loss for r in rows]
        pair = PairResult(
            rows=tuple(rows),
            median_fitness=median_lower(f_values),
            mean_fitness=float(np.mean(f_values)),
            median_full_loss=median_lower(loss_values),
            mean_full_loss=float(np.mean(loss_values)),
        )
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
