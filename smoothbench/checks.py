"""Checks of smoothgp's output files against the reference computations.

Every check returns a list of error strings; an empty list means the output
passed. A run row whose program line is missing is not an error of the
check but a lost artifact: ``RowCheck.program`` is then None and the caller
counts the row as a failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

RESULT_COLUMNS = ("function", "dimension", "run", "seed",
                  "fitness_f_at_argmin", "fitness_full_L", "rmse")
SUMMARY_HEADER = ("function,dimension,runs,median_f_at_argmin,mean_f_at_argmin,"
                  "median_full_L,mean_full_L")
GRID_HEADER = "x0,x1,f_original,f_surrogate"


@dataclass
class RowCheck:
    """One run row of a per-pair CSV and what its checks found."""

    function: str
    dimension: int
    run: int
    line: str
    f_at_argmin: float = float("nan")
    full_loss: float = float("nan")
    program: str | None = None
    errors: list = field(default_factory=list)


def pair_files(out_dir, name: str, dimension: int) -> tuple[Path, Path]:
    out = Path(out_dir)
    return out / f"{name}_d{dimension}.csv", out / f"{name}_d{dimension}_programs.txt"


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def read_programs(path: Path) -> dict[int, tuple[int, str]]:
    """``run -> (seed, program text)`` from a ``*_programs.txt`` file."""
    programs = {}
    for line in read_lines(path)[1:]:
        run, seed, text = line.split("\t")
        programs[int(run)] = (int(seed), text)
    return programs


def check_row(row: RowCheck, cells: list[str], base_seed: int,
              programs: dict) -> None:
    """Check one parsed run row; fills ``row`` in place."""
    name, dim = row.function, row.dimension
    fn, lo, hi = ref.FUNCTIONS[name]
    errors = row.errors
    if len(cells) != len(RESULT_COLUMNS) + dim:
        errors.append(f"{len(cells)} columns, expected {len(RESULT_COLUMNS) + dim}")
        return
    if cells[0] != name or int(cells[1]) != dim:
        errors.append(f"row names pair {cells[0]},{cells[1]}")
    seed = int(cells[3])
    if seed != base_seed + row.run:
        errors.append(f"seed {seed} != base {base_seed} + run {row.run}")
    f_at, full, rmse = (float(v) for v in cells[4:7])
    argmin = [float(v) for v in cells[7:]]
    row.f_at_argmin, row.full_loss = f_at, full
    if not all(lo <= v <= hi for v in argmin):
        errors.append(f"argmin {argmin} outside [{lo}, {hi}]")
        return
    expected = fn(argmin)
    if not ref.close(f_at, expected):
        errors.append(f"fitness_f_at_argmin {f_at!r} != reference {expected!r}")
    minimum = ref.known_minimum(name, dim)
    if minimum is not None and f_at < minimum - ref.MINIMUM_TOL:
        errors.append(f"f(argmin) {f_at!r} below the known minimum {minimum}")
    if not ref.close(full - f_at, rmse):
        errors.append(f"fitness_full_L - fitness_f_at_argmin != rmse {rmse!r}")
    if row.run not in programs:
        return
    program_seed, text = programs[row.run]
    row.program = text
    if program_seed != seed:
        errors.append(f"program line seed {program_seed} != row seed {seed}")
    try:
        tokens = ref.parse_program(text)
    except ValueError:
        errors.append(f"unparseable program {text!r}")
        return
    expected_rmse = ref.rmse(name, tokens, ref.rmse_sample(name, dim, seed))
    if not ref.close(rmse, expected_rmse):
        errors.append(f"rmse {rmse!r} != reference {expected_rmse!r} of {text!r}")


def check_campaign(out_dir, pairs, runs: int, base_seed: int):
    """Check the per-pair CSVs, program files and summary of one campaign.

    Returns ``(rows, errors)``: a RowCheck per expected run row and the
    errors that belong to no single row (missing rows, summary mismatches).
    """
    rows, errors = [], []
    summary = {}
    summary_lines = read_lines(Path(out_dir) / "summary.csv")
    if summary_lines[:1] != [SUMMARY_HEADER]:
        errors.append("summary.csv: missing or wrong header")
    for line in summary_lines[1:]:
        cells = line.split(",")
        summary[(cells[0], int(cells[1]))] = cells
    for name, dim in pairs:
        csv_path, programs_path = pair_files(out_dir, name, dim)
        lines = read_lines(csv_path)
        header = ",".join(RESULT_COLUMNS + tuple(f"argmin_{d}" for d in range(dim)))
        if not lines or lines[0] != header:
            errors.append(f"{csv_path.name}: missing or wrong header")
            continue
        try:
            programs = read_programs(programs_path)
        except ValueError:
            errors.append(f"{programs_path.name}: malformed line")
            programs = {}
        pair_rows = []
        for line in lines[1:]:
            cells = line.split(",")
            row = RowCheck(name, dim, int(cells[2]), line)
            check_row(row, cells, base_seed, programs)
            pair_rows.append(row)
        found = [r.run for r in pair_rows]
        if found != list(range(runs)):
            errors.append(f"{csv_path.name}: runs {found}, expected 0..{runs - 1}")
        rows.extend(pair_rows)
        errors.extend(_summary_errors(summary.get((name, dim)), pair_rows, runs))
    return rows, errors


def _summary_errors(cells, pair_rows, runs: int) -> list[str]:
    if cells is None:
        return ["summary.csv: missing pair row"]
    f_values = [r.f_at_argmin for r in pair_rows]
    losses = [r.full_loss for r in pair_rows]
    errors = []
    if int(cells[2]) != runs:
        errors.append(f"summary runs {cells[2]} != {runs}")
    if float(cells[3]) != ref.median_lower(f_values):
        errors.append(f"summary median f(argmin) {cells[3]} != lower median of rows")
    if float(cells[5]) != ref.median_lower(losses):
        errors.append(f"summary median full_L {cells[5]} != lower median of rows")
    if not ref.close(float(cells[4]), sum(f_values) / len(f_values)):
        errors.append(f"summary mean f(argmin) {cells[4]} != mean of rows")
    if not ref.close(float(cells[6]), sum(losses) / len(losses)):
        errors.append(f"summary mean full_L {cells[6]} != mean of rows")
    return errors


def check_grid(path, name: str, program: str, resolution: int) -> list[str]:
    """Check a surface grid CSV of ``name`` against ``program``.

    Reads the file line by line, so the check holds one row at a time.
    """
    fn, lo, hi = ref.FUNCTIONS[name]
    tokens = ref.parse_program(program)
    last = resolution * resolution - 1
    corners = {0: (lo, lo), resolution - 1: (lo, hi),
               resolution * (resolution - 1): (hi, lo), last: (hi, hi)}
    errors, rows = [], 0
    with open(path, encoding="utf-8") as handle:
        if handle.readline().rstrip("\n") != GRID_HEADER:
            return [f"{Path(path).name}: missing or wrong header"]
        for i, line in enumerate(handle):
            rows += 1
            if len(errors) >= 5:
                continue
            x0, x1, f_orig, f_surr = (float(v) for v in line.split(","))
            want = (ref.linspace_point(lo, hi, resolution, i // resolution),
                    ref.linspace_point(lo, hi, resolution, i % resolution))
            if i in corners and (x0, x1) != corners[i]:
                errors.append(f"grid row {i} is ({x0}, {x1}), not corner {corners[i]}")
            elif not (ref.close(x0, want[0]) and ref.close(x1, want[1])):
                errors.append(f"grid row {i} at ({x0}, {x1}), expected {want}")
            elif not ref.close(f_orig, fn((x0, x1))):
                errors.append(f"grid row {i}: f_original {f_orig!r} != reference")
            elif not ref.close(f_surr, ref.evaluate_program(tokens, (x0, x1))):
                errors.append(f"grid row {i}: f_surrogate {f_surr!r} != reference")
    if rows != last + 1:
        errors.append(f"{rows} grid rows, expected {last + 1}")
    return errors
