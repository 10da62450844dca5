"""Campaign driver tests: CSV schemas, determinism, resumability, CLI."""

import concurrent.futures
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from smoothgp import benchmarks, cli, harness, stackgp
from smoothgp.harness import (Campaign, dump_catalog, export_surface_grid,
                              median_lower, pair_csv_path, result_header,
                              run_campaign)

TINY_OVERRIDES = {
    "generations": 2,
    "population_size": 6,
    "tournament_size": 2,
    "pso_iterations": 10,
    "rmse_samples": 20,
}


def tiny_campaign(out, **kwargs):
    settings = dict(functions=("rastrigin",), dimensions=(2,), runs=2,
                    base_seed=11, overrides=dict(TINY_OVERRIDES),
                    output_dir=out, workers=1)
    settings.update(kwargs)
    return Campaign(**settings)


class TestMedian:
    def test_odd_count_middle(self):
        assert median_lower([3.0, 1.0, 2.0]) == 2.0

    def test_even_count_lower_middle(self):
        assert median_lower([4.0, 1.0, 3.0, 2.0]) == 2.0

    def test_single_value(self):
        assert median_lower([7.5]) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_lower([])


class TestCatalogDump:
    def test_header_and_row_count(self):
        lines = dump_catalog().splitlines()
        assert lines[0] == "name,dimension,lo,hi,known_minimum,known_argmin,verified"
        assert len(lines) == 1 + 27

    def test_schwefel_row(self):
        rows = {tuple(line.split(",")[:2]): line
                for line in dump_catalog().splitlines()[1:]}
        row = rows[("schwefel", "2")].split(",")
        assert row[2] == "-500.0"
        assert row[3] == "500.0"
        assert row[4] == "0.0"
        assert row[5] == "420.9687;420.9687"
        assert row[6] == "true"

    def test_michalewicz_high_dim_rows_empty(self):
        rows = {tuple(line.split(",")[:2]): line
                for line in dump_catalog().splitlines()[1:]}
        row = rows[("michalewicz", "3")].split(",")
        assert row[4] == ""
        assert row[5] == ""
        assert row[6] == "false"

    def test_vincent_rows_not_verified(self):
        rows = {tuple(line.split(",")[:2]): line
                for line in dump_catalog().splitlines()[1:]}
        assert rows[("vincent", "4")].split(",")[6] == "false"

    def test_written_file_matches_text(self, tmp_path):
        path = tmp_path / "catalog.csv"
        text = dump_catalog(path)
        assert path.read_bytes() == text.encode()
        assert b"\r" not in path.read_bytes()


class TestSurfaceGrid:
    def test_resolution_two_hits_corners(self, tmp_path):
        fn = benchmarks.BenchmarkFunction(
            name="stub", dimension=2, lower=0.0, upper=1.0,
            evaluator=lambda pts: np.zeros(len(pts)))
        program = stackgp.parse("0.0", 2)
        path = export_surface_grid(fn, program, 2, tmp_path / "grid.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,x1,f_original,f_surrogate"
        corners = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert corners == [("0.0", "0.0"), ("0.0", "1.0"),
                           ("1.0", "0.0"), ("1.0", "1.0")]

    def test_constant_program_surrogate_column(self, tmp_path):
        fn = benchmarks.get("rastrigin", 2)
        program = stackgp.parse("0.0", 2)
        path = export_surface_grid(fn, program, 5, tmp_path / "grid.csv")
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[3] == "0.0"

    def test_exact_copy_program_matches_original(self, tmp_path):
        fn = benchmarks.get("rosenbrock", 2)
        program = stackgp.parse("x0 x0 * x1 - DUP * 10.0 * x0 1.0 - DUP * +", 2)
        path = export_surface_grid(fn, program, 16, tmp_path / "grid.csv")
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert abs(float(cells[2]) - float(cells[3])) <= 1e-9

    @pytest.mark.parametrize("resolution, message", [
        (2.5, "^resolution must be an integer"), ("8", "^resolution must be an integer"),
        (0, "^resolution must be >= 1")])
    def test_resolution_must_be_a_count(self, tmp_path, resolution, message):
        path = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match=message):
            export_surface_grid(benchmarks.get("rastrigin", 2),
                                stackgp.parse("0.0", 2), resolution, path)
        assert not path.exists()

    def test_wrong_dimension_rejected(self, tmp_path):
        fn = benchmarks.get("rastrigin", 3)
        with pytest.raises(ValueError):
            export_surface_grid(fn, stackgp.parse("0.0", 3), 4,
                                tmp_path / "grid.csv")

    def test_export_memory_does_not_grow_with_the_grid(self, tmp_path):
        # a whole-grid evaluation at 256^2 peaks near 4 MB; one row is ~0.1 MB
        fn = benchmarks.get("rastrigin", 2)
        program = stackgp.parse("x0 x0 * x1 x1 * + 2.5 x0 * -", 2)
        tracemalloc.start()
        try:
            export_surface_grid(fn, program, 256, tmp_path / "grid.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_failed_export_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.csv"
        path.write_text("old grid\n")
        calls = []

        def failing(program, points):
            calls.append(len(points))
            if len(calls) == 3:
                raise RuntimeError("interpreter failed")
            return np.zeros(len(points))

        monkeypatch.setattr(stackgp, "interpret_batch", failing)
        with pytest.raises(RuntimeError):
            export_surface_grid(benchmarks.get("rastrigin", 2),
                                stackgp.parse("0.0", 2), 5, path)
        assert calls == [5, 5, 5]
        assert path.read_text() == "old grid\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]


class TestWriteLines:
    def test_failure_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("old\n")

        def lines():
            yield "new header"
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            harness._write_lines(path, lines())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_pipe_is_written_in_place(self, tmp_path):
        path = tmp_path / "out.csv"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()),
                                  daemon=True)
        reader.start()
        harness._write_lines(path, ["a", "b"])
        reader.join(timeout=10)
        assert received == [b"a\nb\n"]
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        harness._write_lines(link, ["a", "b"])
        assert link.is_symlink()
        assert target.read_text() == "a\nb\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


class TestCampaignValidation:
    def test_unknown_function_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_campaign(tmp_path, functions=("nosuch",))

    def test_bad_dimension_rejected(self, tmp_path):
        message = f"dimension 5 outside supported {benchmarks.CATALOG_DIMENSIONS}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            tiny_campaign(tmp_path, dimensions=(5,))

    def test_non_integer_dimension_rejected(self, tmp_path):
        # int() would truncate 2.7 to the supported D=2
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got 2\.7$"):
            tiny_campaign(tmp_path, dimensions=(2.7,))

    def test_numpy_integer_dimension_accepted(self, tmp_path):
        campaign = tiny_campaign(tmp_path, dimensions=(np.int64(3),))
        assert campaign.dimensions == (3,) and type(campaign.dimensions[0]) is int

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_campaign(tmp_path, overrides={"nope": 1})

    @pytest.mark.parametrize("key", ["mutation_rate", "initial_max_length"])
    def test_fixed_gp_setting_is_not_an_override(self, tmp_path, key):
        # the mutation rate and the first-generation length are constants
        message = f"unknown config overrides: {[key]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_campaign(tmp_path, overrides=dict(TINY_OVERRIDES, **{key: 1}))

    def test_function_names_normalized(self, tmp_path):
        campaign = tiny_campaign(tmp_path, functions=("RaStRiGiN",))
        assert campaign.functions == ("rastrigin",)

    def test_function_listed_twice_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="function 'rastrigin' is listed more"):
            tiny_campaign(tmp_path, functions=("rastrigin", " RASTRIGIN"))

    def test_dimension_listed_twice_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dimension 2 is listed more"):
            tiny_campaign(tmp_path, dimensions=(2, 3, np.int64(2)))


class TestRunCampaign:
    def test_single_run_outputs(self, tmp_path):
        campaign = tiny_campaign(tmp_path, runs=1)
        result = run_campaign(campaign)
        csv_lines = pair_csv_path(tmp_path, "rastrigin", 2).read_text().splitlines()
        assert csv_lines[0] == result_header(2)
        assert csv_lines[0] == ("function,dimension,run,seed,fitness_f_at_argmin,"
                                "fitness_full_L,rmse,argmin_0,argmin_1")
        assert len(csv_lines) == 2
        pair = result[("rastrigin", 2)]
        assert pair.median_fitness == pair.rows[0].f_at_argmin
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 2

    def test_median_of_three_runs(self, tmp_path):
        campaign = tiny_campaign(tmp_path, runs=3)
        result = run_campaign(campaign)
        pair = result[("rastrigin", 2)]
        values = sorted(row.f_at_argmin for row in pair.rows)
        assert pair.median_fitness == values[1]
        assert len(pair.rows) == 3

    def test_rows_match_isolated_reruns(self, tmp_path):
        # any single run is re-executable in isolation from its seed
        campaign = tiny_campaign(tmp_path, runs=2)
        result = run_campaign(campaign)
        row = result[("rastrigin", 2)].rows[1]
        config = harness.config_for(2, campaign.base_seed + 1,
                                    campaign.overrides)
        from smoothgp.surrogate import evolve
        record = evolve(benchmarks.get("rastrigin", 2), config)
        assert row.f_at_argmin == record.best.f_at_argmin
        assert row.argmin == record.best.argmin

    def test_resume_skips_existing_rows(self, tmp_path):
        campaign = tiny_campaign(tmp_path, runs=2)
        run_campaign(campaign)
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        lines = path.read_text().splitlines()
        # forge run 0 with a sentinel value; a resumed campaign must keep the
        # forged bytes untouched and not recompute that run
        forged = lines[1].split(",")
        forged[4] = "123.456"
        lines[1] = ",".join(forged)
        path.write_text("\n".join(lines) + "\n")
        result = run_campaign(campaign)
        assert path.read_text().splitlines()[1] == lines[1]
        assert result[("rastrigin", 2)].rows[0].f_at_argmin == 123.456

    def test_resume_fills_missing_rows(self, tmp_path):
        campaign = tiny_campaign(tmp_path, runs=3)
        run_campaign(campaign)
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        full = path.read_text()
        lines = full.splitlines()
        path.write_text("\n".join([lines[0], lines[2]]) + "\n")
        run_campaign(campaign)
        assert path.read_text() == full

    def test_resume_keeps_program_lines(self, tmp_path):
        campaign = tiny_campaign(tmp_path, runs=3)
        run_campaign(campaign)
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        programs = tmp_path / "rastrigin_d2_programs.txt"
        full_rows, full_programs = path.read_text(), programs.read_text()
        lines = full_rows.splitlines()
        path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        run_campaign(campaign)
        assert len(programs.read_text().splitlines()) == 4
        assert programs.read_text() == full_programs
        assert path.read_text() == full_rows

    def test_rerun_with_fewer_runs_fails_and_keeps_files(self, tmp_path):
        run_campaign(tiny_campaign(tmp_path, runs=3))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=r"rastrigin_d2\.csv: run 2 .* 2 runs"):
            run_campaign(tiny_campaign(tmp_path, runs=2))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_negative_run_in_kept_files_fails_and_keeps_files(self, tmp_path):
        run_campaign(tiny_campaign(tmp_path, runs=2))
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        programs = tmp_path / "rastrigin_d2_programs.txt"
        row = path.read_text().splitlines()[1].split(",")
        row[2], row[3] = "-1", "10"  # the seed matches base seed 11 + run -1
        path.write_text(path.read_text() + ",".join(row) + "\n")
        programs.write_text(programs.read_text() + "-1\t10\tx0\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=r"rastrigin_d2\.csv: run -1 .* 2 runs"):
            run_campaign(tiny_campaign(tmp_path, runs=2))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # with the row gone, the program line alone still stops the rerun
        rows = path.read_text().splitlines()[:-1]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"programs\.txt: run -1 .* 2 runs"):
            run_campaign(tiny_campaign(tmp_path, runs=2))
        assert programs.read_bytes() == before[programs.name]

    def test_duplicated_run_in_kept_files_fails_and_keeps_files(self, tmp_path):
        run_campaign(tiny_campaign(tmp_path, runs=2))
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        programs = tmp_path / "rastrigin_d2_programs.txt"
        row = path.read_text().splitlines()[1].split(",")
        row[4] = "999.0"  # a second run 0 with another f(argmin)
        path.write_text(path.read_text() + ",".join(row) + "\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=r"rastrigin_d2\.csv: run 0 .* more than one"):
            run_campaign(tiny_campaign(tmp_path, runs=2))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # with the row gone, a duplicated program line alone stops the rerun
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        line = programs.read_text().splitlines()[1]
        programs.write_text(programs.read_text() + line + "\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=r"programs\.txt: run 0 .* more than one"):
            run_campaign(tiny_campaign(tmp_path, runs=2))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_stale_program_line_fails(self, tmp_path):
        run_campaign(tiny_campaign(tmp_path, runs=2))
        programs = tmp_path / "rastrigin_d2_programs.txt"
        programs.write_text(programs.read_text() + "2\t13\tx0\n")
        with pytest.raises(ValueError, match=r"programs\.txt: run 2 .* 2 runs"):
            run_campaign(tiny_campaign(tmp_path, runs=2))

    @pytest.mark.parametrize("damaged", [None, "1\t12", "1\ttwelve\tx0", "1\t\tx0",
                                         "1\t12\t", "1\t12\tx0 x"])
    def test_lost_or_garbled_program_line_is_recomputed(self, tmp_path, damaged):
        campaign = tiny_campaign(tmp_path, runs=2)
        run_campaign(campaign)
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        programs = tmp_path / "rastrigin_d2_programs.txt"
        rows, full = path.read_bytes(), programs.read_text()
        lines = full.splitlines()[:2] + ([] if damaged is None else [damaged])
        programs.write_text("\n".join(lines) + "\n")
        run_campaign(campaign)
        assert programs.read_text() == full
        assert path.read_bytes() == rows

    def test_program_line_with_another_seed_fails_and_keeps_files(self, tmp_path,
                                                                  monkeypatch):
        run_campaign(tiny_campaign(tmp_path))
        programs = tmp_path / "rastrigin_d2_programs.txt"
        lines = programs.read_text().splitlines()
        programs.write_text("\n".join(lines[:2] + ["1\t99\tx0"]) + "\n")
        # with run 0's row gone, a rerun that passed the check would run it
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:1] + rows[2:]) + "\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "evolve", no_run)
        with pytest.raises(ValueError, match=r"programs\.txt: run 1 has seed 99, "
                                             r"expected 12 from base seed 11"):
            run_campaign(tiny_campaign(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # the line is refused even when its row is gone too
        path.write_text(rows[0] + "\n")
        with pytest.raises(ValueError, match=r"programs\.txt: run 1 has seed 99"):
            run_campaign(tiny_campaign(tmp_path))
        assert programs.read_bytes() == before[programs.name]

    def test_execute_keeps_runs_finishing_after_a_failure(self):
        # the first task fails on its unknown function at once; its sibling
        # finishes later
        config = harness.config_for(2, 11, TINY_OVERRIDES)
        tasks = [("nosuch", 2, 0, config), ("rastrigin", 2, 1, config)]
        done = {}
        with pytest.raises(ValueError, match="unknown benchmark function"):
            harness._execute(tasks, 2, done)
        assert list(done) == [("rastrigin", 2, 1)]

    def test_execute_reraises_the_first_failure_in_task_order(self):
        # the pool takes the population of 50 first and the population of
        # 2 last; both fail in their tasks, on unknown function names
        tasks = [("first", 2, 0, harness.config_for(2, 11, dict(TINY_OVERRIDES,
                                                                population_size=2))),
                 ("rastrigin", 2, 1, harness.config_for(2, 12, TINY_OVERRIDES)),
                 ("last", 2, 2, harness.config_for(2, 13, {}))]
        assert [t[3].population_size for t in tasks] == [2, 6, 50]
        done = {}
        with pytest.raises(ValueError, match="unknown benchmark function 'first'"):
            harness._execute(tasks, 2, done)
        assert list(done) == [("rastrigin", 2, 1)]

    def test_pool_takes_the_longest_runs_first(self, monkeypatch):
        submitted = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, task):
                submitted.append(task[:3])
                return super().submit(fn, task)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_run_task", lambda task: task[:3])
        # populations 50, 50, 100, 200 and 50, with the default population
        # where the override is None; the three of 50 keep task order
        tasks = [("alpine", d, 0, harness.config_for(d, 0, {})) for d in (2, 3, 4)]
        tasks.append(("alpine", 2, 1, harness.config_for(2, 1, {"population_size": 200})))
        tasks.append(("alpine", 3, 1, harness.config_for(3, 1, {"population_size": None})))
        assert [t[3].population_size for t in tasks] == [50, 50, 100, 200, 50]
        done = {}
        harness._execute(tasks, 2, done)
        assert submitted == [("alpine", 2, 1), ("alpine", 4, 0), ("alpine", 2, 0),
                             ("alpine", 3, 0), ("alpine", 3, 1)]
        assert done == {task[:3]: task[:3] for task in tasks}

    def test_invalid_setting_fails_before_the_output_directory_exists(self, tmp_path):
        out = tmp_path / "results"
        failing = dict(TINY_OVERRIDES, population_size=1)
        with pytest.raises(ValueError, match="tournament_size must not exceed"):
            run_campaign(tiny_campaign(out, overrides=failing))
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("population_size", 6.5), ("generations", 1.5), ("tournament_size", 2.5),
        ("pso_iterations", 2.5), ("rmse_samples", 20.5), ("runs", 1.5),
        ("workers", 1.5)])
    def test_non_integer_count_fails_before_the_output_directory_exists(
            self, tmp_path, field, value):
        out = tmp_path / "results"
        settings = ({"overrides": dict(TINY_OVERRIDES, **{field: value})}
                    if field in TINY_OVERRIDES else {field: value})
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_campaign(tiny_campaign(out, **settings))
        assert not out.exists()

    @pytest.mark.parametrize("seed, message", [(0.5, "^seed must be an integer"),
                                               (-1, "^seed must be >= 0$")])
    def test_invalid_seed_fails_before_the_output_directory_exists(
            self, tmp_path, seed, message):
        out = tmp_path / "results"
        with pytest.raises(ValueError, match=message):
            run_campaign(tiny_campaign(out, base_seed=seed))
        assert not out.exists()

    def test_invalid_setting_fails_on_a_complete_directory(self, tmp_path):
        # no run is left to compute, yet the setting is refused
        run_campaign(tiny_campaign(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        failing = dict(TINY_OVERRIDES, population_size=1)
        with pytest.raises(ValueError, match="tournament_size must not exceed"):
            run_campaign(tiny_campaign(tmp_path, overrides=failing))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_garbled_row_with_an_out_of_range_run_fails(self, tmp_path):
        run_campaign(tiny_campaign(tmp_path))
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        path.write_text(path.read_text() + "rastrigin,2,5,16,1.5\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=r"rastrigin_d2\.csv: run 5 .* 2 runs"):
            run_campaign(tiny_campaign(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_row_of_another_pair_fails_and_keeps_files(self, tmp_path, monkeypatch):
        run_campaign(tiny_campaign(tmp_path, functions=("alpine", "rastrigin")))
        alpine = pair_csv_path(tmp_path, "alpine", 2).read_text().splitlines()
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        # rastrigin's run 1 replaced by alpine's, whose seed is the same;
        # alpine's run 0 removed, so that a rerun would have a run to compute
        path.write_text("\n".join(path.read_text().splitlines()[:2] + alpine[2:]) + "\n")
        pair_csv_path(tmp_path, "alpine", 2).write_text(
            "\n".join(alpine[:1] + alpine[2:]) + "\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "evolve", no_run)
        with pytest.raises(ValueError, match=r"rastrigin_d2\.csv: run 1 .* alpine D=2"):
            run_campaign(tiny_campaign(tmp_path, functions=("alpine", "rastrigin")))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_mixed_dimensions_do_not_change_bytes_with_workers(self, tmp_path):
        # with equal populations the pool takes D=4 first, then D=3, then D=2
        outputs = []
        for workers in (1, 2):
            out = tmp_path / str(workers)
            run_campaign(tiny_campaign(out, dimensions=(2, 3, 4), workers=workers))
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        serial, pool = outputs
        assert len(serial) == 7 and pool == serial

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        out_serial = tmp_path / "serial"
        out_pool = tmp_path / "pool"
        run_campaign(tiny_campaign(out_serial, workers=1))
        run_campaign(tiny_campaign(out_pool, workers=2))
        names = ["rastrigin_d2.csv", "rastrigin_d2_programs.txt", "summary.csv"]
        for name in names:
            assert (out_serial / name).read_bytes() == (out_pool / name).read_bytes()

    def test_programs_artifact_round_trips(self, tmp_path):
        campaign = tiny_campaign(tmp_path, runs=1)
        run_campaign(campaign)
        lines = (tmp_path / "rastrigin_d2_programs.txt").read_text().splitlines()
        assert lines[0] == "run\tseed\tprogram"
        _, _, text = lines[1].split("\t")
        program = stackgp.parse(text, 2)
        assert stackgp.render(program) == text


class TestCli:
    def test_catalog_command(self, tmp_path, capsys):
        path = tmp_path / "catalog.csv"
        assert cli.main(["catalog", "--out", str(path)]) == 0
        assert path.read_text().startswith("name,dimension")

    def test_catalog_stdout(self, capsys):
        assert cli.main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,dimension")

    def test_surface_with_program(self, tmp_path):
        path = tmp_path / "grid.csv"
        code = cli.main(["surface", "--function", "rastrigin",
                         "--resolution", "3", "--out", str(path),
                         "--program", "x0 x0 * x1 x1 * +"])
        assert code == 0
        assert len(path.read_text().splitlines()) == 10

    def test_run_command_and_config_precedence(self, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text(
            "function = rastrigin\n"
            "runs = 5\n"  # overridden by the CLI flag below
            "generations = 2\n"
            "pop = 6\n"
            "pso-iters = 10\n"
            "rmse-samples = 20\n"
            "# a comment\n")
        out = tmp_path / "results"
        code = cli.main(["run", "--config", str(config), "--runs", "1",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = pair_csv_path(out, "rastrigin", 2).read_text().splitlines()
        assert len(lines) == 2  # header + the single run the flag forced

    def test_truncated_row_is_recomputed(self, tmp_path):
        argv = ["run", "--function", "rastrigin", "--dim", "2", "--runs", "2",
                "--seed", "0", "--generations", "2", "--pop", "6",
                "--pso-iters", "10", "--rmse-samples", "20",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        path = pair_csv_path(tmp_path, "rastrigin", 2)
        full = path.read_text()
        lines = full.splitlines()
        path.write_text("\n".join([lines[0], lines[1], "rastrigin,2,1,1,1.5"]) + "\n")
        assert cli.main(argv) == 0
        assert path.read_text() == full

    def test_resume_with_another_base_seed_fails(self, tmp_path, capsys):
        argv = ["run", "--function", "rastrigin", "--dim", "2",
                "--generations", "2", "--pop", "6", "--pso-iters", "10",
                "--rmse-samples", "20", "--out", str(tmp_path)]
        assert cli.main(argv + ["--runs", "2", "--seed", "0"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert cli.main(argv + ["--runs", "3", "--seed", "9"]) == 1
        error = capsys.readouterr().err
        assert "rastrigin_d2.csv" in error and "run 0" in error
        assert "seed 0" in error and "expected 9" in error
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_unknown_config_key_fails(self, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("nonsense = 1\n")
        assert cli.main(["run", "--config", str(config)]) == 1

    def test_invalid_function_fails(self, tmp_path):
        assert cli.main(["run", "--function", "nosuch",
                         "--out", str(tmp_path)]) == 1

    def test_non_integer_config_value_fails(self, tmp_path, capsys):
        config = tmp_path / "settings.cfg"
        config.write_text("runs = abc\n")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_key_of_other_command_fails(self, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("runs = 2\n")
        assert cli.main(["surface", "--config", str(config),
                         "--out", str(tmp_path / "grid.csv")]) == 1

    def test_surface_reads_config_file(self, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("resolution = 3\npso_iters = 10\n"
                          "program = x0 x0 * x1 x1 * +\n")
        path = tmp_path / "grid.csv"
        assert cli.main(["surface", "--config", str(config),
                         "--out", str(path)]) == 0
        assert len(path.read_text().splitlines()) == 10
