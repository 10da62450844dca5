"""Benchmark of the smoothgp command: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 smoothbench/run.py --workload desk|surface|resume --seed N \
        --seconds S --trace 0|1

One round of a workload is a fixed batch of ``smoothgp run`` commands, each
in a fresh process, followed by one ``smoothgp surface --program`` export of
the round's best D=2 program. Rounds repeat while the next one still fits in
``--seconds``. The first round's outputs are checked against the reference
code in ``reference.py``; every later round must reproduce their bytes.
With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and the result carries the per-layer metrics and the tracing overhead.
See README.md for the workloads, seeds and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers

BENCH_DIR = Path(__file__).resolve().parent
ALL_FUNCTIONS = ("ackley", "alpine", "griewank", "michalewicz", "rastrigin",
                 "rosenbrock", "schwefel", "vincent", "xinsheyang2")
DESK_FUNCTIONS = ("alpine", "rastrigin", "griewank", "rosenbrock",
                  "schwefel", "michalewicz")
# The program's documented defaults, which the workloads leave in place.
POPULATION = {2: 50, 3: 50, 4: 100}
PSO_ITERATIONS = 100
RMSE_SAMPLES_PER_DIMENSION = 100


@dataclass(frozen=True)
class Workload:
    """A round: one ``smoothgp run`` per (function, dim) entry, then an export."""

    commands: tuple[tuple[str, str], ...]
    runs: int
    generations: int
    workers: int
    resolution: int
    pso_iterations: int = PSO_ITERATIONS
    population: int | None = None  # None: the program's per-dimension default
    resume: bool = False
    # The program's base seed is fixed: how long a run takes depends on the
    # genomes its seed evolves (a 30-generation schwefel run at population
    # 50: 30.2-33.8 s over seeds 0-4), which
    # would swamp the bounds. The benchmark's --seed picks resume's deletions.
    seed: int = 0

    @staticmethod
    def scope(command) -> tuple[tuple[str, ...], tuple[int, ...]]:
        function, dim = command
        return (ALL_FUNCTIONS if function == "all" else (function,),
                (2, 3, 4) if dim == "all" else (int(dim),))

    def pairs(self, command) -> list[tuple[str, int]]:
        names, dims = self.scope(command)
        return [(name, d) for name in names for d in dims]

    def run_argv(self, command, seed: int, out: str) -> list[str]:
        argv = ["run", "--function", command[0], "--dim", command[1],
                "--runs", str(self.runs), "--generations", str(self.generations),
                "--seed", str(seed), "--workers", str(self.workers), "--out", out]
        if self.pso_iterations != PSO_ITERATIONS:
            argv += ["--pso-iters", str(self.pso_iterations)]
        if self.population is not None:
            argv += ["--pop", str(self.population)]
        return argv

    def overrides(self) -> dict:
        settings = {"generations": self.generations,
                    "pso_iterations": self.pso_iterations}
        if self.population is not None:
            settings["population_size"] = self.population
        return settings

    def scorings(self, dimension: int) -> int:
        pop = self.population or POPULATION[dimension]
        return pop + self.generations * 2 * (pop // 2)


WORKLOADS = {
    "desk": Workload(commands=tuple((f, "2") for f in DESK_FUNCTIONS),
                     runs=2, generations=1, workers=2, resolution=64),
    "surface": Workload(commands=(("schwefel", "2"),), runs=1, generations=30,
                        workers=1, resolution=512, population=16),
    "resume": Workload(commands=(("all", "all"),), runs=2, generations=1,
                       workers=2, resolution=64, pso_iterations=10, resume=True),
}

# Cold set-up: a fresh interpreter imports smoothgp and builds the
# workload's campaigns and per-dimension configs.
SETUP_PROBE = """
import json, sys
from smoothgp import harness
for spec in json.loads(sys.argv[1]):
    campaign = harness.Campaign(**spec)
    for dim in campaign.dimensions:
        harness.config_for(dim, campaign.base_seed, campaign.overrides)
"""


class Bench:
    """One benchmark process: a work directory and the commands it runs."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.workload = workload
        self.seed = workload.seed
        self.rng = random.Random(seed)
        self.work = BENCH_DIR / "out" / f"{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.deleted: dict = {}
        self.prefill_lines: dict = {}

    def launch(self, argv, cwd: Path, spans: Path | None = None) -> float:
        """Run one command to its end; return its wall time in seconds."""
        if spans is None:
            cmd = [sys.executable, "-m", "smoothgp.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), *argv]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                              text=True)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n"
                               f"{proc.stderr}")
        return wall

    def setup_seconds(self) -> float:
        w = self.workload
        specs = [{"functions": w.scope(c)[0], "dimensions": w.scope(c)[1],
                  "runs": w.runs, "base_seed": self.seed,
                  "overrides": w.overrides(),
                  "output_dir": f"c{i}", "workers": w.workers}
                 for i, c in enumerate(w.commands)]
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, json.dumps(specs)],
                       cwd=self.work, env=self.env, check=True)
        return time.perf_counter() - started

    def prefill(self) -> None:
        """Resume only: fill the campaign untimed, then delete rows.

        Half of each pair's runs, chosen by the seed, lose their CSV row and
        program line; the timed round recomputes them beside the kept rows.
        """
        pristine = self.work / "pristine"
        pristine.mkdir()
        w = self.workload
        for i, command in enumerate(w.commands):
            self.launch(w.run_argv(command, self.seed, f"c{i}"), pristine)
            for name, dim in w.pairs(command):
                csv_path, programs_path = checks.pair_files(pristine / f"c{i}", name, dim)
                deleted = set(self.rng.sample(range(w.runs), w.runs // 2))
                self.deleted[(i, name, dim)] = deleted
                for line in checks.read_lines(csv_path)[1:]:
                    self.prefill_lines[(i, name, dim, int(line.split(",")[2]))] = line
                _drop_runs(csv_path, deleted, ",", 2)
                _drop_runs(programs_path, deleted, "\t", 0)

    def reset(self, round_dir: Path) -> None:
        if round_dir.exists():
            shutil.rmtree(round_dir)
        if self.workload.resume:
            shutil.copytree(self.work / "pristine", round_dir)
        else:
            round_dir.mkdir()

    def run_round(self, round_dir: Path, spans: Path | None = None):
        """Run one round; returns (wall seconds, exported function, program)."""
        w = self.workload
        wall = 0.0
        for i, command in enumerate(w.commands):
            wall += self.launch(w.run_argv(command, self.seed, f"c{i}"), round_dir,
                                None if spans is None else spans / f"c{i}")
        name, program = self.best_program(round_dir)
        wall += self.launch(["surface", "--function", name, "--program", program,
                             "--resolution", str(w.resolution), "--out", "grid.csv"],
                            round_dir, None if spans is None else spans / "grid")
        return wall, name, program

    def best_program(self, round_dir: Path) -> tuple[str, str]:
        """The D=2 row with the lowest full loss that kept its program."""
        best = None
        for i, command in enumerate(self.workload.commands):
            for name, dim in self.workload.pairs(command):
                if dim != 2:
                    continue
                csv_path, programs_path = checks.pair_files(round_dir / f"c{i}", name, dim)
                programs = checks.read_programs(programs_path)
                for line in checks.read_lines(csv_path)[1:]:
                    cells = line.split(",")
                    run, loss = int(cells[2]), float(cells[5])
                    if run in programs and (best is None or loss < best[0]):
                        best = (loss, name, programs[run][1])
        if best is None:
            raise RuntimeError("no D=2 row kept its program line")
        return best[1], best[2]

    def check(self, round_dir: Path, name: str, program: str):
        """(attempted, failed, errors) of one round's outputs."""
        w = self.workload
        attempted, failed, errors = 1, 0, []
        for i, command in enumerate(w.commands):
            rows, campaign_errors = checks.check_campaign(
                round_dir / f"c{i}", w.pairs(command), w.runs, self.seed)
            errors += [f"c{i}: {e}" for e in campaign_errors]
            for row in rows:
                attempted += 1
                key = (i, row.function, row.dimension, row.run)
                errors += [f"{key}: {e}" for e in row.errors]
                if w.resume and row.line != self.prefill_lines.get(key):
                    errors.append(f"{key}: row differs from the campaign it resumed")
                if row.program is None:
                    failed += 1
        errors += checks.check_grid(round_dir / "grid.csv", name, program, w.resolution)
        return attempted, failed, errors

    def expected(self) -> layers.Expected:
        w = self.workload
        scorings, dims = 0, set()
        for i, command in enumerate(w.commands):
            for name, dim in w.pairs(command):
                dims.add(dim)
                computed = len(self.deleted[(i, name, dim)]) if w.resume else w.runs
                scorings += computed * w.scorings(dim)
        return layers.Expected(
            scorings=scorings, pso_iterations=w.pso_iterations,
            swarm_sizes=frozenset(int(10 + 2 * d ** 0.5) for d in dims),
            rmse_sizes=frozenset(RMSE_SAMPLES_PER_DIMENSION * d for d in dims),
            grid_size=w.resolution ** 2)


def _drop_runs(path: Path, deleted: set, sep: str, run_column: int) -> None:
    lines = checks.read_lines(path)
    kept = [lines[0]] + [line for line in lines[1:]
                         if int(line.split(sep)[run_column]) not in deleted]
    path.write_text("".join(line + "\n" for line in kept), encoding="utf-8")


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Run rounds for ``seconds``, then check the first round's outputs.

    The checks come last and the hashing streams: a command's peak RSS
    counts its parent's peak at launch, so this process stays small while
    commands run.
    """
    round_dir, first = bench.work / "round", bench.work / "first"
    walls, traced_walls, scorings_per_s, per_layer, digests = [], [], [], [], []
    errors, exported = [], None
    expected = bench.expected()
    began = time.perf_counter()
    while True:
        cycle_began = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            bench.reset(round_dir)
            spans = bench.work / "spans" if traced else None
            if traced:
                spans.mkdir()
            wall, name, program = bench.run_round(round_dir, spans)
            digests.append(digest(round_dir))
            if exported is None:
                exported = (name, program)
                round_dir.rename(first)
            if traced:
                traced_walls.append(wall)
                metrics, count_errors = layers.summarize(*layers.load(spans), expected)
                per_layer.append(metrics)
                errors += count_errors
                shutil.rmtree(spans)
            else:
                walls.append(wall)
                scorings_per_s.append(expected.scorings / wall)
        # another round only if at least half of it fits in the time
        now = time.perf_counter()
        if now - began + 0.5 * (now - cycle_began) > seconds:
            break
    if trace:
        metrics = {name: (statistics.median(m[name] for m in per_layer), unit)
                   for name, unit in layers.METRICS.items()}
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "scorings_per_s": (statistics.median(scorings_per_s), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                            / 1024.0, "MB"),
        }
    attempted, failed, check_errors = bench.check(first, *exported)
    errors += check_errors
    if len(set(digests)) != 1:
        errors.append("a round's outputs differ from the first round's bytes")
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted * len(digests),
            "failed": failed * len(digests), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "smoothgp" / "cli.py").is_file():
        print("error: run from the root of a smoothgp checkout (no src/smoothgp)",
              file=sys.stderr)
        return 2
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    if bench.work.exists():
        shutil.rmtree(bench.work)
    bench.work.mkdir(parents=True)
    try:
        setup_s = bench.setup_seconds()
        if bench.workload.resume:
            bench.prefill()
        result = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = (setup_s, "s")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
