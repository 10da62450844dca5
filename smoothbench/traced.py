"""Run one ``smoothgp`` command with span-recording wrappers on its layers.

Usage: python3 traced.py SPAN_PREFIX SMOOTHGP_ARGS...

The wrappers are installed from here, around the public functions of each
module, so nothing in the package changes. Every span is kept in memory as
(name, start, end, parent span, attribute) and written as JSON to
``SPAN_PREFIX-<pid>-<n>.json`` when the command ends; a forked campaign
worker writes its spans after each ``evolve`` it runs, since pool workers
end without running exit hooks. Start and end are ``time.perf_counter``
readings, which share one clock across the processes of a machine.
"""

from __future__ import annotations

import json
import os
import sys
import time

_IMPORT_STARTED = time.perf_counter()
import smoothgp.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

from smoothgp import benchmarks, cli, fstpso, harness, stackgp, surrogate  # noqa: E402

from layers import SLOTS  # noqa: E402


class Tracer:
    """Flat in-memory span log of one process."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.names: list[str] = []
        self.forget()

    def forget(self) -> None:
        """Drop recorded spans; a forked child starts from an empty log."""
        self.records: list = []
        self.stack: list[int] = []
        self.written = 0

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``describe(args)`` gives the span's attribute, such as a point count.
        """
        original = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(name)
        flush = name == "surrogate.evolve"
        main_pid = os.getpid()

        def wrapper(*args, **kwargs):
            records, stack = self.records, self.stack
            index = len(records) // SLOTS
            records.extend((name_id, 0.0, 0.0, stack[-1] if stack else -1,
                            describe(args) if describe else None))
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[index * SLOTS + 1] = start
                records[index * SLOTS + 2] = end
                if flush and not stack and os.getpid() != main_pid:
                    self.write()

        setattr(owner, attr, wrapper)

    def write(self, import_s: float | None = None) -> None:
        path = f"{self.prefix}-{os.getpid()}-{self.written}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "import_s": import_s,
                       "records": self.records}, handle)
        self.written += 1
        self.records = []


def install(tracer: Tracer) -> None:
    points = lambda args: len(args[1])  # noqa: E731
    wrap = tracer.wrap
    wrap(harness, "run_campaign", "harness.run_campaign")
    wrap(harness, "_execute", "harness.execute",
         lambda args: [len(args[0]), args[1]])
    wrap(harness, "export_surface_grid", "harness.export_surface_grid")
    wrap(harness, "evolve", "surrogate.evolve")
    wrap(cli, "evolve", "surrogate.evolve")
    wrap(surrogate, "fitness", "surrogate.fitness",
         lambda args: stackgp.render(args[0]))
    wrap(surrogate, "tournament_select", "surrogate.tournament_select")
    wrap(surrogate, "program_stream", "surrogate.program_stream")
    wrap(fstpso, "optimize", "fstpso.optimize", lambda args: args[2])
    wrap(fstpso, "init_swarm", "fstpso.init_swarm")
    wrap(fstpso, "step", "fstpso.step")
    wrap(stackgp, "interpret_batch", "stackgp.interpret_batch", points)
    wrap(stackgp, "two_point_crossover", "stackgp.two_point_crossover")
    wrap(stackgp, "mutate", "stackgp.mutate")
    cls = benchmarks.BenchmarkFunction
    wrap(cls, "evaluate", "benchmarks.evaluate")
    wrap(cls, "evaluate_batch", "benchmarks.evaluate_batch", points)
    wrap(cls, "sample_uniform", "benchmarks.sample_uniform")


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0])
    install(tracer)
    os.register_at_fork(after_in_child=tracer.forget)
    code = cli.main(argv[1:])
    tracer.write(import_s=IMPORT_S)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
