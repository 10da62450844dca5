"""Command-line harness: run campaigns, export surfaces, dump the catalog.

Setting precedence is CLI flag > config file (key=value lines, '#' starts
a comment) > built-in default. Exit status is 0 on success and 1 on
configuration or I/O errors; argparse rejects a malformed command line
with status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import benchmarks, harness, stackgp
from .harness import Campaign
from .surrogate import evolve

# Every setting of `run` and `surface`, in flag order, declared once:
# (key, type, help, EvolutionConfig field or None, default per command).
# A command takes the settings it lists a default for; the flag is the key
# with '-' for '_', and a config file may use either spelling.
_SETTINGS = (
    ("function", str, "benchmark name; run also takes 'all'", None,
     {"run": "all", "surface": "rastrigin"}),
    ("dim", str, "2, 3, 4 or 'all'", None, {"run": "2"}),
    ("runs", int, None, None, {"run": 30}),
    ("seed", int, None, None, {"run": 0, "surface": 0}),
    ("resolution", int, None, None, {"surface": 64}),
    ("generations", int, None, "generations", {"run": None, "surface": None}),
    ("pop", int, None, "population_size", {"run": None, "surface": None}),
    ("pso_iters", int, None, "pso_iterations", {"run": None, "surface": None}),
    ("rmse_samples", int, None, "rmse_samples", {"run": None, "surface": None}),
    ("out", str, "output directory (run) or CSV file (surface)", None,
     {"run": "results", "surface": "surface.csv"}),
    ("workers", int, None, None, {"run": 1}),
    ("program", str, "postfix program text to export instead of evolving one",
     None, {"surface": None}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothgp",
        description="Evolve smooth surrogate models of rugged benchmark functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": sub.add_parser("run", help="execute a seeded multi-run campaign"),
        "surface": sub.add_parser(
            "surface", help="export a 2-D grid of target vs surrogate values"),
    }
    for key, kind, text, _, defaults in _SETTINGS:
        for command in defaults:
            commands[command].add_argument(
                "--" + key.replace("_", "-"), type=kind, dest=key, help=text)
    for command in commands.values():
        command.add_argument("--config", help="key=value settings file")

    catalog = sub.add_parser("catalog", help="dump the benchmark catalog CSV")
    catalog.add_argument("--out", help="output CSV file (stdout if omitted)")
    return parser


def _load_config_file(path: str) -> dict:
    settings = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings[key.replace("-", "_")] = value
    return settings


def _resolve(args: argparse.Namespace) -> dict:
    """Each setting of the command: CLI flag, else config file, else default."""
    own = {key: (kind, defaults[args.command])
           for key, kind, _, _, defaults in _SETTINGS if args.command in defaults}
    from_file = _load_config_file(args.config) if args.config else {}
    unknown = set(from_file) - set(own)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (kind, default) in own.items():
        value = getattr(args, key)
        if value is None and key in from_file:
            value = kind(from_file[key])
        resolved[key] = default if value is None else value
    return resolved


def _overrides(settings: dict) -> dict:
    return {field: settings[key] for key, _, _, field, _ in _SETTINGS
            if field is not None and settings.get(key) is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    function = settings["function"].strip().lower()
    names = benchmarks.names() if function == "all" else [function]
    dim_text = settings["dim"].strip().lower()
    dims = benchmarks.CATALOG_DIMENSIONS if dim_text == "all" else (int(dim_text),)
    campaign = Campaign(
        functions=tuple(names),
        dimensions=dims,
        runs=settings["runs"],
        base_seed=settings["seed"],
        overrides=_overrides(settings),
        output_dir=settings["out"],
        workers=settings["workers"],
    )
    for (name, dim), pair in harness.run_campaign(campaign).items():
        print(f"{name} D={dim}: median f(argmin) = {pair.median_fitness:.6g} "
              f"over {len(pair.rows)} runs")
    print(f"results written to {settings['out']}")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    fn = benchmarks.get(settings["function"], 2)
    if settings["program"]:
        program = stackgp.parse(settings["program"], 2)
    else:
        config = harness.config_for(
            dimension=2, seed=settings["seed"], overrides=_overrides(settings))
        program = evolve(fn, config).best.program
        print(f"evolved surrogate: {stackgp.render(program)}", file=sys.stderr)
    path = harness.export_surface_grid(
        fn, program, settings["resolution"], settings["out"])
    print(f"surface grid written to {path}", file=sys.stderr)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    text = harness.dump_catalog(args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"catalog written to {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {"run": _cmd_run, "surface": _cmd_surface, "catalog": _cmd_catalog}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
