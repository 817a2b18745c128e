"""Command line entry point: config-driven benchmark runs with CSV output.

Subcommands: run, convergence, sweep-alpha, compare.  Each reads a JSON
config, executes the corresponding driver and writes results.csv (plus
auxiliary plot/snapshot files) into the output directory.

Exit codes: 0 on success, 2 on config errors (found before the first
run, an output path that cannot be a directory among them), 3 on solver
failures in non-sweep runs.
"""

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import cmd_compare, cmd_convergence, cmd_run, cmd_sweep_alpha
from .linsolve import SolverFailure

_COMMANDS = {
    "run": cmd_run,
    "convergence": cmd_convergence,
    "sweep-alpha": cmd_sweep_alpha,
    "compare": cmd_compare,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="biotbench",
        description="Poroelasticity time-stepping benchmarks on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
        if name == "sweep-alpha":
            cmd.add_argument("--workers", type=int, default=None,
                             help="parallel worker count for sweep points")
    return parser


def _check_output_dir(path, source):
    """A config error unless the nearest existing component of ``path`` is a
    directory; creates nothing, so a failed run leaves no directory behind."""
    existing = Path(path).absolute()
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(source, f"{existing} exists and is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out is not None:
            config.output_dir = args.out
        workers = getattr(args, "workers", None)
        if workers is not None:
            if workers < 1:
                raise ConfigError("--workers", "expected a positive integer")
            config.workers = workers
        _check_output_dir(config.output_dir,
                          "config.output_dir" if args.out is None else "--out")
        table, aux = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"results.csv": table.to_csv(), **aux}
    if table.summary:
        files["summary.txt"] = "\n".join(table.summary) + "\n"
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    for line in table.summary:
        print(line)
    print(f"wrote {out_dir / 'results.csv'} ({len(table.rows)} row(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
