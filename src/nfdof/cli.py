"""Command-line entry point.

    nfdof run <config.json> [--out DIR] [--threads N]
    nfdof validate <config.json>
    nfdof version

Outputs go to --out, the working directory by default.  Exit codes:
0 success, 2 invalid config or arguments, 3 numerical failure or out of
memory, 4 I/O failure.  ``validate`` and ``version`` run without importing
numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (ActiveSetChangeError, ConfigError, ConvergenceError,
                     SingularGeometryError)
from .spec import validate_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

MAX_THREADS = 64  # each --threads worker is an operating-system thread


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} nests arrays or objects too deeply") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nfdof",
                                     description="Near-field MIMO DoF experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to the experiment JSON document")
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument("--threads", type=int, default=1,
                     help=f"worker threads for grid evaluation, 1 to {MAX_THREADS}"
                          " (output-invariant)")

    val = sub.add_parser("validate", help="validate a config without running it")
    val.add_argument("config", help="path to the experiment JSON document")

    sub.add_parser("version", help="print the toolkit version")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not 1 <= args.threads <= MAX_THREADS:
        parser.error(f"argument --threads: must lie in [1, {MAX_THREADS}], got {args.threads}")
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    numerical = (ConvergenceError, ActiveSetChangeError, SingularGeometryError, FloatingPointError)
    try:
        cfg = _load_config(args.config)
        if args.command == "validate":
            spec = validate_config(cfg)
            print(f"{args.config}: valid {spec.experiment} experiment")
            return EXIT_OK
        # numpy loads here, on the run path only
        from numpy.linalg import LinAlgError
        from .experiments import run_experiment
        numerical += (LinAlgError,)
        tables = run_experiment(cfg, out_dir=args.out, threads=args.threads)
        for table in tables:
            print(f"wrote {table.name}.csv ({len(table.rows)} rows)")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except numerical as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
