"""Command-line surface: run, summarize, eca-render.

Exit codes: 0 ok, 1 configuration problem (including usage errors),
2 numeric divergence, 3 record-file I/O. Seed precedence for runs is
--seed, then the config file, then the CN_SEED environment variable.
"""
from __future__ import annotations

import argparse
import glob
import os
import sys
from typing import Sequence

from . import eca
from .config import RunConfig, load_config
from .errors import (
    CnError,
    ConfigurationError,
    RecordIoError,
    EXIT_IO,
    EXIT_OK,
)
from .harness import execute
from .records import summarize, summary_csv
from .rng import check_seed


class _UsageError(ConfigurationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; that code is
    reserved for numeric divergence here, so usage errors are re-raised
    and mapped to the configuration exit code instead."""

    def error(self, message):
        raise _UsageError(f"usage error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cnets", description="Run and inspect computing-network experiments.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_cmd = commands.add_parser("run", help="execute one config")
    run_cmd.add_argument("config", help="path to a JSON run config")
    run_cmd.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    run_cmd.add_argument("--out", default=None, help="overrides the config output path")

    sum_cmd = commands.add_parser("summarize", help="tabulate record files as CSV")
    sum_cmd.add_argument("patterns", nargs="+", help="record file paths or globs")
    sum_cmd.add_argument("--out", default=None, help="write the CSV here instead of stdout")

    render_cmd = commands.add_parser("eca-render", help="render a cellular-automaton config")
    render_cmd.add_argument("config", help="path to a JSON run config (eca architecture)")
    render_cmd.add_argument("--format", choices=("text", "pbm"), default="text")
    render_cmd.add_argument("--out", default=None, help="write the grid here instead of stdout")
    return parser


def _resolve_seed(config: RunConfig, cli_seed: int | None) -> int | None:
    """The run's seed, checked here so that an error names where it came from."""
    if cli_seed is not None:
        return check_seed(cli_seed, key="--seed")
    if config.seed is not None:
        return config.seed
    env = os.environ.get("CN_SEED")
    if env is not None:
        try:
            return check_seed(int(env), key="CN_SEED")
        except ValueError:
            raise ConfigurationError(f"CN_SEED must be an integer, got {env!r}") from None
    return None


def _cmd_run(args) -> int:
    config = load_config(args.config)
    config.seed = _resolve_seed(config, args.seed)
    if args.out is not None:
        config.out = args.out
    if config.out is None:
        raise ConfigurationError("no output path: set config.out or pass --out")
    result = execute(config)
    final = result.records[-1] if result.records else None
    best = "" if final is None or final.best_value is None else f" best={final.best_value:.6g}"
    print(f"{result.out_path}: {len(result.records)} records{best}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    paths: set[str] = set()
    for pattern in args.patterns:
        matches = glob.glob(pattern)
        if not matches and os.path.exists(pattern):
            matches = [pattern]
        paths.update(matches)
    if not paths:
        raise ConfigurationError(f"no record files match {args.patterns}")
    csv_text = summary_csv(summarize(sorted(paths)))
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        try:
            with open(args.out, "w") as handle:
                handle.write(csv_text)
        except OSError as exc:
            raise RecordIoError(f"cannot write summary {args.out}: {exc}") from None
    return EXIT_OK


def _cmd_render(args) -> int:
    config = load_config(args.config)
    if config.architecture != "eca":
        raise ConfigurationError(
            f"eca-render needs an eca config, got {config.architecture!r}"
        )
    # rendering is read-only, so an unseeded synchronous config defaults to 0
    config.seed = _resolve_seed(config, None)
    if config.seed is None:
        config.seed = 0
    saved_out = config.out
    config.out = None
    result = execute(config)
    grid = [[int(v) for v in record.network_output] for record in result.records]
    text = eca.grid_to_text(grid) if args.format == "text" else eca.grid_to_pbm(grid)
    target = args.out if args.out is not None else saved_out
    if target is None:
        sys.stdout.write(text)
    else:
        try:
            with open(target, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise RecordIoError(f"cannot write rendering {target}: {exc}") from None
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        return _cmd_render(args)
    except CnError as exc:
        where = f" at (slow, fast)={exc.step_position}" if exc.step_position else ""
        print(f"{exc.category} error: {exc}{where}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
