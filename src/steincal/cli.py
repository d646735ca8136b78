"""Command-line interface.

Subcommands:
  test        run one calibration test on a JSON-lines dataset, print JSON
  experiment  run a configured rejection-rate sweep, write a CSV
  gram        print the distribution-kernel Gram matrix of a model file

Exit codes: 0 success, 1 configuration or input validation error (NaN or
Infinity in a dataset, a score of the wrong shape, a file that cannot be
opened or decoded) or not enough memory, 2 runtime numerical failure (a
degenerate or out-of-range bandwidth, non-finite scores or distances).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from .harness import (
    ConfigError,
    DatasetFormatError,
    TestConfig,
    load_json_object,
    parse_experiment_config,
    parse_gram_config,
    parse_test_config,
    read_dataset,
    read_models,
    resolve_dist_kernel,
    run_experiment,
    run_test_on_dataset,
    write_csv,
)
from .kernels import DegenerateBandwidthError, UnsupportedKernelError
from .models import ScoreShapeError
from .sampling import CapabilityError, RandomStream


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="steincal", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_test = sub.add_parser("test", help="test one dataset file")
    p_test.add_argument("--config", required=True, help="test configuration JSON")
    p_test.add_argument("--data", default=None, help="dataset JSONL (default: stdin)")
    p_test.add_argument("--seed", type=int, default=None, help="override the seed")
    p_test.add_argument("--alpha", type=float, default=None, help="override the level")
    p_test.add_argument("--out", default=None, help="write the JSON result here")

    p_exp = sub.add_parser("experiment", help="run a rejection-rate sweep")
    p_exp.add_argument("--config", required=True, help="experiment configuration JSON")
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_exp.add_argument("--alpha", type=float, default=None, help="override the level")
    p_exp.add_argument("--threads", type=int, default=1, help="worker threads")

    p_gram = sub.add_parser("gram", help="Gram matrix of a model file")
    p_gram.add_argument("--config", required=True,
                        help='a dist_kernel object, bare or as {"dist_kernel": ...}')
    p_gram.add_argument("--data", default=None, help="models JSONL (default: stdin)")
    p_gram.add_argument("--seed", type=int, default=0, help="seed for base samples")
    p_gram.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    return parser


def _override(config: TestConfig, args) -> TestConfig:
    """Apply --seed and --alpha; ``replace`` re-runs the config's checks."""
    changes = {key: getattr(args, key) for key in ("seed", "alpha")
               if getattr(args, key) is not None}
    return dataclasses.replace(config, **changes)


def _read_data(reader, path: Optional[str]):
    """Call ``reader`` on the --data file, or on stdin when there is none; text that
    does not decode raises :class:`DatasetFormatError` naming the file."""
    where = "<stdin>" if path is None else path
    try:
        if path is None:
            return reader(sys.stdin, where=where)
        with open(path, "r", encoding="utf-8") as fh:
            return reader(fh, where=where)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{where}: not valid text ({exc})") from exc


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def _cmd_test(args) -> int:
    config = _override(parse_test_config(load_json_object(args.config)), args)
    data = _read_data(read_dataset, args.data)
    if len(data) < 2:
        raise ConfigError("dataset: the test needs at least two pairs")
    result = run_test_on_dataset(data, config)
    _emit(json.dumps(result.to_json_dict()) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_experiment_config(load_json_object(args.config))
    cfg = dataclasses.replace(cfg, test=_override(cfg.test, args))
    rows = run_experiment(cfg, threads=args.threads)
    write_csv(rows, args.out)
    return 0


def _cmd_gram(args) -> int:
    spec = parse_gram_config(load_json_object(args.config))
    models = _read_data(read_models, args.data)
    stream = RandomStream(args.seed)
    kernel = resolve_dist_kernel(spec, models, stream.derive("bandwidth"))
    matrix = kernel.gram(models, stream.derive("base"))
    _emit("".join(",".join(format(v, ".17g") for v in row) + "\n" for row in matrix), args.out)
    return 0


def cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"steincal: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits with 0 through argparse
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_gram(args)
    except (ConfigError, DatasetFormatError, CapabilityError,
            UnsupportedKernelError, ScoreShapeError, OSError) as exc:
        print(f"steincal: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"steincal: error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except (DegenerateBandwidthError, FloatingPointError, ArithmeticError) as exc:
        print(f"steincal: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
