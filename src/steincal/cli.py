"""Command-line interface.

Subcommands:
  test        run one calibration test on a JSON-lines dataset, print JSON
  experiment  run a configured rejection-rate sweep, write a CSV
  gram        print the distribution-kernel Gram matrix of a model file

Exit codes: 0 success, 1 configuration or input validation error (NaN or
Infinity in a dataset, a score of the wrong shape), 2 runtime numerical
failure (a degenerate bandwidth, non-finite scores or distances).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .harness import (
    ConfigError,
    DatasetFormatError,
    load_experiment_config,
    parse_dist_kernel,
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
    p_gram.add_argument("--config", required=True, help="JSON with a dist_kernel spec")
    p_gram.add_argument("--data", default=None, help="models JSONL (default: stdin)")
    p_gram.add_argument("--seed", type=int, default=0, help="seed for base samples")
    p_gram.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    return parser


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return obj


def _open_data(path: Optional[str]):
    if path is None:
        return sys.stdin
    return open(path, "r", encoding="utf-8")


def _cmd_test(args) -> int:
    import dataclasses

    config = parse_test_config(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.alpha is not None:
        if not 0.0 < args.alpha < 1.0:
            raise ConfigError("alpha: must lie in (0, 1)")
        config = dataclasses.replace(config, alpha=args.alpha)
    fh = _open_data(args.data)
    try:
        pairs = read_dataset(fh, where=args.data or "<stdin>")
    finally:
        if fh is not sys.stdin:
            fh.close()
    if len(pairs) < 2:
        raise ConfigError("dataset: the test needs at least two pairs")
    result = run_test_on_dataset(pairs, config)
    text = json.dumps(result.to_json_dict())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_experiment(args) -> int:
    import dataclasses

    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    if args.alpha is not None:
        if not 0.0 < args.alpha < 1.0:
            raise ConfigError("alpha: must lie in (0, 1)")
        cfg = dataclasses.replace(cfg, alpha=args.alpha)
    rows = run_experiment(cfg, threads=args.threads)
    write_csv(rows, args.out)
    return 0


def _cmd_gram(args) -> int:
    obj = _load_json(args.config)
    spec = parse_dist_kernel(obj.get("dist_kernel", obj))
    fh = _open_data(args.data)
    try:
        models = read_models(fh, where=args.data or "<stdin>")
    finally:
        if fh is not sys.stdin:
            fh.close()
    if not models:
        raise ConfigError("models: the file contains no models")
    stream = RandomStream(args.seed)
    kernel = resolve_dist_kernel(spec, models, models[0].dim, stream.derive("bandwidth"))
    matrix = kernel.gram(models, stream.derive("base"))
    lines = [",".join(format(v, ".17g") for v in row) for row in matrix]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
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
            UnsupportedKernelError, ScoreShapeError, FileNotFoundError) as exc:
        print(f"steincal: error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateBandwidthError, FloatingPointError, ArithmeticError) as exc:
        print(f"steincal: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
