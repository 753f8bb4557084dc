"""Command-line entry point: ``pe3d <experiment> --config <path>``."""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, parse_config
from .errors import InputError
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe3d",
        description="Primitive-equations simulator and property harness.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base RNG seed")
        p.add_argument("--output", default=None,
                       help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as e:
        print(f"ERROR: cannot read config {args.config}: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"ERROR: invalid config {args.config}: {e}", file=sys.stderr)
        return 3
    if cfg.experiment != args.experiment:
        print(f"ERROR: config declares experiment={cfg.experiment!r}, "
              f"command line says {args.experiment!r}", file=sys.stderr)
        return 3
    return run_experiment(cfg, seed=args.seed, output=args.output)


if __name__ == "__main__":
    sys.exit(main())
