"""Command-line entry point.

Usage: trajbound <experiment> --config <path> [--out <dir>]
       [--seeds s1,s2,...] [--plots]

Exit codes: 0 success; 2 configuration, input-schema or any other package
error; 3 numeric divergence or a quantity outside its numeric domain,
outside a sweep (sweeps record diverged cells as rows instead); 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import _KEYS, EXPERIMENTS, parse_config, validate_config
from .errors import (
    ConfigError,
    DivergedError,
    NumericDomainError,
    TrajboundError,
)
from .experiments import COMMANDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajbound",
        description="train small models and evaluate trajectory-based "
                    "generalization bounds",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seeds", help="comma-separated seeds (overrides config)")
        p.add_argument("--plots", action="store_true", help="also write SVG plots")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        if args.seeds is not None:
            cfg = replace(cfg, seeds=_KEYS["seeds"].parse("--seeds", args.seeds))
        # the overrides bypass parse_config's checks, so validate again
        cfg = validate_config(cfg)
    except ConfigError as exc:
        print(f"trajbound: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"trajbound: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    if cfg.experiment != args.experiment:
        print(
            f"trajbound: config is for experiment {cfg.experiment!r}, "
            f"but {args.experiment!r} was requested",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    command = COMMANDS[args.experiment]
    try:
        result = command(cfg, plots=args.plots)
    except DivergedError as exc:
        print(f"trajbound: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except NumericDomainError as exc:
        print(f"trajbound: numeric error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except TrajboundError as exc:
        print(f"trajbound: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"trajbound: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in result.get("paths", []):
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
