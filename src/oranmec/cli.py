"""Command-line entry point: run experiments, the stationary oracle, and
run comparisons.  The ORANMEC_LOG environment variable sets the log level."""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .env import ORACLE_LIMIT
from .harness import (
    ConfigError,
    compare_runs,
    format_comparison,
    load_experiment_config,
    run_experiment,
    run_oracle,
)


def _setup_logging() -> None:
    level = os.environ.get("ORANMEC_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oranmec",
        description="O-RAN/MEC orchestration simulator and RL agent harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train an agent per the experiment config")
    run.add_argument("--config", required=True)
    run.add_argument("--mode", choices=["bayes", "egreedy"])
    run.add_argument("--seed", type=int, help="replace the config's seed list")
    run.add_argument("--episodes", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--pretrained", help="checkpoint to initialize from")

    oracle = sub.add_parser("oracle", help="exhaustive stationary-policy search")
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--limit", type=int, default=ORACLE_LIMIT)

    compare = sub.add_parser("compare", help="summarize episode metric files")
    compare.add_argument("files", nargs="+")
    return parser


def _replaced(obj, **changes):
    """``obj`` with the non-None ``changes``, checked again by its class."""
    return dataclasses.replace(obj, **{k: v for k, v in changes.items() if v is not None})


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_experiment_config(args.config)
            cfg = _replaced(
                cfg,
                agent=_replaced(cfg.agent, mode=args.mode, pretrained_checkpoint=args.pretrained),
                seeds=None if args.seed is None else [args.seed],
                episodes=args.episodes,
                out_dir=Path(args.out) if args.out else None,
            )
            for path in run_experiment(cfg):
                print(path)
            return 0
        if args.command == "oracle":
            cfg = load_experiment_config(args.config)
            result = run_oracle(cfg, limit=args.limit)
            print(f"actions evaluated: {result.n_evaluated}")
            print(f"best mean reward:  {result.mean_reward:.6f}")
            print(f"best action:       {result.action}")
            return 0
        if args.command == "compare":
            print(format_comparison(compare_runs(args.files)))
            return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
