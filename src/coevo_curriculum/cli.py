"""Command-line entry points: run, eval, ablate."""

from __future__ import annotations

import argparse
import sys

from .config import ABLATION_AXES, ConfigError, MODES, apply_overrides, load_config
from .harness import evaluate_snapshot, run_ablation, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevo-curriculum",
        description="Co-evolutionary task curricula for sparse-reward cooperative grid worlds.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the experiment config JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--mode", choices=MODES, default=None, help="override the run mode")
    run_p.add_argument("--epochs", type=int, default=None, help="override the epoch count")
    run_p.add_argument("--output-dir", default=None, help="override the output directory")
    run_p.add_argument("--resume", default=None, help="resume from a snapshot file")

    eval_p = sub.add_parser("eval", help="greedy target evaluation of a stored snapshot")
    eval_p.add_argument("--snapshot", required=True, help="path to a snapshot .jsonl")

    ablate_p = sub.add_parser("ablate", help="matched-seed comparison along one axis")
    ablate_p.add_argument("--config", required=True, help="path to the experiment config JSON")
    ablate_p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    ablate_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    ablate_p.add_argument("--output-dir", default=None, help="override the output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = apply_overrides(load_config(args.config), seed=args.seed, mode=args.mode,
                                     output_dir=args.output_dir, resume_from=args.resume,
                                     epochs=args.epochs)
            result = run_experiment(config)
            print(f"mode={config.mode} seed={config.master_seed} "
                  f"epochs={config.epochs} final_target_success={result.final_target_success}")
            print(f"metrics: {result.metrics_path}")
            print(f"snapshot: {result.snapshot_path}")
        elif args.command == "eval":
            rate = evaluate_snapshot(args.snapshot)
            print(f"target_success={rate}")
        else:
            config = apply_overrides(load_config(args.config), seed=args.seed,
                                     output_dir=args.output_dir)
            report = run_ablation(config, args.axis)
            for name, rate in report.final_rates().items():
                print(f"{args.axis}/{name}: final_target_success={rate}")
            print(f"report: {report.report_path}")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
