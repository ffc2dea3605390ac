"""Command-line entry point: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import pipeline
from .config import load_config
from .errors import TermforgeError


def _evaluate(cfg, force) -> None:
    score = pipeline.run_evaluate(cfg)
    sys.stdout.write(
        f"BLEU {score.bleu:.2f}  chrF3 {score.chrf3:.2f}  "
        f"METEOR {score.meteor:.2f}  ({score.segment_count} segments)\n"
    )


# subcommand -> (help text, run(cfg, force)); return values are not used
COMMANDS = {
    "prepare": ("generate/normalize the configured corpora and fixtures",
                lambda cfg, force: pipeline.run_prepare(cfg)),
    "stats": ("corpus statistics and vocabulary overlap reports",
              lambda cfg, force: sys.stdout.write(pipeline.run_stats(cfg))),
    "train-smt": ("word alignment, phrase table, and language model",
                  lambda cfg, force: pipeline.run_train_smt(cfg, force=force)),
    "train-nmt": ("neural encoder-decoder training",
                  lambda cfg, force: pipeline.run_train_nmt(cfg, force=force)),
    "tune": ("MERT weight tuning on the development set",
             lambda cfg, force: pipeline.run_tune(cfg)),
    "adapt": ("domain adaptation: re-tune SMT weights, fine-tune NMT",
              lambda cfg, force: pipeline.run_adapt(cfg)),
    "inject": ("rank external terminology and annotate the eval source",
               lambda cfg, force: pipeline.run_inject(cfg)),
    "translate": ("decode an input file with the chosen system",
                  lambda cfg, force: pipeline.run_translate(cfg)),
    "evaluate": ("score hypotheses with BLEU/chrF3/METEOR", _evaluate),
    "report": ("assemble the matrix report from collected results",
               lambda cfg, force: sys.stdout.write(pipeline.run_report(cfg))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termforge",
        description="Terminology-aware machine translation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="pipeline config file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument(
            "--force", action="store_true",
            help="allow overwriting an existing model directory",
        )
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("TERMFORGE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        cfg = load_config(args.config, overrides)
        _, run = COMMANDS[args.command]
        run(cfg, args.force)
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        sys.stderr.write(f"termforge {args.command}: {where}{exc.strerror or exc}\n")
        return 1
    except TermforgeError as exc:
        sys.stderr.write(f"termforge {args.command}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
