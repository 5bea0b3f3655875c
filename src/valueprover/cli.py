"""Command-line entry point.

Subcommands tie the pieces together: gen-corpus, pretrain, train, prove,
eval, ablate and oracle; pretrain, train and every ablate row train through
trainer.run_training. A command with a --seed writes byte-identical outputs
across runs. Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .corpus import generate_corpus, load_corpus, save_corpus, split_corpus
from .env import Hyperstate, Theorem, parse_obligation
from .oracle import shortest_proof
from .reports import build_summary, write_report
from .search import DEFAULT_BUDGET, EVAL_STRATEGIES, run_strategy
from .trainer import TrainerConfig, load_checkpoint, run_training, save_checkpoint

__all__ = ["main", "build_parser"]

# Top-n never ranks more than the six templates, so a width above
# len(TEMPLATES) repeats width 6.
WIDTH_SWEEP = (2, 3, 4, 5, 6)
GAMMA_SWEEP = (0.5, 0.7, 0.9, 0.99)

# Each sweep of ablate, as rows of (config change, ((label, strategy), ...)).
# A row trains one model and evaluates its strategies on the test split; each
# (label, strategy) gets a report in `<sweep>-<label>/` and a sweep.json row
# reading `<sweep>=<label>`, and a row of several strategies adds the union of
# what they proved.
_SWEEPS = {
    "width": tuple(({"width": width}, ((str(width), "astar"),)) for width in WIDTH_SWEEP),
    "gamma": tuple(({"gamma": gamma}, ((str(gamma), "astar"),)) for gamma in GAMMA_SWEEP),
    "scorer": (({}, (("value_model", "bestfirst"), ("probability_product", "bestfirst_prob"))),),
    "obligation-training": (
        ({"subproof_tasks": True}, (("on", "astar"),)),
        ({"subproof_tasks": False}, (("off", "astar"),)),
    ),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; runtime problems exit 2 (handled in main)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _gamma(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"gamma must lie in (0, 1), got {text}")
    return value


def _ratio(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"ratio must lie in [0, 1], got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _counts(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("counts must be three comma-separated integers")
    values = tuple(int(p) for p in parts)
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("counts must be nonnegative")
    return values


def _add_training_arguments(p: argparse.ArgumentParser, rl: bool) -> None:
    """The options _config_from_args reads; pretrain (rl False) has no --rl-epochs."""
    p.add_argument("--gamma", type=_gamma, default=TrainerConfig.gamma)
    p.add_argument("--width", type=int, default=TrainerConfig.width)
    p.add_argument("--seed", type=int, default=TrainerConfig.seed)
    p.add_argument("--test-ratio", type=_ratio, default=TrainerConfig.test_ratio)
    if rl:
        p.add_argument("--rl-epochs", type=int, default=TrainerConfig.rl_epochs)
    p.add_argument("--pretrain-epochs", type=int, default=TrainerConfig.pretrain_epochs)
    p.add_argument("--min-drop-length", type=int, default=TrainerConfig.min_drop_length)
    p.add_argument("--max-drop-length", type=int, default=TrainerConfig.max_drop_length)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="valueprover", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a theorem corpus with oracle proofs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counts", type=_counts, default=(12, 12, 12), help="per-family counts a,b,c")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_gen_corpus)

    for name in ("pretrain", "train"):
        p = sub.add_parser(name, help=f"{name} a value model from a corpus")
        p.add_argument("--corpus", required=True)
        p.add_argument("--out", required=True, help="checkpoint path; report written next to it")
        _add_training_arguments(p, rl=name == "train")
        p.add_argument("--no-subproof-tasks", action="store_true")
        p.set_defaults(run=cmd_train)

    p = sub.add_parser("prove", help="search for a proof of one theorem")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--theorem", required=True, help="canonical obligation text (binders + goal)")
    p.add_argument("--strategy", choices=EVAL_STRATEGIES, default="astar")
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET)
    p.add_argument("--width", type=_positive_int, default=None)
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("eval", help="run strategies over a corpus split and write a report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--strategies", default="astar,dfs", help=f"comma list from {EVAL_STRATEGIES}")
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("ablate", help="hyperparameter and design sweeps")
    p.add_argument("--sweep", choices=tuple(_SWEEPS), required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="sweep output directory")
    _add_training_arguments(p, rl=True)
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET)
    p.set_defaults(run=cmd_ablate)

    p = sub.add_parser("oracle", help="brute-force shortest proof of one obligation")
    p.add_argument("obligation", help="canonical obligation text")
    p.add_argument("--depth", type=_nonnegative_int, default=10)
    p.add_argument("--gamma", type=_gamma, default=0.9)
    p.set_defaults(run=cmd_oracle)

    return parser


# ---------------------------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    entries, summary = generate_corpus(args.seed, args.counts)
    save_corpus(entries, args.out)
    print(f"wrote {len(entries)} entries to {args.out} (discarded {summary.discarded})")
    return 0


def _config_from_args(args) -> TrainerConfig:
    """The config of pretrain, train or ablate; pretrain has no --rl-epochs
    and trains no RL epoch, and ablate has no --no-subproof-tasks and always
    trains on sub-proofs."""
    return TrainerConfig(
        gamma=args.gamma,
        width=args.width,
        seed=args.seed,
        test_ratio=args.test_ratio,
        rl_epochs=getattr(args, "rl_epochs", 0),
        pretrain_epochs=args.pretrain_epochs,
        min_drop_length=args.min_drop_length,
        max_drop_length=args.max_drop_length,
        subproof_tasks=not getattr(args, "no_subproof_tasks", False),
    )


def cmd_train(args) -> int:
    config = _config_from_args(args)
    model, predictor, report, _ = run_training(load_corpus(args.corpus), config)
    save_checkpoint(args.out, model, predictor, config)
    report_path = args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote checkpoint {args.out} and report {report_path}")
    return 0


def cmd_prove(args) -> int:
    model, predictor, config = load_checkpoint(args.checkpoint)
    statement = parse_obligation(args.theorem)
    theorem = Theorem("goal", statement)
    width = args.width if args.width is not None else config.width
    result = run_strategy(args.strategy, theorem, model, predictor, width, args.budget)
    print(json.dumps(result.to_record("goal", args.strategy), sort_keys=True))
    if result.proved:
        print(str(result.script))
    return 0


def run_eval(model, predictor, entries, strategies, width: int, budget: int):
    rows = []
    for strategy in strategies:
        for entry in entries:
            result = run_strategy(strategy, entry.theorem, model, predictor, width, budget)
            rows.append(result.to_record(entry.theorem.id, strategy, include_wall=False))
    return rows


def cmd_eval(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise RuntimeError(f"no strategy given; choose from {EVAL_STRATEGIES}")
    for strategy in strategies:
        if strategy not in EVAL_STRATEGIES:
            raise RuntimeError(f"unknown strategy {strategy!r}; choose from {EVAL_STRATEGIES}")
        if strategies.count(strategy) > 1:
            raise RuntimeError(f"strategy {strategy!r} is given more than once")
    model, predictor, config = load_checkpoint(args.checkpoint)
    entries = load_corpus(args.corpus)
    split = split_corpus(entries, config.seed, config.test_ratio)
    chosen = split.test if args.split == "test" else split.train
    rows = run_eval(model, predictor, chosen, strategies, config.width, args.budget)
    summary = write_report(args.out, rows, strategies)
    proved = {s: summary["strategies"][s]["proved"] for s in strategies}
    print(f"evaluated {len(chosen)} theorems; proved per strategy: {proved}")
    return 0


def cmd_ablate(args) -> int:
    base = _config_from_args(args)
    entries = load_corpus(args.corpus)
    # (label, strategy, rows) per setting; nothing is written until every
    # setting has trained, so a failing setting leaves no half sweep behind
    settings = []
    union_rows = []
    for change, labelled in _SWEEPS[args.sweep]:
        config = dataclasses.replace(base, **change)
        strategies = [strategy for _, strategy in labelled]
        try:
            model, predictor, _, split = run_training(entries, config)
        except Exception as err:
            raise RuntimeError(f"{args.sweep}={','.join(label for label, _ in labelled)}: {err}") from err
        rows = run_eval(model, predictor, split.test, strategies, config.width, args.budget)
        for label, strategy in labelled:
            settings.append((label, strategy, [r for r in rows if r["strategy"] == strategy]))
        if len(strategies) > 1:
            union = build_summary(rows, strategies)["union_proved"]
            union_rows.append({"setting": "union_of_proved", "proved": union})

    os.makedirs(args.out, exist_ok=True)
    sweep_rows = []
    for label, strategy, rows in settings:
        summary = write_report(os.path.join(args.out, f"{args.sweep}-{label}"), rows, [strategy])
        sweep_rows.append({"setting": f"{args.sweep}={label}", **summary["strategies"][strategy]})
    sweep_rows += union_rows
    with open(os.path.join(args.out, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump({"sweep": args.sweep, "settings": sweep_rows}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"{args.sweep} sweep: {len(sweep_rows)} rows written to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    obligation = parse_obligation(args.obligation)
    result = shortest_proof(Hyperstate((obligation,)), args.depth)
    record = {
        "provable": result.provable,
        "shortest_length": result.shortest_length,
        "shortest_script": str(result.shortest_script) if result.shortest_script else None,
        "depth_limited": result.depth_limited,
        "optimal_value": result.value(args.gamma),
    }
    print(json.dumps(record, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as err:  # noqa: BLE001 - surface as a runtime failure
        print(f"valueprover: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
