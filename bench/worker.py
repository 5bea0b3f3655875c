"""One benchmark child: set up a workload and run one pass of it.

`run.py` starts this script once per pass, one at a time, so every pass
pays cold process-global caches exactly as every CLI call does. It prints
one JSON object as its last line of output.

    python3 bench/worker.py --workload search --seed 3 --mode pass --workdir bench/.work

Modes: `pass` sets the workload up and runs it once; `traced` does the same
with the per-layer tracer installed before set-up.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time includes the imports

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import string
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
if not (SRC_DIR / "valueprover").is_dir():
    sys.exit(f"worker.py: no package source at {SRC_DIR}; run from a full checkout")
sys.path.insert(0, str(SRC_DIR))

from valueprover import cli, corpus, env, oracle, predictor, trainer  # noqa: E402
from valueprover.search import DEFAULT_BUDGET  # noqa: E402

WORKLOADS = ("train", "train-actors2", "search", "oracle")

# The training baseline: 50 corpus entries, 92 tasks, 520 episodes, 2080 updates.
BASELINE_COUNTS = (26, 14, 10)
BASELINE_CONFIG = {"seed": 0, "min_drop_length": 0, "max_drop_length": 9}
BASELINE_EXPECTED = {"tasks": 92, "episodes": 520, "updates": 2080}

# The search/oracle statement set: the distinct statements of the baseline
# corpus, each statement with binders alpha-renamed COPIES times to fresh
# names drawn from the workload seed (so every copy misses every cache), plus
# a fixed unprovable share.
COPIES = 12
ORACLE_COUNTS = (240, 120, 120)
ORACLE_DEPTH = 10
UNPROVABLE = (
    # Commutativity needs a lemma the tactics cannot state. Under these binder
    # names greedy value search grows the goal every step and raises
    # RecursionError before its budget of 512 runs out: a known defect that
    # is counted as a failed operation, not filtered out.
    "forall n1 m1, |- Plus(Var(n1),Var(m1)) = Plus(Var(m1),Var(n1))",
    "forall p, |- Plus(Var(p),Zero) = Zero",
    "forall p, |- Succ(Var(p)) = Var(p)",
    "|- Plus(Succ(Zero),Zero) = Zero",
)

# Hand-checked ground truth for the oracle.
REFERENCE_PROOF = ("forall n, |- Plus(Var(n),Zero) = Var(n)", 7)
COMMUTATIVITY = "forall n m, |- Plus(Var(n),Var(m)) = Plus(Var(m),Var(n))"


# The reference loop: a fixed piece of pure-Python work, about 5 ms on a
# 2-core x86_64 VM, timed between the operations of a pass at most every
# REFERENCE_EVERY_S. Its time measures how fast the shared machine runs at
# that moment; the run divides pass times by its mean.
REFERENCE_ITERATIONS = 60_000
REFERENCE_EVERY_S = 0.2


class CheckFailed(Exception):
    """A benchmark correctness check failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Statement:
    theorem: env.Theorem
    expected_length: int | None  # oracle length, None when unprovable


@dataclass
class Context:
    split: corpus.CorpusSplit
    predictor: predictor.Predictor
    config: trainer.TrainerConfig
    corpus_entries: list
    statements: list[Statement] = field(default_factory=list)
    pretrained: object = None  # the value model before the checkpoint round trip
    model: object = None  # the value model loaded back from the checkpoint
    discarded: int = 0


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


class Stopwatch:
    """Times one pass and its operations, and the machine's speed during them.

    Between operations it times the reference loop: at the start and end of
    the pass and at most every REFERENCE_EVERY_S in between. That time is
    left out of the pass time. Episodes of two actors overlap, so with
    `between_ops=False` only the start and end are sampled.
    """

    def __init__(self, between_ops: bool = True) -> None:
        self.between_ops = between_ops
        self.references: list[float] = []
        self.ops_ms: list[float] = []
        self.failed_ms: list[float] = []  # operations that raised
        self.seconds = 0.0
        self._sampled_at = -math.inf
        self._excluded = 0.0

    def _sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or (self.between_ops and now - self._sampled_at >= REFERENCE_EVERY_S):
            self.references.append(reference_s())
            self._sampled_at = time.perf_counter()
            self._excluded += self._sampled_at - now

    def start(self) -> None:
        self._sample(force=True)
        self._excluded = 0.0
        self._started = time.perf_counter()

    def stop(self) -> None:
        ended = time.perf_counter()
        self.seconds = ended - self._started - self._excluded
        self._sample(force=True)

    def time_op(self, op, *args):
        """Run `op(*args)` as one timed operation."""
        self._sample()
        began = time.perf_counter()
        try:
            result = op(*args)
        except BaseException:
            self.ops_ms.append((time.perf_counter() - began) * 1000.0)
            self.failed_ms.append(self.ops_ms[-1])
            raise
        self.ops_ms.append((time.perf_counter() - began) * 1000.0)
        return result



@dataclass
class PassResult:
    watch: Stopwatch
    attempted: int
    failed: int
    success: float
    counts: dict  # deterministic in single-threaded workloads
    info: dict = field(default_factory=dict)  # reported, never compared
    layers: dict = field(default_factory=dict)  # workload-level per-layer values
    model: object = None  # the trained model, whose snapshots are not counted


def training_pairs(entries) -> list:
    """(obligation, tactic) pairs along every corpus proof."""
    return [
        (before.first, tactic)
        for entry in entries
        for before, tactic, _ in env.replay_script(entry.theorem, entry.proof)
    ]


def rename_binders(ob: env.Obligation, names: list[str]) -> env.Obligation:
    """The statement with its binders renamed, through the canonical text."""
    mapping = dict(zip(ob.binders, names))
    body = env.format_obligation(ob).split(", ", 1)[1]
    body = re.sub(r"Var\(([^()]+)\)", lambda m: f"Var({mapping[m.group(1)]})", body)
    return env.parse_obligation(f"forall {' '.join(names)}, {body}")


def statement_set(seed: int, entries: list) -> list[Statement]:
    rng = random.Random(seed)
    taken: set[str] = set()

    def fresh_name() -> str:
        while True:
            name = rng.choice(string.ascii_lowercase) + str(rng.randrange(1000))
            if name not in taken:
                taken.add(name)
                return name

    sources: dict[str, corpus.CorpusEntry] = {}
    for entry in entries:
        sources.setdefault(env.format_obligation(entry.theorem.statement), entry)
    out = []
    for index, entry in enumerate(sources.values()):
        ob = entry.theorem.statement
        if not ob.binders:
            out.append(Statement(env.Theorem(f"s{index}", ob), entry.proof_length))
            continue
        for copy in range(COPIES):
            renamed = rename_binders(ob, [fresh_name() for _ in ob.binders])
            out.append(Statement(env.Theorem(f"s{index}-r{copy}", renamed), entry.proof_length))
    for index, text in enumerate(UNPROVABLE):
        out.append(Statement(env.Theorem(f"unprovable{index}", env.parse_obligation(text)), None))
    return out


def setup(workload: str, seed: int, checkpoint: Path) -> Context:
    config = trainer.TrainerConfig(
        **BASELINE_CONFIG,
        actor_count=2 if workload == "train-actors2" else 1,
        rl_epochs=0 if workload == "search" else 1,
    )
    entries, summary = corpus.generate_corpus(config.seed, BASELINE_COUNTS)
    split = corpus.split_corpus(entries, config.seed, config.test_ratio)
    fitted = predictor.train_predictor(
        training_pairs(split.train),
        epochs=config.predictor_epochs,
        learning_rate=config.predictor_learning_rate,
        seed=config.seed,
    )
    ctx = Context(split, fitted, config, entries, discarded=summary.discarded)
    if workload == "search":
        ctx.pretrained, _ = trainer.train(split, fitted, config)
        try:
            trainer.save_checkpoint(str(checkpoint), ctx.pretrained, fitted, config)
            ctx.model, ctx.predictor, ctx.config = trainer.load_checkpoint(str(checkpoint))
        finally:
            checkpoint.unlink(missing_ok=True)
    if workload in ("search", "oracle"):
        ctx.statements = statement_set(seed, entries)
    return ctx


_APPLY_TACTIC_LRU = env.apply_tactic  # captured before the tracer wraps it


def _cache_counts() -> dict:
    info = _APPLY_TACTIC_LRU.cache_info()
    return {"apply_tactic.hits": info.hits, "apply_tactic.misses": info.misses}


# ---------------------------------------------------------------------------
# Passes


def train_pass(ctx: Context, inject: str | None, end_of_pass) -> PassResult:
    config = ctx.config
    watch = Stopwatch(between_ops=config.actor_count == 1)
    run_episode = trainer.run_episode  # the traced wrapper, when tracing

    def timed_episode(*args):
        return watch.time_op(run_episode, *args)

    watch.start()
    if config.actor_count > 1:
        model, report = trainer.distributed_run(ctx.split, ctx.predictor, config, episode_runner=timed_episode)
    else:
        trainer.run_episode = timed_episode
        try:
            model, report = trainer.train(ctx.split, ctx.predictor, config)
        finally:
            trainer.run_episode = run_episode
    watch.stop()
    end_of_pass()

    check(len(watch.ops_ms) == report.episodes, "episode timings do not match the episode count")
    if config.actor_count > 1:
        # Thread interleaving orders the episodes: compare passes rank by rank.
        watch.ops_ms.sort()
    if inject == "count":
        report.episodes += 1
    tasks = trainer.prepare_tasks(ctx.split, ctx.predictor, config.width, config)
    derived = {
        "tasks": len(tasks),
        "episodes": config.rl_epochs * config.episodes_per_prefix * sum(t.demo_length for t in tasks),
    }
    derived["updates"] = derived["episodes"] * config.updates_per_episode
    reported = {"tasks": report.task_count, "episodes": report.episodes, "updates": report.updates}
    check(reported == derived, f"report counts {reported} differ from the config-derived {derived}")
    check(reported == BASELINE_EXPECTED, f"report counts {reported} differ from the baseline {BASELINE_EXPECTED}")

    failures = report.buffer_sizes.pop("actor_failures", [])
    buffers = dict(report.buffer_sizes)
    counts = dict(reported)
    info = {"buffers": buffers, "validation_success": report.validation_success, "actor_failures": failures}
    if config.actor_count == 1:
        counts.update(buffers)
        counts["validation_success"] = report.validation_success
        counts["update_loss_sum"] = repr(sum(report.update_losses))
        counts.update(_cache_counts())
    layers = {
        "trainer.episodes": report.episodes,
        "trainer.updates": report.updates,
        "trainer.tasks": report.task_count,
        "value_model.encoding_cache.size": len(model._encoding_cache),
        **{f"trainer.buffer.{name}": size for name, size in buffers.items()},
    }
    return PassResult(
        watch,
        attempted=report.episodes + config.actor_count,
        failed=len(failures),
        success=report.validation_success[-1],
        counts=counts,
        info=info,
        layers=layers,
        model=model,
    )


def search_pass(ctx: Context, inject: str | None, end_of_pass) -> PassResult:
    watch = Stopwatch()
    proofs: list[tuple[env.Theorem, env.ProofScript]] = []
    per_strategy: dict[str, dict] = {}
    watch.start()
    for strategy in cli.EVAL_STRATEGIES:
        row = per_strategy[strategy] = {
            "calls": 0, "s": 0.0, "nodes_expanded": 0, "tactic_executions": 0, "proved": 0, "failed": {}
        }
        for statement in ctx.statements:
            try:
                result = watch.time_op(
                    cli.run_strategy,
                    strategy, statement.theorem, ctx.model, ctx.predictor, ctx.config.width, DEFAULT_BUDGET,
                )
            except Exception as err:  # noqa: BLE001 - a failed operation, counted by type
                result = None
                name = type(err).__name__
                row["failed"][name] = row["failed"].get(name, 0) + 1
            row["calls"] += 1
            row["s"] += watch.ops_ms[-1] / 1000.0
            if result is None:
                continue
            row["nodes_expanded"] += result.nodes_expanded
            row["tactic_executions"] += result.tactic_executions
            if result.proved:
                row["proved"] += 1
                proofs.append((statement.theorem, result.script))
    watch.stop()
    end_of_pass()
    cache_counts = _cache_counts()

    if inject == "proof" and proofs:
        thm, script = proofs[0]
        proofs[0] = (thm, env.ProofScript(script.steps[:-1]))
    for thm, script in proofs:
        check(env.script_is_valid(thm, script), f"search proof of {thm.id} does not replay: {script}")
    samples = [s.theorem.statement for s in ctx.statements[:: max(1, len(ctx.statements) // 24)]]
    for ob in samples:
        before, after = ctx.pretrained.v_value(ob), ctx.model.v_value(ob)
        check(before == after, f"v_value changed across the checkpoint round trip: {before} != {after}")

    failed = sum(sum(row["failed"].values()) for row in per_strategy.values())
    layers = {"value_model.encoding_cache.size": len(ctx.model._encoding_cache)}
    for strategy, row in per_strategy.items():
        for quantity in ("calls", "s", "nodes_expanded", "tactic_executions"):
            layers[f"search.{strategy}.{quantity}"] = row[quantity]
        layers[f"search.{strategy}.failed"] = sum(row["failed"].values())
    counts = {s: {k: v for k, v in row.items() if k != "s"} for s, row in per_strategy.items()}
    counts["statements"] = len(ctx.statements)
    counts.update(cache_counts)
    return PassResult(
        watch,
        attempted=len(watch.ops_ms),
        failed=failed,
        success=len(proofs) / len(watch.ops_ms),
        counts=counts,
        layers=layers,
    )


def oracle_pass(ctx: Context, seed: int, inject: str | None, end_of_pass) -> PassResult:
    watch = Stopwatch()
    results = []
    watch.start()
    entries, summary = corpus.generate_corpus(seed, ORACLE_COUNTS)
    for statement in ctx.statements:
        hyperstate = env.Hyperstate((statement.theorem.statement,))
        results.append(watch.time_op(oracle.shortest_proof, hyperstate, ORACLE_DEPTH))
    watch.stop()
    end_of_pass()
    cache_counts = _cache_counts()
    ctx.discarded += summary.discarded

    proofs = [(entry.theorem, entry.proof) for entry in entries]
    proofs += [(s.theorem, r.shortest_script) for s, r in zip(ctx.statements, results) if r.provable]
    if inject == "proof":
        thm, script = proofs[0]
        proofs[0] = (thm, env.ProofScript(script.steps[:-1]))
    for thm, script in proofs:
        check(env.script_is_valid(thm, script), f"oracle proof of {thm.id} does not replay: {script}")
    for statement, result in zip(ctx.statements, results):
        check(
            result.shortest_length == statement.expected_length,
            f"oracle length of {statement.theorem.id} is {result.shortest_length}, "
            f"expected {statement.expected_length}",
        )
    provable = sum(r.provable for r in results)
    counts = {
        "corpus.entries": len(entries),
        "corpus.discarded": summary.discarded,
        "corpus.distinct": len({env.format_obligation(e.theorem.statement) for e in entries}),
        "statements": len(results),
        "provable": provable,
        "length_sum": sum(r.shortest_length or 0 for r in results),
        **cache_counts,
    }
    return PassResult(
        watch,
        attempted=len(results) + sum(ORACLE_COUNTS),
        failed=0,
        success=provable / len(results),
        counts=counts,
    )


def common_checks(ctx: Context) -> None:
    """The baseline corpus replays, and the oracle matches hand-checked lengths."""
    for entry in ctx.corpus_entries:
        check(env.script_is_valid(entry.theorem, entry.proof), f"corpus proof of {entry.theorem.id} does not replay")
    text, length = REFERENCE_PROOF
    found = oracle.shortest_proof(env.Hyperstate((env.parse_obligation(text),)), ORACLE_DEPTH)
    check(found.shortest_length == length, f"{text} takes {found.shortest_length} steps, expected {length}")
    comm = oracle.shortest_proof(env.Hyperstate((env.parse_obligation(COMMUTATIVITY),)), ORACLE_DEPTH)
    check(not comm.provable, f"commutativity proved within depth {ORACLE_DEPTH}")


def input_sizes(workload: str, ctx: Context) -> dict:
    sizes = {"corpus_seed": ctx.config.seed, "corpus_counts": BASELINE_COUNTS, "actors": ctx.config.actor_count}
    if workload == "search":
        sizes.update(budget=DEFAULT_BUDGET, width=ctx.config.width, strategies=len(cli.EVAL_STRATEGIES))
    if workload in ("search", "oracle"):
        sizes.update(statements=len(ctx.statements), copies=COPIES)
        sizes["unprovable"] = len(UNPROVABLE)
    if workload == "oracle":
        sizes.update(oracle_counts=ORACLE_COUNTS, depth=ORACLE_DEPTH)
    return sizes


def run_pass(workload: str, ctx: Context, seed: int, inject: str | None, end_of_pass) -> PassResult:
    """One timed pass; `end_of_pass` runs as soon as the timed part ends."""
    if workload in ("train", "train-actors2"):
        return train_pass(ctx, inject, end_of_pass)
    if workload == "search":
        return search_pass(ctx, inject, end_of_pass)
    return oracle_pass(ctx, seed, inject, end_of_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced"), required=True)
    parser.add_argument("--inject", choices=("proof", "count"), default=None)
    parser.add_argument("--workdir", required=True, help="directory for the checkpoint file")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    out: dict = {"errors": []}
    checkpoint = Path(args.workdir) / f"search-{os.getpid()}.ckpt"
    ctx = setup(args.workload, args.seed, checkpoint)
    out["setup_s"] = time.perf_counter() - _STARTED
    out["sizes"] = input_sizes(args.workload, ctx)
    try:
        result = run_pass(args.workload, ctx, args.seed, args.inject, tracer.stop if tracer else lambda: None)
        common_checks(ctx)
    except CheckFailed as err:
        out["errors"].append(str(err))
    else:
        out.update(
            pass_s=result.watch.seconds,
            reference_s=statistics.fmean(result.watch.references),
            ops_ms=result.watch.ops_ms,
            failed_ops_s=sum(result.watch.failed_ms) / 1000.0,
            attempted=result.attempted,
            failed=result.failed,
            success=result.success,
            counts=result.counts,
            info=result.info,
        )
        if tracer is not None:
            layers = tracer.metrics()
            layers.update(result.layers)
            layers["corpus.discarded"] = ctx.discarded
            if result.model is not None:
                layers["trainer.snapshots"] = tracer.snapshot_adoptions(result.model)
            layers["bench.setup.s"] = out["setup_s"]
            layers["bench.pass.s"] = result.watch.seconds
            layers["value_model.bellman_target.share"] = (
                layers["value_model.bellman_target.s"] / result.watch.seconds
            )
            out["layers"] = layers
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
