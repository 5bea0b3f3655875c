"""The reinforcement-learning loop around the value model.

Tasks are the sub-proofs of the training corpus, filtered to the ones the
predictor can reproduce and to a configurable length band. Each task is
learned through a demonstration curriculum: the agent replays ever-shorter
prefixes of the ground-truth script and finishes the rest epsilon-greedily.
Episode transitions feed a replay buffer; fully discharged obligations
update the true-target buffer (minimum known length); obligations where
every prediction errors land in the negative buffer. Batches mix the three
sources and regress on bootstrapped targets.

Both modes share one learner loop, which owns the parameters and all
buffers, and one episode plan (epochs x tasks x prefixes x episodes, with
the epsilon schedule). They differ only in where episodes come from.
Single-actor runs play the plan in turn against the learner's model and are
bit-reproducible per seed. The distributed mode is a thin layer over the
same loop: actor threads play the plans of disjoint task partitions against
parameter snapshots and communicate only through queues.
"""

from __future__ import annotations

import json
import queue
import random
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import CorpusSplit
from .encoder import hashed_encoder
from .env import TEMPLATES, Hyperstate, Obligation, ProofScript, apply_tactic
from .oracle import reproducible_under_predictor
from .predictor import FEATURE_NAMES, Predictor, predictor_from_dict, predictor_to_dict
from .predictor import predict_top_n  # noqa: F401 - bench/layers.py traces trainer.predict_top_n
from .search import ValueScorer, greedy_from_hyperstate
from .value_model import (
    ActionCache,
    NegativeBuffer,
    ObligationTable,
    ReplayBuffer,
    Transition,
    TrueTargetBuffer,
    ValueModel,
    bellman_target,
    pretrain,
    value_model_from_dict,
    value_model_to_dict,
)

__all__ = [
    "TrainingTask",
    "TrainerConfig",
    "TrainingReport",
    "prepare_tasks",
    "demonstration_schedule",
    "run_episode",
    "train",
    "distributed_run",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 1

# Failures of one task after which the distributed runner drops it instead
# of respawning an actor at it again.
MAX_TASK_FAILURES = 3

# Seconds to wait for each actor thread once every actor has reported.
ACTOR_JOIN_TIMEOUT_S = 60


@dataclass(frozen=True)
class TrainingTask:
    obligation: Obligation
    demo_script: ProofScript

    @property
    def demo_length(self) -> int:
        return len(self.demo_script.steps)


@dataclass
class TrainerConfig:
    gamma: float = 0.9
    width: int = 5
    seed: int = 0
    test_ratio: float = 0.25
    # epsilon schedule: linear from start to end over decay_episodes
    # (defaulting to half the run), then constant.
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay_episodes: int | None = None
    episode_budget: int = 20
    episodes_per_prefix: int = 2
    rl_epochs: int = 1
    updates_per_episode: int = 4
    batch_size: int = 32
    replay_fraction: float = 0.5
    true_fraction: float = 0.25
    negative_fraction: float = 0.25
    replay_capacity: int = 4096
    learning_rate: float = 0.02
    sync_interval: int = 16
    actor_count: int = 1
    # tasks with demo length <= min_drop or >= max_drop are filtered out
    min_drop_length: int = 2
    max_drop_length: int = 6
    subproof_tasks: bool = True
    pretrain_epochs: int = 800
    pretrain_learning_rate: float = 0.02
    validation_tasks: int = 8
    encoder_dim: int = 64
    encoder_salt: int = 0
    hidden_dim: int = 32
    predictor_epochs: int = 250
    predictor_learning_rate: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.actor_count < 1:
            raise ValueError("actor_count must be at least 1")
        fractions = (self.replay_fraction, self.true_fraction, self.negative_fraction)
        if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("batch mix fractions must be nonnegative and sum to 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainerConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown trainer config keys: {', '.join(unknown)}")
        return cls(**data)


@dataclass
class TrainingReport:
    config: dict
    actor_count: int
    predictor_losses: list[float]
    pretrain_losses: list[float]
    episodes: int = 0
    updates: int = 0
    update_losses: list[float] = field(default_factory=list)
    buffer_sizes: dict = field(default_factory=dict)
    validation_success: list[float] = field(default_factory=list)
    task_count: int = 0
    # canonical forms of the dead-end obligations collected during training
    negative_obligations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def prepare_tasks(split: CorpusSplit, predictor: Predictor, n: int, config: TrainerConfig) -> list[TrainingTask]:
    """Sub-proof tasks of the training entries, after the three filters:
    predictor reproducibility, too-short demos and too-long demos.

    Test entries are never filtered. With subproof_tasks off, only the
    whole-theorem task of each entry is considered.
    """
    from .env import extract_subproof_tasks

    tasks = []
    seen: set[tuple[str, str]] = set()
    for entry in split.train:
        if config.subproof_tasks:
            subproofs = extract_subproof_tasks(entry.theorem, entry.proof)
        else:
            initial = Hyperstate((entry.theorem.statement,)).first
            subproofs = [(initial, entry.proof)]
        for obligation, script in subproofs:
            length = len(script.steps)
            if length <= config.min_drop_length or length >= config.max_drop_length:
                continue
            if not reproducible_under_predictor((obligation, script), predictor, n):
                continue
            key = (obligation.canonical(), str(script))
            if key in seen:
                continue
            seen.add(key)
            tasks.append(TrainingTask(obligation, script))
    return tasks


def demonstration_schedule(task: TrainingTask) -> list[int]:
    """Prefix lengths for learning by demonstration: the agent first supplies
    only the last step, then the last two, down to the whole script."""
    if task.demo_length < 1:
        raise ValueError("demo script must be nonempty")
    return list(range(task.demo_length - 1, -1, -1))


def run_episode(
    task: TrainingTask,
    model: ValueModel,
    actions: ActionCache,
    config: TrainerConfig,
    demo_prefix_length: int,
    rng: random.Random,
    epsilon: float,
) -> tuple[list[Transition], list[tuple[Obligation, int]]]:
    """One episode on the task: replay the demonstration prefix, then act
    epsilon-greedily among the non-erroring top-n tactics, taken from the
    action cache.

    Returns the transitions (dead ends flagged) and every obligation the
    episode fully discharged, with the number of tactics its discharge took.
    """
    if not 0 <= demo_prefix_length <= task.demo_length:
        raise ValueError("demo prefix length out of range")
    state = Hyperstate((task.obligation,))
    transitions: list[Transition] = []
    discharged: list[tuple[Obligation, int]] = []
    frames: list[tuple[Obligation, int, int]] = []  # (obligation, start step, suffix length)
    steps_done = 0

    def commit(tactic) -> None:
        nonlocal state, steps_done
        source = state.first
        result = apply_tactic(source, tactic)
        frames.append((source, steps_done, len(state.obligations) - 1))
        state = Hyperstate(result + state.obligations[1:])
        steps_done += 1
        transitions.append(Transition(source, tactic, result))
        while frames and len(state.obligations) == frames[-1][2]:
            ob, start, _ = frames.pop()
            discharged.append((ob, steps_done - start))

    for tactic in task.demo_script.steps[:demo_prefix_length]:
        if steps_done >= config.episode_budget:
            return transitions, discharged
        commit(tactic)

    while not state.is_empty and steps_done < config.episode_budget:
        source = state.first
        options = [(tactic, result) for tactic, _, result in actions(source)]
        if not options:
            transitions.append(Transition(source, None, (), dead_end=True))
            break
        scores = [
            model.hyperstate_value(Hyperstate(result + state.obligations[1:])) for _, result in options
        ]
        greedy_index = max(range(len(options)), key=lambda i: (scores[i], -i))
        if len(options) > 1 and rng.random() < epsilon:
            rest = [i for i in range(len(options)) if i != greedy_index]
            choice = rest[rng.randrange(len(rest))]
        else:
            choice = greedy_index
        commit(options[choice][0])
    return transitions, discharged


def _epsilon_at(episode: int, total: int, config: TrainerConfig) -> float:
    decay = config.epsilon_decay_episodes
    if decay is None:
        decay = max(1, total // 2)
    if decay <= 0:
        return config.epsilon_end
    frac = min(1.0, episode / decay)
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


class _Learner:
    """Owns the model parameters, the obligation table and all three buffers.

    The predictor is frozen during RL, so the learner reads each
    obligation's applicable actions from the predictor's shared action
    cache, which the task filter has started to fill and which validation
    and single-actor episodes share. Actor threads keep their own and never
    touch the table, whose ids the buffers hold.
    """

    def __init__(self, model: ValueModel, predictor: Predictor, config: TrainerConfig):
        self.model = model
        self.actions = ActionCache.of(predictor, config.width)
        self.table = ObligationTable(model, self.actions)
        self.config = config
        self.replay = ReplayBuffer(config.replay_capacity)
        self.true_targets = TrueTargetBuffer()
        self.negatives = NegativeBuffer()
        self.rng = random.Random(config.seed + 1)
        self.updates = 0
        self.losses: list[float] = []

    def ingest(self, transitions: list[Transition], discharged: list[tuple[Obligation, int]]) -> None:
        for transition in transitions:
            source = self.table.intern(transition.source)
            self.replay.push(source)
            if transition.dead_end:
                self.negatives.add(source)
        for obligation, length in discharged:
            self.true_targets.update(self.table.intern(obligation), length)

    def sample_batch(self) -> tuple[list[int], list[float]]:
        cfg = self.config
        n_replay = round(cfg.batch_size * cfg.replay_fraction)
        n_true = round(cfg.batch_size * cfg.true_fraction)
        n_negative = cfg.batch_size - n_replay - n_true
        replay_want = n_replay
        if len(self.true_targets) == 0:
            replay_want += n_true
        if len(self.negatives) == 0:
            replay_want += n_negative
        replay = self.replay.sample(replay_want, self.rng)
        true = self.true_targets.sample(n_true, self.rng)
        negative = self.negatives.sample(n_negative, self.rng)
        targets = bellman_target(self.model, self.table, replay)
        targets += [self.model.gamma ** self.true_targets.length_of(ob_id) for ob_id in true]
        return replay + true + negative, targets + [0.0] * len(negative)

    def update_once(self) -> None:
        ids, targets = self.sample_batch()
        if not ids:
            return
        loss = self.model.update_batch(self.table.rows(ids), targets, self.config.learning_rate)
        self.losses.append(loss)
        self.updates += 1

    def buffer_sizes(self) -> dict:
        return {
            "replay": len(self.replay),
            "true_target": len(self.true_targets),
            "negative": len(self.negatives),
        }


def _validation_success(
    model: ValueModel, predictor: Predictor, tasks: list[TrainingTask], config: TrainerConfig
) -> float:
    """The share of tasks greedy search under the model proves within the episode budget."""
    if not tasks:
        return 0.0
    scorer = ValueScorer.for_model(model)
    searches = (
        greedy_from_hyperstate(Hyperstate((task.obligation,)), scorer, predictor, config.width, config.episode_budget)
        for task in tasks
    )
    return sum(result.proved for result in searches) / len(tasks)


def train(
    split: CorpusSplit,
    predictor: Predictor,
    config: TrainerConfig,
    tasks: list[TrainingTask] | None = None,
) -> tuple[ValueModel, TrainingReport]:
    """Pretraining followed by episodic RL over the demonstration schedules.

    Bit-reproducible for a fixed seed in single-actor mode; actor_count >= 2
    dispatches to the distributed runner.
    """
    if config.actor_count > 1:
        return distributed_run(split, predictor, config, tasks)
    return _run(split, predictor, config, tasks, _single_actor_episodes)


def _run(split, predictor, config, tasks, episodes) -> tuple[ValueModel, TrainingReport]:
    """The one learner loop behind both modes.

    episodes(tasks, learner) yields one (transitions, discharged) pair per
    episode. Each is ingested and followed by updates_per_episode updates.
    Validation runs after every epoch's worth of episodes, and once more
    after a final partial epoch (tasks dropped by the distributed runner).
    """
    if tasks is None:
        tasks = prepare_tasks(split, predictor, config.width, config)
    if not tasks:
        raise ValueError("no training tasks survive the filters")
    encoder = hashed_encoder(config.encoder_dim, config.encoder_salt)
    model = ValueModel(encoder, config.encoder_dim, config.gamma, config.hidden_dim, seed=config.seed)
    pretrain_losses = pretrain(
        model,
        [(task.obligation, task.demo_length) for task in tasks],
        epochs=config.pretrain_epochs,
        learning_rate=config.pretrain_learning_rate,
    )
    report = TrainingReport(
        config=config.to_dict(),
        actor_count=config.actor_count,
        predictor_losses=list(predictor.train_losses),
        pretrain_losses=pretrain_losses,
        task_count=len(tasks),
    )
    learner = _Learner(model, predictor, config)
    learner.ingest([], [(task.obligation, task.demo_length) for task in tasks])

    validation = tasks[: config.validation_tasks]
    epoch_episodes = max(1, _episodes_per_epoch(tasks, config))
    for transitions, discharged in episodes(tasks, learner):
        learner.ingest(transitions, discharged)
        for _ in range(config.updates_per_episode):
            learner.update_once()
        report.episodes += 1
        if report.episodes % epoch_episodes == 0:
            report.validation_success.append(_validation_success(model, predictor, validation, config))
    if report.episodes % epoch_episodes:
        report.validation_success.append(_validation_success(model, predictor, validation, config))
    report.updates = learner.updates
    report.update_losses = learner.losses
    report.buffer_sizes = learner.buffer_sizes()
    report.negative_obligations = [learner.table.obligations[ob_id].canonical() for ob_id in learner.negatives.ids]
    return model, report


def _episodes_per_epoch(tasks: list[TrainingTask], config: TrainerConfig) -> int:
    return config.episodes_per_prefix * sum(task.demo_length for task in tasks)


def _episode_plan(tasks: list[TrainingTask], config: TrainerConfig):
    """(task index, task, demonstration prefix, epsilon) for every episode
    of rl_epochs passes over the tasks, with epsilon on the linear schedule
    over the whole plan."""
    total = config.rl_epochs * _episodes_per_epoch(tasks, config)
    index = 0
    for _ in range(config.rl_epochs):
        for task_index, task in enumerate(tasks):
            for prefix in demonstration_schedule(task):
                for _ in range(config.episodes_per_prefix):
                    yield task_index, task, prefix, _epsilon_at(index, total, config)
                    index += 1


def _single_actor_episodes(tasks, learner):
    """Episodes run in turn against the learner's own model and action
    cache, so each one sees every update before it."""
    config = learner.config
    rng = random.Random(config.seed + 2)
    for _, task, prefix, epsilon in _episode_plan(tasks, config):
        yield run_episode(task, learner.model, learner.actions, config, prefix, rng, epsilon)


# ---------------------------------------------------------------------------
# Distributed actor/learner mode
# ---------------------------------------------------------------------------


def _resumed_plan(tasks: list[TrainingTask], config: TrainerConfig, start: int, skip):
    """(plan index, task, demonstration prefix, epsilon) for the entries of
    the tasks' episode plan from index start on, leaving out the tasks in
    skip. Epsilons stay those of the whole plan."""
    for index, (_, task, prefix, epsilon) in enumerate(_episode_plan(tasks, config)):
        if index >= start and task not in skip:
            yield index, task, prefix, epsilon


def _actor_loop(
    actor_id: int,
    tasks: list[TrainingTask],
    start: int,
    skip: frozenset,
    predictor: Predictor,
    config: TrainerConfig,
    snapshot_queue: "queue.Queue",
    out_queue: "queue.Queue",
    initial_params,
    encoder,
    episode_runner,
) -> None:
    """Runs the episode plan of its partition, from entry start on and
    without the tasks in skip, against a local model built from the latest
    published snapshot and its own action cache; never touches shared state.
    A failure is reported with the plan index and task of its episode."""
    local = ValueModel(encoder, config.encoder_dim, config.gamma, config.hidden_dim, seed=config.seed)
    local.set_flat_params(initial_params)
    actions = ActionCache(predictor, config.width)
    rng = random.Random(config.seed + 100 + actor_id)
    index = task = None
    try:
        for index, task, prefix, epsilon in _resumed_plan(tasks, config, start, skip):
            # adopt the freshest snapshot at an episode boundary
            latest = None
            while True:
                try:
                    latest = snapshot_queue.get_nowait()
                except queue.Empty:
                    break
            if latest is not None:
                local.set_flat_params(latest)
            transitions, discharged = episode_runner(task, local, actions, config, prefix, rng, epsilon)
            out_queue.put(("episode", actor_id, transitions, discharged))
        out_queue.put(("done", actor_id, None, None))
    except Exception as err:  # noqa: BLE001 - reported to the learner
        out_queue.put(("failed", actor_id, f"plan entry {index}: {err}", (index, task)))


def _actor_episodes(tasks, learner, failures, predictor, episode_runner):
    """Episodes from actor threads on disjoint task partitions, in arrival
    order. A snapshot of the learner's parameters goes to every actor once
    sync_interval updates have passed since the last one. Actor failures,
    dropped tasks and threads still alive after their join are appended to
    failures."""
    config = learner.config
    model = learner.model
    partitions = [tasks[i :: config.actor_count] for i in range(config.actor_count)]
    partitions = [p for p in partitions if p]
    out_queue: queue.Queue = queue.Queue()
    snapshot_queues: list[queue.Queue] = []
    threads: list[threading.Thread] = []
    task_failures: dict[TrainingTask, int] = {}
    dropped: list[TrainingTask] = []
    actor_partitions: list[list[TrainingTask]] = []

    def spawn(partition: list[TrainingTask], start: int) -> None:
        snapshots: queue.Queue = queue.Queue()
        snapshot_queues.append(snapshots)
        actor_id = len(threads)
        actor_partitions.append(partition)
        thread = threading.Thread(
            target=_actor_loop,
            args=(
                actor_id,
                partition,
                start,
                frozenset(dropped),
                predictor,
                config,
                snapshots,
                out_queue,
                model.get_flat_params(),
                model.encoder,
                episode_runner,
            ),
            name=f"actor {actor_id}",
            daemon=True,
        )
        threads.append(thread)
        thread.start()

    for partition in partitions:
        spawn(partition, 0)

    live = len(partitions)
    synced_at = learner.updates
    while live > 0:
        kind, actor_id, payload, extra = out_queue.get()
        if kind == "done":
            live -= 1
            continue
        if kind == "failed":
            failures.append(f"actor {actor_id}: {payload}")
            live -= 1
            start, failed_task = extra
            task_failures[failed_task] = task_failures.get(failed_task, 0) + 1
            if task_failures[failed_task] >= MAX_TASK_FAILURES:
                failures.append(
                    f"dropped task {failed_task.obligation.canonical()} after {MAX_TASK_FAILURES} failures"
                )
                dropped.append(failed_task)
            # a new actor resumes the same partition's plan at the failed episode
            partition = actor_partitions[actor_id]
            if next(_resumed_plan(partition, config, start, frozenset(dropped)), None) is not None:
                spawn(partition, start)
                live += 1
            continue
        yield payload, extra
        if learner.updates - synced_at >= config.sync_interval:
            params = model.get_flat_params()
            for snapshots in snapshot_queues:
                snapshots.put(params)
            synced_at = learner.updates
    for thread in threads:
        thread.join(timeout=ACTOR_JOIN_TIMEOUT_S)
        if thread.is_alive():
            failures.append(f"{thread.name}: still running {ACTOR_JOIN_TIMEOUT_S} s after its last report")
    if len(dropped) == len(tasks):
        raise RuntimeError(
            f"every training task was dropped after {MAX_TASK_FAILURES} actor failures: "
            + "; ".join(task.obligation.canonical() for task in dropped)
        )


def distributed_run(
    split: CorpusSplit,
    predictor: Predictor,
    config: TrainerConfig,
    tasks: list[TrainingTask] | None = None,
    episode_runner=run_episode,
) -> tuple[ValueModel, TrainingReport]:
    """Actor/learner training: one learner owns the model and buffers; actor
    threads run episodes on disjoint task partitions with parameter
    snapshots published every sync_interval updates.

    A failed actor is respawned at the episode it failed on and continues
    its partition's plan from there, with the same epsilons. A task that
    fails MAX_TASK_FAILURES times is dropped, and its remaining episodes are
    skipped. Failures, drops and actors still running at shutdown are listed
    in buffer_sizes["actor_failures"]. Raises RuntimeError, listing the
    dropped tasks, when every task was dropped.
    """
    if config.actor_count < 2:
        raise ValueError("distributed_run requires at least 2 actors")
    failures: list[str] = []

    def episodes(tasks, learner):
        return _actor_episodes(tasks, learner, failures, predictor, episode_runner)

    model, report = _run(split, predictor, config, tasks, episodes)
    if failures:
        report.buffer_sizes["actor_failures"] = failures
    return model, report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, model: ValueModel, predictor: Predictor, config: TrainerConfig) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "predictor": predictor_to_dict(predictor),
        "encoder": {"mode": "hashed", "dim": config.encoder_dim, "salt": config.encoder_salt},
        "value_model": value_model_to_dict(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _check_parameter(name: str, values, shape: tuple[int, ...]) -> None:
    array = np.array(values, dtype=float)
    if array.shape != shape:
        raise ValueError(f"checkpoint parameter {name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"checkpoint parameter {name} is not finite")


def load_checkpoint(path: str) -> tuple[ValueModel, Predictor, TrainerConfig]:
    """Raises ValueError on a checkpoint of another version or encoder mode,
    unknown config keys, parameters of the wrong shape or not finite, and an
    encoder dimension other than the value model's input dimension."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"incompatible checkpoint version {payload.get('version')!r}")
    config = TrainerConfig.from_dict(payload["config"])
    net = payload["value_model"]
    hidden = net["hidden_dim"]
    for section, name, shape in (
        ("value_model", "w_hidden", (hidden, net["input_dim"])),
        ("value_model", "b_hidden", (hidden,)),
        ("value_model", "w_out", (hidden,)),
        ("value_model", "b_out", ()),
        ("predictor", "weights", (len(TEMPLATES), len(FEATURE_NAMES))),
        ("predictor", "bias", (len(TEMPLATES),)),
    ):
        _check_parameter(f"{section}.{name}", payload[section][name], shape)
    encoder_info = payload["encoder"]
    if encoder_info["mode"] != "hashed":
        raise ValueError(f"unsupported encoder mode {encoder_info['mode']!r}")
    if encoder_info["dim"] != net["input_dim"]:
        raise ValueError(f"checkpoint encoder dim {encoder_info['dim']} != value_model input_dim {net['input_dim']}")
    encoder = hashed_encoder(encoder_info["dim"], encoder_info["salt"])
    model = value_model_from_dict(net, encoder)
    predictor = predictor_from_dict(payload["predictor"])
    return model, predictor, config
