"""The corpus-to-model pipeline and the reinforcement-learning loop in it.

run_training, the one pipeline of pretrain, train and every ablate row,
splits the corpus, fits the tactic predictor on the training proofs
(fit_predictor) and trains the value model (train) on tasks cut from one
replay of each training proof: each span env.discharges finds, kept in a
length band when the predictor's top-n actions reproduce every step. A
task is learned by demonstration: the agent replays ever-shorter prefixes
of the ground-truth script and finishes the rest epsilon-greedily. Each
step an episode plays feeds its source to a replay buffer; each discharge
updates the true-target buffer (minimum known length); a dead end, where
every prediction errors, lands in the replay and negative buffers. Batches
mix the three sources and regress on bootstrapped targets.

One learner owns the parameters and all buffers. The episode plan (epochs
x tasks x prefixes x episodes, with the epsilon schedule) is played in turn
against the learner's own model, so a run is bit-reproducible per seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import ClassVar

import numpy as np

from .corpus import CorpusSplit, split_corpus
from .env import TEMPLATES, Hyperstate, Obligation, ProofScript, ReplayError, Tactic, apply_tactic
from .env import _closes_proof, discharges, replay_script
from .predictor import FEATURE_NAMES, ActionCache, Predictor, reproducible_under_predictor, train_predictor
from .predictor import predict_top_n  # noqa: F401 - bench/layers.py traces trainer.predict_top_n
from .search import search_from
from .value_model import (
    NegativeBuffer,
    ObligationTable,
    ReplayBuffer,
    TrueTargetBuffer,
    ValueModel,
    bellman_target,
    pretrain,
)

__all__ = [
    "TrainingTask",
    "TrainerConfig",
    "TrainingReport",
    "prepare_tasks",
    "fit_predictor",
    "run_training",
    "demonstration_schedule",
    "run_episode",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 3


@dataclass(frozen=True, slots=True)
class TrainingTask:
    obligation: Obligation
    demo_script: ProofScript

    @property
    def demo_length(self) -> int:
        return len(self.demo_script.steps)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class TrainerConfig:
    """The settings of a training run that a caller sets.

    The fields are what the CLI and the benchmark set, and a checkpoint
    records them. The class constants below them are the method's fixed
    settings: they are not fields, so no caller sets them and no checkpoint
    records them.
    """

    gamma: float = 0.9
    width: int = 5
    seed: int = 0
    test_ratio: float = 0.25
    rl_epochs: int = 1
    # left from the removed actor/learner mode; train accepts only 1
    actor_count: int = 1
    # tasks with demo length <= min_drop or >= max_drop are filtered out
    min_drop_length: int = 2
    max_drop_length: int = 6
    subproof_tasks: bool = True
    pretrain_epochs: int = 800

    # A checkpoint does not record these, so changing one changes what every
    # checkpoint means: bump CHECKPOINT_VERSION with it.
    # epsilon falls linearly from start to end over half the run, then stays.
    epsilon_start: ClassVar[float] = 1.0
    epsilon_end: ClassVar[float] = 0.1
    episode_budget: ClassVar[int] = 20
    episodes_per_prefix: ClassVar[int] = 2
    updates_per_episode: ClassVar[int] = 4
    batch_size: ClassVar[int] = 32
    # the batch mix: the replay and true-target shares; negatives fill the rest
    replay_fraction: ClassVar[float] = 0.5
    true_fraction: ClassVar[float] = 0.25
    replay_capacity: ClassVar[int] = 4096
    learning_rate: ClassVar[float] = 0.02
    pretrain_learning_rate: ClassVar[float] = 0.02
    validation_tasks: ClassVar[int] = 8
    encoder_dim: ClassVar[int] = 64
    hidden_dim: ClassVar[int] = 32
    predictor_epochs: ClassVar[int] = 250
    predictor_learning_rate: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        # A loaded checkpoint can hold any JSON value, NaN and infinities
        # included. Every field must first be a number (a bool where one is
        # declared) so that the range checks can compare it, and every range
        # check is written so that NaN fails it. Integer fields are checked
        # last, so that a NaN count is reported as out of range.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be true or false")
            elif not _is_number(value):
                raise ValueError(f"{f.name} must be a number")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 <= self.test_ratio <= 1.0:
            raise ValueError("test_ratio must lie in [0, 1]")
        for name in ("seed", "rl_epochs", "pretrain_epochs"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be at least 0")
        for name in ("width", "actor_count"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for f in fields(self):
            if f.type == "int" and not isinstance(getattr(self, f.name), int):
                raise ValueError(f"{f.name} must be an integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainerConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown trainer config keys: {', '.join(unknown)}")
        missing = sorted(names - set(data))
        if missing:
            raise ValueError(f"missing trainer config keys: {', '.join(missing)}")
        return cls(**data)


@dataclass
class TrainingReport:
    config: dict
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
    too-short demos, too-long demos and predictor reproducibility.

    Each entry's proof is replayed once, and every task is a span of that
    trace, as discharges finds it: the obligation of the span's first step
    with the steps that discharge it. With subproof_tasks off, only the
    whole-theorem span of each entry is considered. Raises ReplayError on a
    proof that does not replay or does not close. Test entries are never
    filtered.
    """
    tasks = []
    seen: set[tuple[str, str]] = set()
    for entry in split.train:
        trace = replay_script(entry.theorem, entry.proof)
        if not _closes_proof(trace):
            left = len(trace[-1][2].obligations) if trace else 1
            raise ReplayError(len(trace), f"the proof of {entry.theorem.id} leaves open obligations: {left}")
        spans = sorted(discharges(trace))
        if not config.subproof_tasks:
            spans = spans[:1]  # the whole-theorem span, the only one that starts at 0
        for start, end in spans:
            if end - start <= config.min_drop_length or end - start >= config.max_drop_length:
                continue
            if not reproducible_under_predictor(trace[start:end], predictor, n):
                continue
            task = TrainingTask(trace[start][0].first, ProofScript(entry.proof.steps[start:end]))
            key = (task.obligation.canonical(), str(task.demo_script))
            if key in seen:
                continue
            seen.add(key)
            tasks.append(task)
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
) -> tuple[tuple[tuple[Hyperstate, Tactic, Hyperstate], ...], Obligation | None]:
    """One episode on the task: replay the demonstration prefix, then act
    epsilon-greedily among the non-erroring top-n tactics, taken from the
    action cache, until the proof closes or the episode budget is spent.

    Returns the (before, tactic, after) trace that replay_script would give
    for the tactics played, and the dead end: the first obligation of the
    state where no prediction applied, or None.
    """
    if not 0 <= demo_prefix_length <= task.demo_length:
        raise ValueError("demo prefix length out of range")
    state = Hyperstate((task.obligation,))
    trace: list[tuple[Hyperstate, Tactic, Hyperstate]] = []
    while not state.is_empty and len(trace) < config.episode_budget:
        source = state.first
        if len(trace) < demo_prefix_length:
            tactic = task.demo_script.steps[len(trace)]
            result = apply_tactic(source, tactic)
        else:
            options = [(tactic, result) for tactic, _, result in actions(source)]
            if not options:
                return tuple(trace), source
            scores = [
                model.hyperstate_value(Hyperstate(result + state.obligations[1:])) for _, result in options
            ]
            greedy_index = max(range(len(options)), key=lambda i: (scores[i], -i))
            if len(options) > 1 and rng.random() < epsilon:
                rest = [i for i in range(len(options)) if i != greedy_index]
                choice = rest[rng.randrange(len(rest))]
            else:
                choice = greedy_index
            tactic, result = options[choice]
        after = Hyperstate(result + state.obligations[1:])
        trace.append((state, tactic, after))
        state = after
    return tuple(trace), None


def _epsilon_at(episode: int, total: int, config: TrainerConfig) -> float:
    frac = min(1.0, episode / max(1, total // 2))
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


class _Learner:
    """Owns the model parameters, the obligation table and all three buffers.

    The predictor is frozen during RL, so the learner reads each
    obligation's applicable actions from the predictor's shared action
    cache, which the task filter has started to fill and which episodes and
    validation share. The buffers hold the table's ids.
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

    def ingest(self, trace, dead_end: Obligation | None) -> None:
        """Replay each step's source and the dead end, mark the dead end
        negative, and record each discharge's length as a true target."""
        intern = self.table.intern
        for before, _, _ in trace:
            self.replay.push(intern(before.first))
        if dead_end is not None:
            dead = intern(dead_end)
            self.replay.push(dead)
            self.negatives.add(dead)
        for start, end in discharges(trace):
            self.true_targets.update(intern(trace[start][0].first), end - start)

    def sample_batch(self) -> tuple[list[int], list[float]]:
        cfg = self.config
        n_replay = round(cfg.batch_size * cfg.replay_fraction)
        n_true = round(cfg.batch_size * cfg.true_fraction)
        n_negative = cfg.batch_size - n_replay - n_true
        replay_want = n_replay
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
    searches = (
        search_from("greedy", Hyperstate((task.obligation,)), model, predictor, config.width, config.episode_budget)
        for task in tasks
    )
    return sum(result.proved for result in searches) / len(tasks)


def train(
    split: CorpusSplit,
    predictor: Predictor,
    config: TrainerConfig,
) -> tuple[ValueModel, TrainingReport]:
    """Pretraining followed by episodic RL over the demonstration schedules.

    Episodes run in turn against the learner's own model and action cache,
    so each one sees every update before it. Each episode is ingested and
    followed by updates_per_episode updates, and validation runs after every
    epoch's worth of episodes. Bit-reproducible for a fixed seed.
    """
    if config.actor_count != 1:
        raise ValueError("actor_count must be 1: the actor/learner mode was removed")
    tasks = prepare_tasks(split, predictor, config.width, config)
    if not tasks:
        raise ValueError(
            f"no training tasks survive the filters: a demo longer than min_drop_length {config.min_drop_length}"
            f" and shorter than max_drop_length {config.max_drop_length}, reproducible under the top-{config.width}"
            f" predictions, with sub-proof tasks {'on' if config.subproof_tasks else 'off'}"
        )
    model = ValueModel(config.encoder_dim, config.gamma, config.hidden_dim, config.seed)
    pretrain_losses = pretrain(
        model,
        [(task.obligation, task.demo_length) for task in tasks],
        epochs=config.pretrain_epochs,
        learning_rate=config.pretrain_learning_rate,
    )
    report = TrainingReport(
        config=config.to_dict(),
        predictor_losses=list(predictor.train_losses),
        pretrain_losses=pretrain_losses,
        task_count=len(tasks),
    )
    learner = _Learner(model, predictor, config)
    for task in tasks:
        learner.true_targets.update(learner.table.intern(task.obligation), task.demo_length)

    validation = tasks[: config.validation_tasks]
    epoch_episodes = _episodes_per_epoch(tasks, config)
    rng = random.Random(config.seed + 2)
    for task, prefix, epsilon in _episode_plan(tasks, config):
        learner.ingest(*run_episode(task, model, learner.actions, config, prefix, rng, epsilon))
        for _ in range(config.updates_per_episode):
            learner.update_once()
        report.episodes += 1
        if report.episodes % epoch_episodes == 0:
            report.validation_success.append(_validation_success(model, predictor, validation, config))
    report.updates = learner.updates
    report.update_losses = learner.losses
    report.buffer_sizes = learner.buffer_sizes()
    report.negative_obligations = [learner.table.obligations[ob_id].canonical() for ob_id in learner.negatives.ids]
    return model, report


def _episodes_per_epoch(tasks: list[TrainingTask], config: TrainerConfig) -> int:
    return config.episodes_per_prefix * sum(task.demo_length for task in tasks)


def _episode_plan(tasks: list[TrainingTask], config: TrainerConfig):
    """(task, demonstration prefix, epsilon) for every episode of rl_epochs
    passes over the tasks, with epsilon on the linear schedule over the
    whole plan."""
    total = config.rl_epochs * _episodes_per_epoch(tasks, config)
    index = 0
    for _ in range(config.rl_epochs):
        for task in tasks:
            for prefix in demonstration_schedule(task):
                for _ in range(config.episodes_per_prefix):
                    yield task, prefix, _epsilon_at(index, total, config)
                    index += 1


def fit_predictor(entries, seed: int) -> Predictor:
    """The tactic predictor fitted on the (first obligation, tactic) pair of every step of the entries' proofs."""
    # bench/layers.py counts fits at predictor.train_predictor; a benchmark worker that
    # fits here needs a (trainer, "train_predictor") row there, or its fit count reads 0
    pairs = [(before.first, tactic) for e in entries for before, tactic, _ in replay_script(e.theorem, e.proof)]
    epochs, rate = TrainerConfig.predictor_epochs, TrainerConfig.predictor_learning_rate
    return train_predictor(pairs, epochs=epochs, learning_rate=rate, seed=seed)


def run_training(entries, config: TrainerConfig) -> tuple[ValueModel, Predictor, TrainingReport, CorpusSplit]:
    """Split the entries by the config's seed and test ratio, fit the predictor on the train side, train."""
    split = split_corpus(entries, config.seed, config.test_ratio)
    if not split.train:
        raise RuntimeError("the training split is empty")
    predictor = fit_predictor(split.train, config.seed)
    model, report = train(split, predictor, config)
    return model, predictor, report, split


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


# Every parameter a checkpoint holds: its section, its name, which is also
# its attribute on the section's ValueModel or Predictor, and its shape
# under a validated config. save_checkpoint and load_checkpoint read only
# this table.
_PARAMETERS = (
    ("value_model", "w_hidden", lambda config: (config.hidden_dim, config.encoder_dim)),
    ("value_model", "b_hidden", lambda config: (config.hidden_dim,)),
    ("value_model", "w_out", lambda config: (config.hidden_dim,)),
    ("value_model", "b_out", lambda config: ()),
    ("predictor", "weights", lambda config: (len(TEMPLATES), len(FEATURE_NAMES))),
    ("predictor", "bias", lambda config: (len(TEMPLATES),)),
)


def save_checkpoint(path: str, model: ValueModel, predictor: Predictor, config: TrainerConfig) -> None:
    """The config holds every setting a caller sets; the predictor and
    value_model sections hold only weights, whose shapes the config and its
    class constants give."""
    owners = {"value_model": model, "predictor": predictor}
    payload = {"version": CHECKPOINT_VERSION, "config": config.to_dict()}
    for section, name, _ in _PARAMETERS:
        payload.setdefault(section, {})[name] = np.asarray(getattr(owners[section], name)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _check_parameter(name: str, values, shape: tuple[int, ...]) -> np.ndarray:
    """values as a float array, if they are nested lists of JSON numbers
    (not booleans) of the given shape, all finite."""
    try:
        array = np.array(values, dtype=float)
    except (TypeError, ValueError) as err:  # a JSON object or ragged lists, say
        raise ValueError(f"parameter {name} is not an array of numbers") from err
    if array.shape != shape:
        raise ValueError(f"parameter {name} has shape {array.shape}, expected {shape}")
    # np.array also takes numeric strings, booleans and null (as NaN); the
    # leaves must be JSON numbers, and type(True) is bool, not int
    leaves = [values]
    for _ in shape:
        leaves = list(chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        raise ValueError(f"parameter {name} is not an array of numbers")
    if not np.isfinite(array).all():
        raise ValueError(f"parameter {name} is not finite")
    return array


def load_checkpoint(path: str) -> tuple[ValueModel, Predictor, TrainerConfig]:
    """Raises ValueError, naming the file, on a checkpoint that is not a
    JSON object or is nested too deep to parse, is of another version, lacks
    a section or a key of one, has unknown, missing or invalid config keys,
    or parameters that are not finite arrays of numbers of the shapes its
    config gives. The config is validated first, and every parameter is
    checked against it before any model is built from it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as err:  # malformed JSON, bytes that are not UTF-8, deep nesting
            raise ValueError(f"checkpoint {path}: {err}") from err
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: incompatible checkpoint version {payload.get('version')!r}")
    arrays = {section: {} for section, _, _ in _PARAMETERS}
    for section in ("config", *arrays):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"checkpoint {path} has no {section!r} object")
    for section, name, _ in _PARAMETERS:
        if name not in payload[section]:
            raise ValueError(f"checkpoint {path} has no key {name!r} in its {section!r} section")
    try:
        config = TrainerConfig.from_dict(payload["config"])
        for section, name, shape in _PARAMETERS:
            arrays[section][name] = _check_parameter(f"{section}.{name}", payload[section][name], shape(config))
        model = ValueModel(config.encoder_dim, config.gamma, config.hidden_dim)
        for name, array in arrays["value_model"].items():
            setattr(model, name, array if array.ndim else float(array))
        return model, Predictor(**arrays["predictor"]), config
    except ValueError as err:
        raise ValueError(f"checkpoint {path}: {err}") from err
