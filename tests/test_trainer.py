import math
import random
from collections import deque
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from valueprover import trainer as trainer_module
from valueprover.corpus import CorpusEntry, CorpusSplit
from valueprover.env import (
    Hyperstate,
    TEMPLATE_INDEX,
    TacticError,
    Theorem,
    apply_tactic,
    discharges,
    parse_obligation,
    parse_script,
    replay_script,
    step_hyperstate,
)
from valueprover.predictor import predict_top_n
from valueprover.trainer import (
    TrainerConfig,
    TrainingTask,
    demonstration_schedule,
    load_checkpoint,
    prepare_tasks,
    run_episode,
    save_checkpoint,
    train,
)
from valueprover import predictor as predictor_module
from valueprover.predictor import ActionCache
from valueprover.value_model import ValueModel, bellman_backup, bellman_target

import reference_primitives


class RankedPredictor:
    def __init__(self, order):
        self.order = order
        self.train_losses = []

    def template_probabilities(self, _):
        probs = np.zeros(6)
        for rank, name in enumerate(self.order):
            probs[TEMPLATE_INDEX[name]] = 0.5 / (2.0**rank)
        return probs / probs.sum()


# every template except f_equal is inside the top five
NO_F_EQUAL = RankedPredictor(("simpl", "reflexivity", "intros", "induction", "rewrite", "f_equal"))


def entry(id_, statement, script):
    return CorpusEntry(Theorem(id_, parse_obligation(statement)), parse_script(script))


@pytest.fixture
def crafted_split():
    short = entry("short", "|- Plus(Zero,Zero) = Zero", "simpl; reflexivity")
    long = entry(
        "long",
        "forall n, |- Plus(Var(n),Zero) = Var(n)",
        "intros; induction n; simpl; reflexivity; simpl; rewrite IH_n; reflexivity",
    )
    # the demo inducts on the second goal variable, but argument resolution
    # always proposes the first, so no width can reproduce this proof
    wrong_variable = entry(
        "wrongvar",
        "forall n m, |- Plus(Var(n),Var(m)) = Plus(Var(n),Var(m))",
        "intros; induction m; reflexivity; reflexivity",
    )
    return CorpusSplit((short, long, wrong_variable), (), seed=0)


def test_prepare_tasks_filters(crafted_split):
    config = TrainerConfig(seed=0)  # default band: keep lengths 3..5
    tasks = prepare_tasks(crafted_split, NO_F_EQUAL, 5, config)
    kept = {(t.obligation.canonical(), t.demo_length) for t in tasks}
    # the only survivor is the worked example's step case (length 3)
    assert len(tasks) == 1
    ((canonical, length),) = kept
    assert length == 3 and "IH_n" in canonical
    # every retained task is reproducible by construction
    from valueprover.predictor import reproducible_under_predictor

    for task in tasks:
        assert reproducible_under_predictor((task.obligation, task.demo_script), NO_F_EQUAL, 5)


def test_prepare_tasks_band_is_configurable(crafted_split):
    config = TrainerConfig(seed=0, min_drop_length=0, max_drop_length=99)
    tasks = prepare_tasks(crafted_split, NO_F_EQUAL, 5, config)
    lengths = sorted(t.demo_length for t in tasks)
    # everything reproducible survives; the wrong-variable proofs still drop
    assert 7 in lengths and 2 in lengths
    assert all(t.demo_length != 4 for t in tasks)


def test_prepare_tasks_whole_theorem_mode(crafted_split):
    config = TrainerConfig(seed=0, min_drop_length=0, max_drop_length=99, subproof_tasks=False)
    tasks = prepare_tasks(crafted_split, NO_F_EQUAL, 5, config)
    assert {t.demo_length for t in tasks} == {2, 7}


def test_demonstration_schedule():
    four = TrainingTask(parse_obligation("|- Zero = Zero"), parse_script("reflexivity"))
    assert demonstration_schedule(four) == [0]
    worked = TrainingTask(
        parse_obligation("|- Plus(Zero,Zero) = Zero"), parse_script("simpl; reflexivity")
    )
    assert demonstration_schedule(worked) == [1, 0]
    longer = TrainingTask(
        parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)"),
        parse_script("intros; induction n; simpl; reflexivity"),
    )
    assert demonstration_schedule(longer) == [3, 2, 1, 0]


def _model():
    return ValueModel(64, gamma=0.9, seed=0)


def test_run_episode_full_prefix_is_pure_replay(worked_theorem):
    thm, script = worked_theorem
    task = TrainingTask(thm.statement, script)
    config = TrainerConfig(seed=0)
    actions = ActionCache(NO_F_EQUAL, config.width)
    trace, dead_end = run_episode(
        task, _model(), actions, config, task.demo_length, random.Random(0), epsilon=1.0
    )
    # the episode is the script's replay, and closes the proof
    assert trace == replay_script(thm, script)
    assert dead_end is None
    by_canon = {trace[start][0].first.canonical(): end - start for start, end in discharges(trace)}
    assert by_canon[thm.statement.canonical()] == 7
    assert by_canon["|- Plus(Zero,Zero) = Zero"] == 2


def test_run_episode_agent_supplies_last_step(worked_theorem):
    thm, script = worked_theorem
    task = TrainingTask(thm.statement, script)
    config = TrainerConfig(seed=0)
    actions = ActionCache(NO_F_EQUAL, config.width)
    trace, dead_end = run_episode(
        task, _model(), actions, config, task.demo_length - 1, random.Random(0), epsilon=0.0
    )
    # the final state only admits reflexivity, so greedy completes the proof
    assert trace == replay_script(thm, script) and dead_end is None
    assert list(discharges(trace))[-1] == (0, 7)


# no top-5 action of NO_F_EQUAL applies to this obligation; the demo is a
# placeholder, unused at prefix 0
DEAD_END_TASK = TrainingTask(
    parse_obligation(
        "n', IH_n : Succ(Plus(Var(n'),Succ(Zero))) = Succ(Succ(Plus(Var(n'),Zero))) |- "
        "Plus(Var(n'),Succ(Zero)) = Succ(Plus(Var(n'),Zero))"
    ),
    parse_script("simpl"),
)


def test_run_episode_dead_end_sets_flag():
    config = TrainerConfig(seed=0)
    trace, dead_end = run_episode(
        DEAD_END_TASK, _model(), ActionCache(NO_F_EQUAL, config.width), config, 0, random.Random(0), 0.0
    )
    assert trace == () and dead_end == DEAD_END_TASK.obligation


def _tiny_split():
    entries = [
        entry("g0", "|- Plus(Succ(Zero),Zero) = Succ(Zero)", "simpl; reflexivity"),
        entry(
            "w",
            "forall n, |- Plus(Var(n),Zero) = Var(n)",
            "intros; induction n; simpl; reflexivity; simpl; rewrite IH_n; reflexivity",
        ),
    ]
    return CorpusSplit(tuple(entries), (), seed=0)


def _fast_config(patch, **kw):
    """A short run's config. The settings that are TrainerConfig class
    constants, not fields, are set on the class through patch, a
    pytest.MonkeyPatch that undoes them when the test ends."""
    base = dict(
        seed=0,
        min_drop_length=0,
        max_drop_length=99,
        pretrain_epochs=50,
        rl_epochs=1,
        episodes_per_prefix=1,
        updates_per_episode=2,
    )
    base.update(kw)
    names = {f.name for f in fields(TrainerConfig)}
    for name, value in base.items():
        if name not in names:
            patch.setattr(TrainerConfig, name, value)
    return TrainerConfig(**{name: value for name, value in base.items() if name in names})


def test_train_zero_rl_epochs_equals_pretrained(monkeypatch):
    split = _tiny_split()
    model, report = train(split, NO_F_EQUAL, _fast_config(monkeypatch, rl_epochs=0))
    from valueprover.trainer import prepare_tasks as prep
    from valueprover.value_model import pretrain

    config = _fast_config(monkeypatch, rl_epochs=0)
    tasks = prep(split, NO_F_EQUAL, config.width, config)
    reference = ValueModel(64, gamma=0.9, seed=0)
    pretrain(
        reference,
        [(t.obligation, t.demo_length) for t in tasks],
        epochs=50,
        learning_rate=config.pretrain_learning_rate,
    )
    assert np.array_equal(model.get_flat_params(), reference.get_flat_params())
    assert report.episodes == 0 and report.updates == 0


def test_train_single_actor_reproducible(monkeypatch):
    first, report_a = train(_tiny_split(), NO_F_EQUAL, _fast_config(monkeypatch))
    second, report_b = train(_tiny_split(), NO_F_EQUAL, _fast_config(monkeypatch))
    assert np.array_equal(first.get_flat_params(), second.get_flat_params())
    assert report_a.update_losses == report_b.update_losses
    assert report_a.buffer_sizes == report_b.buffer_sizes


def test_train_report_contents(monkeypatch):
    _, report = train(_tiny_split(), NO_F_EQUAL, _fast_config(monkeypatch))
    assert report.task_count > 0
    assert report.episodes > 0 and len(report.update_losses) == report.updates
    assert set(report.buffer_sizes) == {"replay", "true_target", "negative"}
    assert len(report.validation_success) == 1
    payload = report.to_dict()
    assert payload["config"]["seed"] == 0


def test_episode_plan_matches_the_nested_loop(monkeypatch):
    config = _fast_config(monkeypatch, rl_epochs=2, episodes_per_prefix=2)
    tasks = prepare_tasks(_tiny_split(), NO_F_EQUAL, config.width, config)
    total = config.rl_epochs * config.episodes_per_prefix * sum(t.demo_length for t in tasks)
    expected = []
    for _ in range(config.rl_epochs):
        for task in tasks:
            for prefix in demonstration_schedule(task):
                for _ in range(config.episodes_per_prefix):
                    epsilon = trainer_module._epsilon_at(len(expected), total, config)
                    expected.append((task, prefix, epsilon))
    plan = list(trainer_module._episode_plan(tasks, config))
    assert len(plan) == total and plan == expected
    assert plan[0][2] == config.epsilon_start and plan[-1][2] == pytest.approx(config.epsilon_end)


@pytest.mark.parametrize("epochs", [0, 2])
def test_validation_runs_once_per_epoch(monkeypatch, epochs):
    config = _fast_config(monkeypatch, rl_epochs=epochs)
    _, report = train(_tiny_split(), NO_F_EQUAL, config)
    tasks = prepare_tasks(_tiny_split(), NO_F_EQUAL, config.width, config)
    assert report.episodes == epochs * config.episodes_per_prefix * sum(t.demo_length for t in tasks)
    assert len(report.validation_success) == epochs


def _worked_episodes(monkeypatch, worked_theorem):
    """The task of the worked proof, and one episode per demonstration
    prefix, played epsilon-greedily from a fixed seed."""
    thm, script = worked_theorem
    task = TrainingTask(thm.statement, script)
    config = _fast_config(monkeypatch)
    actions = ActionCache.of(NO_F_EQUAL, config.width)
    rng = random.Random(4)
    episodes = [
        run_episode(task, _model(), actions, config, prefix, rng, 0.5) for prefix in demonstration_schedule(task)
    ]
    return task, config, episodes


def test_buffer_conservation(monkeypatch, worked_theorem):
    # every step an episode plays, and its dead end, lands in exactly one
    # replay insert; dead ends additionally land in the negatives
    from valueprover.trainer import _Learner

    _, config, episodes = _worked_episodes(monkeypatch, worked_theorem)
    learner = _Learner(_model(), NO_F_EQUAL, config)
    for trace, dead_end in episodes:
        learner.ingest(trace, dead_end)
    assert len(learner.replay) == sum(len(trace) + (dead_end is not None) for trace, dead_end in episodes)
    assert len(learner.negatives) == len({dead_end.canonical() for _, dead_end in episodes if dead_end is not None})


def test_episodes_are_replays(monkeypatch, worked_theorem):
    # each step chains from the task's obligation and is the tactic's step,
    # and a dead end is the last state's first obligation, where no action
    # applies. The worked proof's episodes meet no dead end, so one episode
    # starts at one
    task, config, episodes = _worked_episodes(monkeypatch, worked_theorem)
    actions = ActionCache.of(NO_F_EQUAL, config.width)
    played = [(task, episode) for episode in episodes]
    played.append((DEAD_END_TASK, run_episode(DEAD_END_TASK, _model(), actions, config, 0, random.Random(0), 0.0)))
    for task, (trace, dead_end) in played:
        state = Hyperstate((task.obligation,))
        for before, tactic, after in trace:
            assert before == state and step_hyperstate(before, tactic) == after
            state = after
        if dead_end is not None:
            assert dead_end == state.first and actions(dead_end) == ()


def test_learner_true_target_min_rule(monkeypatch):
    # a discharge is a true target of its length, kept at the minimum over
    # updates; a dead end is replayed and negative
    from valueprover.trainer import _Learner

    learner = _Learner(_model(), NO_F_EQUAL, _fast_config(monkeypatch))
    state = parse_obligation("|- Zero = Zero")
    state_id = learner.table.intern(state)
    learner.true_targets.update(state_id, 5)
    learner.ingest(replay_script(Theorem("t", state), parse_script("reflexivity")), None)
    assert learner.true_targets.length_of(state_id) == 1 and len(learner.replay) == 1
    dead = parse_obligation("|- Zero = Succ(Zero)")
    learner.ingest([], dead)
    assert learner.table.intern(dead) in learner.negatives and len(learner.replay) == 2
    assert len(learner.table.obligations) == 2


def _reference_actions(ob, predictor, n):
    """(tactic, probability, children) of ob's applicable top-n actions,
    recomputed from the predictor on every call."""
    actions = []
    for prediction in predict_top_n(predictor, ob, n):
        try:
            children = apply_tactic(ob, prediction.tactic)
        except TacticError:
            continue
        actions.append((prediction.tactic, prediction.probability, children))
    return actions


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_learner_memoized_target_matches_reference(replay_obligations, cold_predictor, data):
    from valueprover.trainer import _Learner

    config = TrainerConfig(seed=0)
    predictor = cold_predictor()
    learner = _Learner(_model(), predictor, config)
    assert learner.actions is ActionCache.of(predictor, config.width)
    obligations = data.draw(st.lists(st.sampled_from(replay_obligations), min_size=1, max_size=8))
    for _ in range(2):
        ids = [learner.table.intern(ob) for ob in obligations + obligations]
        reference = [
            [children for _, _, children in _reference_actions(ob, predictor, config.width)]
            for ob in obligations + obligations
        ]
        assert bellman_target(learner.model, learner.table, ids) == _reference_targets(learner.model, reference)
        learner.model.update_batch(learner.table.rows(ids), [0.5] * len(ids), 0.5)
    assert len(learner.actions._entries) == len({ob.canonical() for ob in obligations})


def _reference_targets(model, batch_actions):
    """Bellman targets keyed by canonical text: the batch's distinct children
    are encoded one by one, stacked and valued in one forward pass, and each
    target is a bellman_backup over them."""
    children = {}
    for actions in batch_actions:
        for action in actions:
            for child in action:
                children.setdefault(child.canonical(), child)
    values = {}
    if children:
        _, out = model._forward(np.stack([model.encode(child) for child in children.values()]))
        values = dict(zip(children, out.tolist()))
    return [bellman_backup(actions, lambda child: values[child.canonical()], model.gamma) for actions in batch_actions]


class _ReferenceLearner:
    """The learner over obligation-keyed buffers: a deque of transitions,
    dicts of (obligation, length) and of dead ends, sampled through copies
    of their items, with targets from _reference_targets and update inputs
    stacked from per-row encodings."""

    def __init__(self, model, predictor, config):
        self.model, self.predictor, self.config = model, predictor, config
        self.replay = deque(maxlen=config.replay_capacity)
        self.true_targets = {}
        self.negatives = {}
        self.rng = random.Random(config.seed + 1)
        self.ingested = set()
        self.expanded = set()

    def ingest(self, trace, dead_end):
        """The trace's sources and the dead end are replayed, the dead end is
        negative, and the discharges, found by the reference frame stack,
        are true targets."""
        sources = [before.first for before, _, _ in trace]
        if dead_end is not None:
            sources.append(dead_end)
            self.negatives.setdefault(dead_end.canonical(), dead_end)
        for source in sources:
            self.replay.append(source)
            self.ingested.add(source.canonical())
        for start, end in reference_primitives.discharges(trace):
            self.record(sources[start], end - start)

    def record(self, obligation, length):
        """A true target, kept at the minimum length."""
        self.ingested.add(obligation.canonical())
        current = self.true_targets.get(obligation.canonical())
        if current is None or length < current[1]:
            self.true_targets[obligation.canonical()] = (obligation, length)

    def _sample(self, items, k):
        return [items[self.rng.randrange(len(items))] for _ in range(k)] if items else []

    def sample_batch(self):
        cfg = self.config
        n_replay = round(cfg.batch_size * cfg.replay_fraction)
        n_true = round(cfg.batch_size * cfg.true_fraction)
        n_negative = cfg.batch_size - n_replay - n_true
        replay_want = n_replay
        if not self.true_targets:
            replay_want += n_true
        if not self.negatives:
            replay_want += n_negative
        sources = self._sample(self.replay, replay_want)
        batch_actions = [
            [children for _, _, children in _reference_actions(source, self.predictor, cfg.width)]
            for source in sources
        ]
        for source, actions in zip(sources, batch_actions):
            self.expanded.add(source.canonical())
            self.expanded.update(child.canonical() for action in actions for child in action)
        batch = list(zip(sources, _reference_targets(self.model, batch_actions)))
        for obligation, length in self._sample(list(self.true_targets.values()), n_true):
            batch.append((obligation, self.model.gamma**length))
        for obligation in self._sample(list(self.negatives.values()), n_negative):
            batch.append((obligation, 0.0))
        return batch

    def update_once(self):
        batch = self.sample_batch()
        if batch:
            inputs = np.stack([self.model.encode(ob) for ob, _ in batch])
            self.model.update_batch(inputs, [target for _, target in batch], self.config.learning_rate)
        return batch


# (replay, true-target, negative) shares; negatives fill the rest of a batch
MIXES = [(0.5, 0.25, 0.25), (1.0, 0.0, 0.0), (0.75, 0.0, 0.25), (0.25, 0.75, 0.0)]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.sampled_from([2, 5, 4096]),
    mix=st.sampled_from(MIXES),
    data=st.data(),
)
def test_learner_batches_match_an_obligation_keyed_reference(small_split, cold_predictor, seed, capacity, mix, data):
    # the id-keyed learner draws the same obligations with the same targets
    # and reaches the same parameters as the obligation-keyed reference
    from valueprover.trainer import _Learner

    predictor = cold_predictor()
    replay, true, _ = mix
    # the monkeypatch fixture spans every example of a test; each example
    # sets its drawn constants and undoes them
    with pytest.MonkeyPatch.context() as patch:
        config = _fast_config(
            patch,
            seed=seed,
            replay_capacity=capacity,
            replay_fraction=replay,
            true_fraction=true,
            batch_size=data.draw(st.integers(1, 32)),
        )
        tasks = prepare_tasks(small_split, predictor, config.width, config)
        tasks = data.draw(st.lists(st.sampled_from(tasks), min_size=1, max_size=4))
        learner = _Learner(ValueModel(64, gamma=0.9, seed=seed), predictor, config)
        reference = _ReferenceLearner(ValueModel(64, gamma=0.9, seed=seed), predictor, config)
        batches = []
        sample_batch = learner.sample_batch
        learner.sample_batch = lambda: batches.append(sample_batch()) or batches[-1]
        episode_rng = random.Random(seed)
        for task in tasks:
            learner.true_targets.update(learner.table.intern(task.obligation), task.demo_length)
            reference.record(task.obligation, task.demo_length)
        for _ in range(data.draw(st.integers(1, 8))):
            task = tasks[episode_rng.randrange(len(tasks))]
            prefix = episode_rng.randrange(task.demo_length + 1)
            episode = run_episode(task, learner.model, learner.actions, config, prefix, episode_rng, 0.5)
            learner.ingest(*episode)
            reference.ingest(*episode)
            for _ in range(data.draw(st.integers(0, 3))):
                learner.update_once()
                expected = reference.update_once()
                ids, targets = batches[-1]
                assert [learner.table.obligations[i] for i in ids] == [ob for ob, _ in expected]
                assert targets == [target for _, target in expected]
                assert np.array_equal(learner.model.get_flat_params(), reference.model.get_flat_params())
        assert learner.buffer_sizes() == {
            "replay": len(reference.replay),
            "true_target": len(reference.true_targets),
            "negative": len(reference.negatives),
        }
        assert [learner.table.obligations[i].canonical() for i in learner.negatives.ids] == list(reference.negatives)
        # the table holds what the buffers were given plus the children of the
        # sources whose targets were computed, each once; never more
        assert len(learner.table.obligations) == len(reference.ingested | reference.expanded)
        canonical = [ob.canonical() for ob in learner.table.obligations]
        assert len(set(canonical)) == len(canonical)


def test_train_with_memo_matches_reference_targets(monkeypatch, small_split, trained_predictor):
    config = _fast_config(monkeypatch, updates_per_episode=4, max_drop_length=6)
    memo_model, memo_report = train(small_split, trained_predictor, config)
    # recompute every obligation's actions, for the learner and the episodes
    reference = SimpleNamespace(of=lambda predictor, n: lambda ob: _reference_actions(ob, predictor, n))
    monkeypatch.setattr(trainer_module, "ActionCache", reference)
    reference_model, reference_report = train(small_split, trained_predictor, config)
    assert memo_report.updates > 0
    assert memo_report.update_losses == reference_report.update_losses
    assert np.array_equal(memo_model.get_flat_params(), reference_model.get_flat_params())
    assert memo_report.buffer_sizes == reference_report.buffer_sizes


def test_train_predicts_actions_once_per_obligation(monkeypatch, small_split, cold_predictor):
    # predictor.predict_top_n is called by predicted_actions alone; the
    # task filter, the learner, the episodes and validation share one cache
    predicted = []
    predict = predictor_module.predict_top_n

    def counted(predictor, ob, n):
        predicted.append(ob.canonical())
        return predict(predictor, ob, n)

    monkeypatch.setattr(predictor_module, "predict_top_n", counted)
    _, report = train(small_split, cold_predictor(), _fast_config(monkeypatch, updates_per_episode=4, max_drop_length=6))
    assert report.updates > 0 and predicted
    assert len(predicted) == len(set(predicted))


def test_train_end_to_end_learns_its_validation_tasks():
    from valueprover.corpus import generate_corpus, split_corpus
    from valueprover.cli import _training_pairs
    from valueprover.predictor import train_predictor

    entries, _ = generate_corpus(3, (8, 6, 6))
    split = split_corpus(entries, 0, 0.25)
    predictor = train_predictor(_training_pairs(split.train), epochs=250, learning_rate=0.5, seed=0)
    config = TrainerConfig(seed=0, min_drop_length=0, max_drop_length=9, pretrain_epochs=400)
    model, report = train(split, predictor, config)
    assert report.buffer_sizes["replay"] > 0 and report.buffer_sizes["true_target"] > 0
    # the trained model finishes its validation tasks greedily
    assert report.validation_success[-1] >= 0.9


def test_checkpoint_round_trip(monkeypatch, tmp_path):
    config = _fast_config(monkeypatch)
    model, _ = train(_tiny_split(), NO_F_EQUAL, config)
    path = tmp_path / "model.ckpt"

    from valueprover.predictor import Predictor

    real_predictor = Predictor(np.zeros((6, 14)), np.zeros(6))
    save_checkpoint(str(path), model, real_predictor, config)
    loaded_model, loaded_predictor, loaded_config = load_checkpoint(str(path))
    state = parse_obligation("|- Zero = Zero")
    assert loaded_model.v_value(state) == model.v_value(state)
    assert loaded_config == config
    assert np.array_equal(loaded_predictor.weights, real_predictor.weights)


def test_checkpoint_records_each_setting_once(monkeypatch, tmp_path):
    # the config holds every setting; the model sections hold only weights
    import json

    from valueprover.predictor import Predictor
    from valueprover.trainer import CHECKPOINT_VERSION

    config = _fast_config(monkeypatch)
    model, _ = train(_tiny_split(), NO_F_EQUAL, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, Predictor(np.zeros((6, 14)), np.zeros(6)), config)
    payload = json.loads(path.read_text())
    assert payload["version"] == CHECKPOINT_VERSION == 3
    assert payload["config"] == config.to_dict()
    assert set(payload) == {"version", "config", "predictor", "value_model"}
    assert set(payload["predictor"]) == {"weights", "bias"}
    assert set(payload["value_model"]) == {"w_hidden", "b_hidden", "w_out", "b_out"}


def test_loaded_model_takes_its_settings_from_the_config(monkeypatch, tmp_path, trained_predictor):
    from valueprover.encoder import encode_hashed

    config = _fast_config(monkeypatch, encoder_dim=16, hidden_dim=8, gamma=0.8)
    model, _ = train(_tiny_split(), NO_F_EQUAL, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, trained_predictor, config)
    loaded, loaded_predictor, loaded_config = load_checkpoint(str(path))
    # a fitted predictor's weights come back bit for bit
    assert trained_predictor.weights.any() and trained_predictor.bias.any()
    assert loaded_predictor.weights.tobytes() == trained_predictor.weights.tobytes()
    assert loaded_predictor.bias.tobytes() == trained_predictor.bias.tobytes()
    assert loaded_config == config
    assert (loaded.input_dim, loaded.hidden_dim, loaded.gamma) == (config.encoder_dim, config.hidden_dim, config.gamma)
    state = parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    assert loaded.encode(state).tobytes() == encode_hashed(state, config.encoder_dim).tobytes()
    assert loaded.get_flat_params().tobytes() == model.get_flat_params().tobytes()
    assert loaded.v_value(state) == model.v_value(state)


def test_invalid_configs_rejected(monkeypatch):
    with pytest.raises(ValueError):
        TrainerConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainerConfig(width=0)
    for name in ("rl_epochs", "pretrain_epochs"):
        TrainerConfig(**{name: 0})
        with pytest.raises(ValueError, match=f"{name} must be at least 0"):
            TrainerConfig(**{name: -1})
    with pytest.raises(ValueError, match="actor_count must be at least 1"):
        TrainerConfig(actor_count=0)
    # NaN fails every comparison, so each check must be written to reject it
    TrainerConfig(test_ratio=0.0)
    TrainerConfig(test_ratio=1.0)
    for bad in (3.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="test_ratio must lie in"):
            TrainerConfig(test_ratio=bad)
    with pytest.raises(ValueError, match="rl_epochs must be at least"):
        TrainerConfig(rl_epochs=math.nan)
    # loaded configs can hold any JSON value; a refusal names the field
    for name, bad, message in (
        ("width", 2.5, "width must be an integer"),
        ("width", True, "width must be a number"),
        ("gamma", "0.9", "gamma must be a number"),
        ("subproof_tasks", 1, "subproof_tasks must be true or false"),
        ("seed", -1, "seed must be at least 0"),
    ):
        with pytest.raises(ValueError, match=message):
            TrainerConfig(**{name: bad})
    TrainerConfig(gamma=np.float64(0.5), test_ratio=1, seed=0)
    with pytest.raises(ValueError, match="missing trainer config keys: gamma, width"):
        TrainerConfig.from_dict({k: v for k, v in TrainerConfig().to_dict().items() if k not in ("gamma", "width")})
    # the actor/learner mode is gone; the benchmark still passes actor_count
    with pytest.raises(ValueError, match="actor_count must be 1"):
        train(_tiny_split(), NO_F_EQUAL, _fast_config(monkeypatch, actor_count=2))
