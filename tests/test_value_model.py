import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from valueprover.encoder import encode_hashed
from valueprover.env import Hyperstate, Tactic, parse_obligation
from valueprover import env as env_module, predictor as predictor_module
from valueprover.predictor import ActionCache, Predictor, predict_top_n, predicted_actions
from valueprover.value_model import (
    NegativeBuffer,
    ObligationTable,
    ReplayBuffer,
    TrueTargetBuffer,
    UndefinedStepsError,
    ValueModel,
    bellman_backup,
    bellman_target,
    explore_obligation_graph,
    pretrain,
    product_value,
    steps_estimate,
    tabular_value_iteration,
)


@pytest.fixture
def model():
    return ValueModel(64, gamma=0.9, seed=0)


def ob(text):
    return parse_obligation(text)


def test_v_value_deterministic_and_bounded(model, small_corpus):
    for entry in small_corpus[:5]:
        state = entry.theorem.statement
        value = model.v_value(state)
        assert 0.0 < value < 1.0
        assert model.v_value(state) == value


def test_identical_encodings_get_identical_values(model):
    # simpl's Succ migration preserves the token-gram multiset, so these two
    # distinct obligations hash identically and must score identically
    pre = ob(
        "n', IH_n : Succ(Plus(Var(n'),Succ(Zero))) = Succ(Succ(Plus(Var(n'),Zero))) |- "
        "Succ(Plus(Succ(Var(n')),Succ(Zero))) = Succ(Succ(Plus(Succ(Var(n')),Zero)))"
    )
    post = ob(
        "n', IH_n : Succ(Plus(Var(n'),Succ(Zero))) = Succ(Succ(Plus(Var(n'),Zero))) |- "
        "Succ(Succ(Plus(Var(n'),Succ(Zero)))) = Succ(Succ(Succ(Plus(Var(n'),Zero))))"
    )
    assert pre != post
    assert np.array_equal(model.encode(pre), model.encode(post))
    assert model.v_value(pre) == model.v_value(post)


def test_hyperstate_value_is_product(model):
    a, b = ob("|- Zero = Zero"), ob("|- Succ(Zero) = Succ(Zero)")
    va, vb = model.v_value(a), model.v_value(b)
    assert model.hyperstate_value(Hyperstate(())) == 1.0
    assert model.hyperstate_value(Hyperstate((a,))) == va
    assert model.hyperstate_value(Hyperstate((a, b))) == va * vb


def test_value_combination_worked_values():
    # gamma^1 and gamma^5 multiply to 0.531441 = gamma^6, i.e. 6 steps left
    combined = product_value([0.9, 0.9**5])
    assert combined == pytest.approx(0.531441, abs=1e-12)
    assert steps_estimate(combined, 0.9) == pytest.approx(6.0, abs=1e-12)
    assert steps_estimate(0.59049, 0.9) == pytest.approx(5.0, abs=1e-12)


def test_steps_estimate_edges():
    assert steps_estimate(1.0, 0.9) == 0.0
    assert steps_estimate(0.9, 0.9) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UndefinedStepsError):
        steps_estimate(0.0, 0.9)
    with pytest.raises(ValueError):
        steps_estimate(0.5, 1.5)


def test_log_product_duality(model, small_corpus):
    rng = random.Random(0)
    pool = [e.theorem.statement for e in small_corpus]
    for _ in range(50):
        states = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 4)))
        h = Hyperstate(states)
        value = model.hyperstate_value(h)
        per_ob = sum(steps_estimate(model.v_value(o), model.gamma) for o in h.obligations)
        assert math.isclose(steps_estimate(value, model.gamma), per_ob, abs_tol=1e-9)


def _target(model, state, predictor, n):
    table = ObligationTable(model, ActionCache(predictor, n))
    return bellman_target(model, table, [table.intern(state)])[0]


def test_bellman_target_discharge_is_gamma(model, trained_predictor):
    closable = ob("|- Zero = Zero")
    target = _target(model, closable, trained_predictor, 5)
    # reflexivity produces no obligations: empty product, so exactly gamma
    # unless some sibling action scores higher
    assert target >= 0.9 - 1e-12
    values = [
        model.gamma * product_value(model.v_value(c) for c in children)
        for tactic, children in _applicable(closable, trained_predictor, 5)
    ]
    assert target == pytest.approx(max(values), abs=0)


def _applicable(state, predictor, n):
    from valueprover.env import TacticError, apply_tactic

    out = []
    for p in predict_top_n(predictor, state, n):
        try:
            out.append((p.tactic, apply_tactic(state, p.tactic)))
        except TacticError:
            continue
    return out


def test_predicted_actions_match_reference_loop(trained_predictor, replay_obligations):
    for state in replay_obligations:
        for n in (1, 3, 6):
            tried, actions = predicted_actions(trained_predictor, state, n)
            assert [(tactic, children) for tactic, _, children in actions] == _applicable(
                state, trained_predictor, n
            )
            predictions = predict_top_n(trained_predictor, state, n)
            assert tried == len(predictions)
            probabilities = {p.tactic: p.probability for p in predictions}
            assert all(probability == probabilities[tactic] for tactic, probability, _ in actions)


def test_bellman_target_dead_end_is_zero(model, trained_predictor):
    dead = ob(
        "n', IH_n : Succ(Plus(Var(n'),Succ(Zero))) = Succ(Succ(Plus(Var(n'),Zero))) |- "
        "Plus(Var(n'),Succ(Zero)) = Succ(Plus(Var(n'),Zero))"
    )
    assert _applicable(dead, trained_predictor, 6) == []
    assert _target(model, dead, trained_predictor, 6) == 0.0


def test_bellman_targets_never_exceed_gamma(model, trained_predictor, small_corpus):
    # spawning or discharging any number of obligations cannot beat gamma:
    # v values are in (0,1), so gamma * product <= gamma < 1
    from valueprover.env import extract_subproof_tasks

    seen = set()
    for entry in small_corpus:
        for obligation, _ in extract_subproof_tasks(entry.theorem, entry.proof):
            if obligation.canonical() in seen:
                continue
            seen.add(obligation.canonical())
            target = _target(model, obligation, trained_predictor, 5)
            assert 0.0 <= target <= model.gamma


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_batched_targets_match_per_child_v_value(trained_predictor, replay_obligations, data):
    model = ValueModel(64, gamma=0.9, seed=data.draw(st.integers(0, 3)))
    sources = data.draw(st.lists(st.sampled_from(replay_obligations), max_size=32))
    actions = ActionCache(trained_predictor, 5)
    table = ObligationTable(model, actions)
    targets = bellman_target(model, table, [table.intern(source) for source in sources])
    assert len(targets) == len(sources) and not model._value_cache
    for source, target in zip(sources, targets):
        reference = bellman_backup([children for _, _, children in actions(source)], model.v_value, model.gamma)
        assert math.isclose(target, reference, rel_tol=1e-12)


def test_action_cache_memoizes_and_evicts(monkeypatch, cold_predictor, replay_obligations):
    monkeypatch.setattr(env_module, "CACHE_SIZE", 8)  # the bound cache_put reads
    calls = []

    def counted(predictor, state, n):
        calls.append(state.canonical())
        return predicted_actions(predictor, state, n)

    monkeypatch.setattr(predictor_module, "predicted_actions", counted)
    distinct = list({state.canonical(): state for state in replay_obligations}.values())
    assert len(distinct) > 8
    predictor = cold_predictor()
    actions = ActionCache.of(predictor, 5)
    for state in distinct + distinct[-3:]:
        expected = predicted_actions(predictor, state, 5)
        assert actions.entry(state) == expected and actions(state) == expected[1]
        assert len(actions._entries) <= 8
    assert calls == [state.canonical() for state in distinct]
    assert actions(distinct[-1]) is actions(distinct[-1])
    actions(distinct[0])  # evicted long ago, so computed again
    assert calls[-1] == distinct[0].canonical() and len(calls) == len(distinct) + 1


def test_action_cache_lives_on_the_predictor(cold_predictor, replay_obligations):
    predictor, twin = cold_predictor(), cold_predictor()
    shared = ActionCache.of(predictor, 5)
    assert ActionCache.of(predictor, 5) is shared
    assert ActionCache.of(predictor, 3) is not shared and ActionCache.of(twin, 5) is not shared
    shared(replay_obligations[0])
    # the caches are no part of the predictor's value: ActionCache.of keeps
    # them in the instance dict, not in a dataclass field
    assert "_action_caches" not in {f.name for f in dataclasses.fields(Predictor)}
    assert vars(predictor)["_action_caches"] == {5: shared, 3: ActionCache.of(predictor, 3)}
    same = Predictor(predictor.weights, predictor.bias, predictor.train_losses)
    ActionCache.of(same, 4)
    assert same == predictor and vars(same)["_action_caches"].keys() == {4}

    class DuckPredictor:
        def template_probabilities(self, features):
            return predictor.template_probabilities(features)

    duck = DuckPredictor()
    assert ActionCache.of(duck, 5) is ActionCache.of(duck, 5)
    assert ActionCache.of(duck, 5).entry(replay_obligations[0]) == shared.entry(replay_obligations[0])


def test_bellman_backup_formula_with_table():
    state = ob("n |- Plus(Var(n),Zero) = Var(n)")
    base, step = None, None
    from valueprover.env import apply_tactic

    base, step = apply_tactic(state, Tactic("induction", "n"))
    table = {base.canonical(): 0.9, step.canonical(): 0.59049}

    class OneAction:
        def template_probabilities(self, _):
            probs = np.zeros(6)
            probs[1] = 1.0  # induction
            return probs

    tried, applicable = predicted_actions(OneAction(), state, 1)
    actions = [children for _, _, children in applicable]
    assert tried == 1 and actions == [(base, step)]
    target = bellman_backup(actions, lambda o: table[o.canonical()], 0.9)
    assert target == pytest.approx(0.9 * 0.531441, abs=1e-12)
    assert bellman_backup([], lambda o: table[o.canonical()], 0.9) == 0.0


def test_model_caches_are_bounded(monkeypatch, model, replay_obligations):
    monkeypatch.setattr(env_module, "CACHE_SIZE", 8)  # the bound cache_put reads
    distinct = list({state.canonical(): state for state in replay_obligations}.values())
    assert len(distinct) > 8
    fresh = ValueModel(64, gamma=0.9, seed=0)
    for state in distinct + distinct[:3]:
        assert np.array_equal(model.encode(state), encode_hashed(state, 64))
        assert model.v_value(state) == fresh.v_value(state)
        assert len(model._encoding_cache) <= 8 and len(model._value_cache) <= 8
    assert len(model._encoding_cache) == 8


def test_update_batch_edges(model):
    state = ob("|- Zero = Zero")
    inputs = model.encode(state)[None, :]
    current = model.v_value(state)
    before = model.get_flat_params().copy()
    loss = model.update_batch(inputs, [current], 0.5)
    assert loss == pytest.approx(0.0, abs=1e-30)
    assert np.array_equal(model.get_flat_params(), before)
    loss = model.update_batch(inputs, [0.1], 0.0)
    assert loss > 0
    assert np.array_equal(model.get_flat_params(), before)
    with pytest.raises(ValueError):
        model.update_batch(inputs[:0], [], 0.1)
    # min and max over a list skip a NaN that is not first; no bad target
    # may move a parameter
    pair = np.concatenate([inputs, inputs])
    for targets in ([1.5], [math.nan, 0.5], [0.5, math.nan], [0.5, math.inf], [-math.inf, 0.5]):
        with pytest.raises(ValueError, match=r"targets must lie in \[0, 1\]"):
            model.update_batch(pair[: len(targets)], targets, 0.1)
        assert np.array_equal(model.get_flat_params(), before)


def test_update_batch_converges(model):
    inputs = np.stack([model.encode(ob("|- Zero = Zero")), model.encode(ob("|- Succ(Zero) = Succ(Zero)"))])
    loss = None
    for _ in range(800):
        loss = model.update_batch(inputs, [0.9, 0.81], 0.5)
    assert loss < 1e-3


def test_pretrain_targets_and_loss(model):
    tasks = [(ob("|- Plus(Zero,Zero) = Zero"), 3), (ob("|- Zero = Zero"), 1)]
    losses = pretrain(model, tasks, epochs=300, learning_rate=0.02)
    assert losses[-1] < losses[0]
    assert model.v_value(tasks[0][0]) == pytest.approx(0.9**3, abs=0.02)
    assert model.v_value(tasks[1][0]) == pytest.approx(0.9, abs=0.02)
    with pytest.raises(ValueError):
        pretrain(model, [], epochs=1, learning_rate=0.02)
    with pytest.raises(ValueError):
        pretrain(model, [(tasks[0][0], 0)], epochs=1, learning_rate=0.02)


def test_gradients_match_finite_differences(model, small_corpus):
    inputs = np.stack([model.encode(e.theorem.statement) for e in small_corpus[:8]])
    targets = np.linspace(0.1, 0.9, len(inputs))
    _, (gwh, gbh, gwo, gbo) = model.loss_and_grads(inputs, targets)
    flat_grad = np.concatenate([gwh.ravel(), gbh, gwo, [gbo]])
    flat = model.get_flat_params()
    rng = np.random.default_rng(1)
    step = 1e-5
    for _ in range(100):
        i = int(rng.integers(len(flat)))
        bumped = flat.copy()
        bumped[i] += step
        model.set_flat_params(bumped)
        up, _ = model.loss_and_grads(inputs, targets)
        bumped[i] -= 2 * step
        model.set_flat_params(bumped)
        down, _ = model.loss_and_grads(inputs, targets)
        numeric = (up - down) / (2 * step)
        denom = max(abs(numeric), abs(flat_grad[i]), 1e-8)
        assert abs(numeric - flat_grad[i]) / denom < 1e-4
    model.set_flat_params(flat)


def test_replay_buffer_fifo_and_sampling():
    buffer = ReplayBuffer(capacity=3)
    a, b = 0, 1
    for item in (a, a, a, b):
        buffer.push(item)
    assert len(buffer) == 3
    rng1, rng2 = random.Random(5), random.Random(5)
    assert buffer.sample(4, rng1) == buffer.sample(4, rng2)
    # the oldest entries go first; draws index the rest from oldest to newest
    for item in (2, 3, 4):
        buffer.push(item)
    assert buffer.sample(50, random.Random(5)) == [(2, 3, 4)[i] for i in _draws(5, 3, 50)]
    with pytest.raises(ValueError):
        ReplayBuffer(0)


def _draws(seed, n, k):
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(k)]


# buffer sizes around every power of two up to 4096, where randrange's
# rejection loop changes the number of bits it draws
BUFFER_SIZES = st.one_of(
    st.integers(1, 5000),
    st.builds(lambda j, d: max(1, 2**j + d), st.integers(0, 12), st.sampled_from((-1, 0, 1))),
)


@settings(max_examples=200, deadline=None)
@given(n=BUFFER_SIZES, k=st.integers(0, 64), seed=st.integers(0, 2**64))
def test_sampling_consumes_the_randrange_stream(n, k, seed):
    buffer = ReplayBuffer(capacity=n)
    for ob_id in range(n):
        buffer.push(7 * ob_id + 3)
    ids = buffer.ids
    rng, reference_rng = random.Random(seed), random.Random(seed)
    # the sampler as it was, one randrange call per row
    expected = [ids[reference_rng.randrange(n)] for _ in range(k)]
    assert buffer.sample(k, rng) == expected
    assert rng.getstate() == reference_rng.getstate()
    # an empty buffer draws nothing
    state = rng.getstate()
    assert NegativeBuffer().sample(k, rng) == [] and rng.getstate() == state


def _reference_backup(actions, value_of, gamma):
    """bellman_backup as it was, through product_value per action."""
    best = 0.0
    for children in actions:
        candidate = gamma * math.prod(map(value_of, children), start=1.0)
        if candidate > best:
            best = candidate
    return best


CHILD_VALUES = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(CHILD_VALUES, min_size=1, max_size=12),
    data=st.data(),
    gamma=st.one_of(st.just(0.9), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
)
def test_bellman_backup_matches_the_product_value_formula(values, data, gamma):
    # actions are tuples of child indexes; () is a discharging action
    children = st.lists(st.integers(0, len(values) - 1), max_size=6).map(tuple)
    actions = data.draw(st.lists(children, max_size=6))
    got = bellman_backup(actions, values.__getitem__, gamma)
    assert got.hex() == _reference_backup(actions, values.__getitem__, gamma).hex()


def _reference_loss_and_grads(model, inputs, targets):
    """ValueModel.loss_and_grads as it was, with ndarray.sum."""
    hidden, out = model._forward(inputs)
    diff = out - targets
    n = len(targets)
    loss = float(np.add.reduce(diff * diff)) / n
    d_out = 2.0 * diff / n
    d_pre = d_out * out * (1.0 - out)
    grad_w_out = d_pre @ hidden
    grad_b_out = float(d_pre.sum())
    d_hidden = d_pre[:, None] * model.w_out * (1.0 - hidden * hidden)
    grad_w_hidden = d_hidden.T @ inputs
    grad_b_hidden = d_hidden.sum(axis=0)
    return loss, (grad_w_hidden, grad_b_hidden, grad_w_out, grad_b_out)


def _reference_pretrain(model, tasks, epochs, learning_rate):
    """pretrain as it was: new arrays for every Adam expression and a
    get_flat_params/set_flat_params round trip per step."""
    inputs = np.stack([model.encode(ob) for ob, _ in tasks])
    targets = np.array([model.gamma**length for _, length in tasks])
    flat_m = np.zeros_like(model.get_flat_params())
    flat_v = np.zeros_like(flat_m)
    losses = []
    for step in range(1, epochs + 1):
        loss, (gwh, gbh, gwo, gbo) = _reference_loss_and_grads(model, inputs, targets)
        losses.append(loss)
        grad = np.concatenate([gwh.ravel(), gbh, gwo, [gbo]])
        flat_m = 0.9 * flat_m + 0.1 * grad
        flat_v = 0.999 * flat_v + 0.001 * grad * grad
        m_hat = flat_m / (1.0 - 0.9**step)
        v_hat = flat_v / (1.0 - 0.999**step)
        params = model.get_flat_params() - learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        model.set_flat_params(params)
    return losses


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    epochs=st.integers(0, 40),
    learning_rate=st.one_of(st.just(0.02), st.floats(1e-4, 1.0)),
    hidden_dim=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)
def test_pretrain_matches_the_reference_adam_loop(replay_obligations, data, epochs, learning_rate, hidden_dim, seed):
    tasks = data.draw(st.lists(st.tuples(st.sampled_from(replay_obligations), st.integers(1, 9)), min_size=1, max_size=8))
    model, reference = (ValueModel(16, 0.9, hidden_dim, seed) for _ in range(2))
    losses = pretrain(model, tasks, epochs=epochs, learning_rate=learning_rate)
    assert losses == _reference_pretrain(reference, tasks, epochs, learning_rate)
    assert model.get_flat_params().tobytes() == reference.get_flat_params().tobytes()
    assert type(model.b_out) is float


def test_true_target_buffer_min_rule():
    buffer = TrueTargetBuffer()
    state = 3
    buffer.update(state, 5)
    buffer.update(state, 4)
    assert buffer.length_of(state) == 4
    buffer.update(state, 7)
    assert buffer.length_of(state) == 4
    other = 1
    buffer.update(other, 2)
    assert buffer.length_of(other) == 2 and buffer.length_of(0) is None
    with pytest.raises(ValueError):
        buffer.update(state, 0)
    # draws index the ids in first-insertion order, whatever their lengths
    assert buffer.sample(20, random.Random(2)) == [(3, 1)[i] for i in _draws(2, 2, 20)]


def test_negative_buffer_membership():
    buffer = NegativeBuffer()
    state = 7
    assert state not in buffer
    buffer.add(state)
    buffer.add(state)
    assert state in buffer and len(buffer) == 1
    buffer.add(2)
    assert buffer.ids == [7, 2] and buffer.sample(0, random.Random(0)) == []


def test_obligation_table_interns_each_obligation_once(model, trained_predictor, replay_obligations):
    actions = ActionCache(trained_predictor, 5)
    table = ObligationTable(model, actions)
    ids = [table.intern(state) for state in replay_obligations]
    distinct = {state.canonical() for state in replay_obligations}
    assert len(table.obligations) == len(distinct) == len(set(ids))
    for state, ob_id in zip(replay_obligations, ids):
        assert table.obligations[ob_id].canonical() == state.canonical()
        assert table.rows([ob_id])[0].tobytes() == encode_hashed(state, 64).tobytes()
        assert table.intern(parse_obligation(state.canonical())) == ob_id
    assert len(model._encoding_cache) == len(distinct)
    assert np.array_equal(table.rows(ids), np.stack([model.encode(state) for state in replay_obligations]))
    for state, ob_id in zip(replay_obligations, ids):
        children = table.children(ob_id)
        assert [[table.obligations[c] for c in action] for action in children] == [
            list(result) for _, _, result in actions(state)
        ]
        assert table.children(ob_id) is children
    distinct.update(c.canonical() for state in replay_obligations for _, _, result in actions(state) for c in result)
    assert len(table.obligations) == len(distinct) == len(model._encoding_cache) > 64  # the matrix grew
    assert [table.rows([ob_id])[0].tobytes() for ob_id in range(len(table.obligations))] == [
        encode_hashed(state, 64).tobytes() for state in table.obligations
    ]


def test_tabular_value_iteration_small_graph(trained_predictor):
    roots = [ob("forall n, |- Plus(Var(n),Zero) = Var(n)")]
    graph = explore_obligation_graph(roots, trained_predictor, 5)
    values = tabular_value_iteration(graph, 0.9)
    from valueprover.oracle import shortest_proof
    from valueprover.predictor import predict_top_n as topn

    def provider(state):
        return [p.tactic for p in topn(trained_predictor, state, 5)]

    for key, (state, actions) in graph.items():
        expected = shortest_proof(Hyperstate((state,)), 12, provider).value(0.9)
        assert values[key] == pytest.approx(expected, abs=1e-9)


def test_obligation_graph_reads_the_shared_action_cache(cold_predictor):
    # the graph sees the same actions as search and training, computed once
    predictor = cold_predictor()
    graph = explore_obligation_graph([ob("forall n, |- Plus(Var(n),Zero) = Var(n)")], predictor, 5)
    actions = ActionCache.of(predictor, 5)
    assert actions._entries.keys() == graph.keys()
    for state, children in graph.values():
        assert children == [[c.canonical() for c in result] for _, _, result in actions(state)]
