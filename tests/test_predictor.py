import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import IDENTIFIERS
from valueprover import env
from valueprover.env import TEMPLATES, ContextVar, Hypothesis, Obligation, Tactic, parse_obligation
from valueprover.predictor import (
    FEATURE_NAMES,
    Predictor,
    TacticPrediction,
    cross_entropy_loss_and_grads,
    featurize,
    predict_top_n,
    softmax,
    train_predictor,
)
from valueprover.terms import Plus, Succ, Var, Zero, occurs

from reference_primitives import term_size


def test_featurize_examples():
    closed = featurize(parse_obligation("|- Zero = Zero"))
    named = dict(zip(FEATURE_NAMES, closed))
    assert named["goal_sides_equal"] == 1.0 and named["has_leading_binder"] == 0.0

    quantified = featurize(parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)"))
    assert dict(zip(FEATURE_NAMES, quantified))["has_leading_binder"] == 1.0

    step_after_simpl = parse_obligation(
        "n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Succ(Plus(Var(n'),Zero)) = Succ(Var(n'))"
    )
    named = dict(zip(FEATURE_NAMES, featurize(step_after_simpl)))
    assert named["hypothesis_lhs_in_goal"] == 1.0
    assert named["goal_roots_both_succ"] == 1.0
    assert named["hyp_count_1"] == 1.0


def test_redex_features_follow_the_rewrite_rules():
    named = dict(zip(FEATURE_NAMES, featurize(parse_obligation("|- Plus(Zero,Zero) = Zero"))))
    assert named["goal_has_redex_plus_zero"] == 1.0 and named["goal_has_redex_plus_succ"] == 0.0
    named = dict(
        zip(FEATURE_NAMES, featurize(parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)")))
    )
    assert named["goal_has_redex_plus_succ"] == 1.0
    # Plus(n, Zero) is stuck: not a redex of either rule
    named = dict(zip(FEATURE_NAMES, featurize(parse_obligation("n |- Plus(Var(n),Zero) = Var(n)"))))
    assert named["goal_has_redex_plus_zero"] == 0.0 and named["goal_has_redex_plus_succ"] == 0.0


def test_featurize_deterministic():
    ob = parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    assert np.array_equal(featurize(ob), featurize(ob))


def test_single_pair_is_learned():
    ob = parse_obligation("|- Zero = Zero")
    predictor = train_predictor([(ob, Tactic("reflexivity"))] * 4, epochs=200, learning_rate=0.5, seed=0)
    assert predict_top_n(predictor, ob, 1)[0].tactic == Tactic("reflexivity")


def test_zero_learning_rate_keeps_initialization():
    ob = parse_obligation("|- Zero = Zero")
    trained = train_predictor([(ob, Tactic("reflexivity"))], epochs=50, learning_rate=0.0, seed=3)
    fresh = train_predictor([(ob, Tactic("reflexivity"))], epochs=0, learning_rate=0.5, seed=3)
    assert np.array_equal(trained.weights, fresh.weights)
    assert np.array_equal(trained.bias, fresh.bias)


def test_training_deterministic_and_loss_improves(small_split, trained_predictor):
    from valueprover.cli import _training_pairs

    again = train_predictor(_training_pairs(small_split.train), epochs=250, learning_rate=0.5, seed=0)
    assert np.array_equal(again.weights, trained_predictor.weights)
    losses = trained_predictor.train_losses
    assert min(losses) == losses[-1] or losses[-1] <= losses[0]
    assert losses[-1] < losses[0]


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        train_predictor([], epochs=200, learning_rate=0.5, seed=0)


def test_predict_top_n_shapes(trained_predictor):
    quantified = parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    top1 = predict_top_n(trained_predictor, quantified, 1)
    assert len(top1) == 1
    # a trained predictor puts intros first on a forall goal
    assert top1[0].tactic == Tactic("intros")

    closed = parse_obligation("|- Zero = Zero")
    preds = predict_top_n(trained_predictor, closed, 6)
    # no context: induction and rewrite cannot be resolved
    assert len(preds) <= 4
    assert all(p.tactic.template not in ("induction", "rewrite") for p in preds)

    probs = [p.probability for p in preds]
    assert all(b <= a for a, b in zip(probs, probs[1:]))
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert sum(probs) <= 1.0 + 1e-12

    with pytest.raises(ValueError):
        predict_top_n(trained_predictor, closed, 0)


def test_predict_deterministic(trained_predictor):
    ob = parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    assert predict_top_n(trained_predictor, ob, 5) == predict_top_n(trained_predictor, ob, 5)


def test_argument_resolution_uses_context_order(trained_predictor):
    two_vars = parse_obligation(
        "forall n m, |- Plus(Var(n),Succ(Var(m))) = Succ(Plus(Var(n),Var(m)))"
    )
    from valueprover.env import Tactic as T, apply_tactic

    (introduced,) = apply_tactic(two_vars, T("intros"))
    preds = predict_top_n(trained_predictor, introduced, 6)
    inductions = [p.tactic for p in preds if p.tactic.template == "induction"]
    assert inductions == [T("induction", "n")]


def test_each_prediction_scans_its_obligation_once(monkeypatch, cold_predictor):
    # the features and both arguments come from one pass over the obligation
    from valueprover import predictor as predictor_module

    scanned = []
    scan = predictor_module._scan

    def counted(ob):
        scanned.append(ob)
        return scan(ob)

    monkeypatch.setattr(predictor_module, "_scan", counted)
    ob = parse_obligation("n, IH : Plus(Var(n),Zero) = Var(n) |- Succ(Plus(Var(n),Zero)) = Succ(Var(n))")
    preds = predict_top_n(cold_predictor(), ob, 6)
    assert {p.tactic for p in preds} >= {Tactic("induction", "n"), Tactic("rewrite", "IH")}
    assert scanned == [ob]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(12, len(FEATURE_NAMES)))
    labels = rng.integers(0, 6, size=12)
    weights = rng.normal(scale=0.5, size=(6, len(FEATURE_NAMES)))
    bias = rng.normal(scale=0.5, size=6)
    _, grad_w, grad_b = cross_entropy_loss_and_grads(weights, bias, features, labels)

    step = 1e-5
    for _ in range(100):
        i = rng.integers(0, weights.size + bias.size)
        flat_w, flat_b = weights.copy(), bias.copy()
        if i < weights.size:
            target, idx, analytic = flat_w, np.unravel_index(i, weights.shape), grad_w.flat[i]
        else:
            target, idx, analytic = flat_b, i - weights.size, grad_b[i - weights.size]
        target[idx] += step
        up, _, _ = cross_entropy_loss_and_grads(flat_w, flat_b, features, labels)
        target[idx] -= 2 * step
        down, _, _ = cross_entropy_loss_and_grads(flat_w, flat_b, features, labels)
        numeric = (up - down) / (2 * step)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-4


# The predictor as it was before featurize and resolve_argument shared one
# scan and template_probabilities was memoized: the reference the
# differential tests compare against.
def _reference_has_redex(t, left_kind):
    if isinstance(t, Plus) and isinstance(t.left, left_kind):
        return True
    if isinstance(t, Succ):
        return _reference_has_redex(t.child, left_kind)
    if isinstance(t, Plus):
        return _reference_has_redex(t.left, left_kind) or _reference_has_redex(t.right, left_kind)
    return False


def _reference_variable(ob):
    for name in ob.context_vars():
        if occurs(ob.goal_lhs, Var(name)) or occurs(ob.goal_rhs, Var(name)):
            return name
    return None


def _reference_hypothesis(ob):
    for hyp in ob.hypotheses():
        if occurs(ob.goal_lhs, hyp.lhs) or occurs(ob.goal_rhs, hyp.lhs):
            return hyp
    return None


def _reference_featurize(ob):
    lhs, rhs = ob.goal_lhs, ob.goal_rhs
    vec = np.zeros(len(FEATURE_NAMES))
    vec[0] = 1.0 if ob.binders else 0.0
    vec[1] = 1.0 if lhs == rhs else 0.0
    vec[2] = 1.0 if isinstance(lhs, Succ) and isinstance(rhs, Succ) else 0.0
    vec[3] = 1.0 if _reference_has_redex(lhs, Zero) or _reference_has_redex(rhs, Zero) else 0.0
    vec[4] = 1.0 if _reference_has_redex(lhs, Succ) or _reference_has_redex(rhs, Succ) else 0.0
    vec[5] = 1.0 if _reference_hypothesis(ob) is not None else 0.0
    vec[6] = 1.0 if _reference_variable(ob) is not None else 0.0
    size = term_size(lhs) + term_size(rhs)
    if size <= 4:
        vec[7] = 1.0
    elif size <= 8:
        vec[8] = 1.0
    elif size <= 16:
        vec[9] = 1.0
    else:
        vec[10] = 1.0
    vec[11 + min(len(ob.hypotheses()), 2)] = 1.0
    return vec


def _reference_probabilities(predictor, ob):
    return softmax(predictor.weights @ _reference_featurize(ob) + predictor.bias)


def _reference_top_n(predictor, ob, n):
    probs = _reference_probabilities(predictor, ob)
    out = []
    for idx in sorted(range(len(TEMPLATES)), key=lambda i: (-probs[i], i)):
        template = TEMPLATES[idx]
        if template == "induction":
            var = _reference_variable(ob)
            tactic = Tactic("induction", var) if var is not None else None
        elif template == "rewrite":
            hyp = _reference_hypothesis(ob)
            tactic = Tactic("rewrite", hyp.name) if hyp is not None else None
        else:
            tactic = Tactic(template)
        if tactic is None:
            continue
        out.append(TacticPrediction(tactic, float(probs[idx])))
        if len(out) == n:
            break
    return out


@st.composite
def _with_twins(draw, obligations):
    """An obligation, maybe with a renamed twin of one of its hypotheses or
    context variables put into its context, and maybe with its context
    reordered, so that which entry comes first matters."""
    ob = draw(obligations)
    context = list(ob.context)
    taken = ob.names_in_use()
    for _ in range(draw(st.integers(0, 2))):
        if not context:
            break
        entry = draw(st.sampled_from(context))
        name = draw(IDENTIFIERS.filter(lambda n: n not in taken))
        taken |= {name}
        twin = ContextVar(name) if isinstance(entry, ContextVar) else Hypothesis(name, entry.lhs, entry.rhs)
        context.insert(draw(st.integers(0, len(context))), twin)
    if draw(st.booleans()):
        context = draw(st.permutations(context))
    return Obligation(ob.binders, tuple(context), ob.goal_lhs, ob.goal_rhs)


def _predictors(trained):
    """The trained predictor, a uniform one (every template ties) and one
    with coarse integer weights (many ties), each with empty memos."""
    rng = np.random.default_rng(11)
    shape = trained.weights.shape
    return (
        Predictor(trained.weights.copy(), trained.bias.copy()),
        Predictor(np.zeros(shape), np.zeros(shape[0])),
        Predictor(rng.integers(-1, 2, size=shape).astype(float), rng.integers(-1, 2, size=shape[0]).astype(float)),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), renamed=st.booleans())
def test_prediction_matches_the_reference(trained_predictor, replay_obligations, renamed_obligations, data, renamed):
    source = renamed_obligations if renamed else st.sampled_from(replay_obligations)
    ob = data.draw(_with_twins(source))
    assert featurize(ob).tobytes() == _reference_featurize(ob).tobytes()
    for predictor in _predictors(trained_predictor):
        expected = _reference_probabilities(predictor, ob).tobytes()
        # the first call fills the memo, the second reads it
        assert predictor.template_probabilities(tuple(featurize(ob))).tobytes() == expected
        assert predictor.template_probabilities(tuple(featurize(ob))).tobytes() == expected
        for n in range(1, 7):
            assert predict_top_n(predictor, ob, n) == _reference_top_n(predictor, ob, n)


def test_probability_memo_is_bounded(monkeypatch, cold_predictor, replay_obligations):
    monkeypatch.setattr(env, "CACHE_SIZE", 3)  # the bound cache_put reads
    predictor = cold_predictor()
    features = set()
    for ob in replay_obligations:
        features.add(featurize(ob).tobytes())
        probs = predictor.template_probabilities(tuple(featurize(ob)))
        assert probs.tobytes() == _reference_probabilities(predictor, ob).tobytes()
        assert not probs.flags.writeable
        assert len(predictor._probabilities) <= 3
    assert len(features) > 3 and len(predictor._probabilities) == 3
