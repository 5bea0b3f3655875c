"""Supervised tactic predictor and the action space it bounds.

A multinomial logistic classifier over the six tactic templates, on a small
fixed set of indicator features of an obligation. Template predictions are
resolved to concrete tactics by a deterministic argument rule, mirroring the
role of a full tactic-prediction model while staying auditable. A prediction
scans its obligation once: the same pass gives the feature tuple, which keys
the predictor's softmax memo, and the induction and rewrite arguments.

Search steps and update targets are limited to the top-n predictions that
apply: predicted_actions and ActionCache own them. The task filter keeps a
span of a replay trace when reproducible_under_predictor finds each of its
tactics among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import (
    PLAIN_TACTICS,
    TEMPLATE_INDEX,
    TEMPLATES,
    Hypothesis,
    Obligation,
    Tactic,
    applicable_among,
    argument_tactic,
    cache_put,
)
from .terms import Plus, Succ, Term, Var, Zero, occurs

__all__ = [
    "FEATURE_NAMES",
    "TacticPrediction",
    "Predictor",
    "featurize",
    "train_predictor",
    "predict_top_n",
    "predicted_actions",
    "ActionCache",
    "reproducible_under_predictor",
    "softmax",
    "cross_entropy_loss_and_grads",
]

FEATURE_NAMES = (
    "has_leading_binder",
    "goal_sides_equal",
    "goal_roots_both_succ",
    "goal_has_redex_plus_zero",
    "goal_has_redex_plus_succ",
    "hypothesis_lhs_in_goal",
    "context_var_in_goal",
    "goal_size_le_4",
    "goal_size_le_8",
    "goal_size_le_16",
    "goal_size_gt_16",
    "hyp_count_0",
    "hyp_count_1",
    "hyp_count_ge_2",
)


def _term_summary(t: Term, names: set[str]) -> tuple[int, bool, bool]:
    """The size of t and whether it holds a Plus(Zero,_) and a
    Plus(Succ(_),_) redex; adds the names of t's variables to names."""
    if isinstance(t, Plus):
        left_size, left_zero, left_succ = _term_summary(t.left, names)
        right_size, right_zero, right_succ = _term_summary(t.right, names)
        return (
            left_size + right_size + 1,
            left_zero or right_zero or isinstance(t.left, Zero),
            left_succ or right_succ or isinstance(t.left, Succ),
        )
    if isinstance(t, Succ):
        size, zero, succ = _term_summary(t.child, names)
        return size + 1, zero, succ
    if isinstance(t, Var):
        names.add(t.name)
    return 1, False, False


def _scan(ob: Obligation) -> tuple[tuple[float, ...], str | None, Hypothesis | None]:
    """One pass over ob: its feature values, the first context variable (in
    context order) occurring in the goal and the first hypothesis whose
    left-hand side occurs in the goal, each None when there is none."""
    lhs, rhs = ob.goal_lhs, ob.goal_rhs
    names: set[str] = set()
    lhs_size, lhs_zero, lhs_succ = _term_summary(lhs, names)
    rhs_size, rhs_zero, rhs_succ = _term_summary(rhs, names)
    var = hyp = None
    hyps = 0
    for entry in ob.context:
        if isinstance(entry, Hypothesis):
            hyps += 1
            if hyp is None and (occurs(lhs, entry.lhs) or occurs(rhs, entry.lhs)):
                hyp = entry
        elif var is None and entry.name in names:
            var = entry.name
    features = [0.0] * len(FEATURE_NAMES)
    features[0] = 1.0 if ob.binders else 0.0
    features[1] = 1.0 if lhs == rhs else 0.0
    features[2] = 1.0 if isinstance(lhs, Succ) and isinstance(rhs, Succ) else 0.0
    features[3] = 1.0 if lhs_zero or rhs_zero else 0.0
    features[4] = 1.0 if lhs_succ or rhs_succ else 0.0
    features[5] = 1.0 if hyp is not None else 0.0
    features[6] = 1.0 if var is not None else 0.0
    size = lhs_size + rhs_size
    if size <= 4:
        features[7] = 1.0
    elif size <= 8:
        features[8] = 1.0
    elif size <= 16:
        features[9] = 1.0
    else:
        features[10] = 1.0
    features[11 + min(hyps, 2)] = 1.0
    return tuple(features), var, hyp


def featurize(ob: Obligation) -> np.ndarray:
    """Fixed-length feature vector; deterministic in the canonical form."""
    return np.array(_scan(ob)[0])


@dataclass(frozen=True, slots=True)
class TacticPrediction:
    tactic: Tactic
    probability: float


@dataclass
class Predictor:
    weights: np.ndarray  # (templates, features)
    bias: np.ndarray  # (templates,)
    train_losses: list[float] = field(default_factory=list)
    # template_probabilities per distinct feature tuple (at most CACHE_SIZE);
    # valid while the predictor stays frozen, as the action caches require.
    _probabilities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def template_probabilities(self, features: tuple[float, ...]) -> np.ndarray:
        """Softmax over the templates for one feature tuple; a read-only
        array shared by every obligation with those features."""
        probs = self._probabilities.get(features)
        if probs is None:
            probs = softmax(self.weights @ np.array(features) + self.bias)
            probs.flags.writeable = False
            cache_put(self._probabilities, features, probs)
        return probs


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss_and_grads(
    weights: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over a batch plus analytic gradients."""
    scores = features @ weights.T + bias
    probs = softmax(scores)
    n = len(labels)
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w = delta.T @ features
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def train_predictor(
    train: list[tuple[Obligation, Tactic]],
    *,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> Predictor:
    """Full-batch gradient descent on template cross-entropy.

    Deterministic per seed; the per-epoch loss history is kept on the result.
    """
    if not train:
        raise ValueError("empty training set")
    features = np.stack([featurize(ob) for ob, _ in train])
    labels = np.array([TEMPLATE_INDEX[t.template] for _, t in train])
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 0.01, size=(len(TEMPLATES), len(FEATURE_NAMES)))
    bias = np.zeros(len(TEMPLATES))
    losses = []
    for _ in range(epochs):
        loss, grad_w, grad_b = cross_entropy_loss_and_grads(weights, bias, features, labels)
        losses.append(loss)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    return Predictor(weights, bias, train_losses=losses)


def _argument_rule(template: str, var: str | None, hyp: Hypothesis | None) -> Tactic | None:
    """Turn a template into a concrete tactic given the scanned var and hyp, or None.

    induction takes the first context variable (in context order) occurring
    in the goal; rewrite takes the first hypothesis whose left-hand side
    occurs in the goal; the other templates take no argument.
    """
    if template == "induction":
        return argument_tactic("induction", var) if var is not None else None
    if template == "rewrite":
        return argument_tactic("rewrite", hyp.name) if hyp is not None else None
    return PLAIN_TACTICS[template]


def predict_top_n(predictor: Predictor, ob: Obligation, n: int) -> list[TacticPrediction]:
    """Up to n concrete predictions, probabilities non-increasing.

    Templates are ranked by probability with ties broken by the fixed
    template order; templates with no legal argument resolution are skipped.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    features, var, hyp = _scan(ob)
    probs = predictor.template_probabilities(features).tolist()
    # sorted() stays stable under reverse=True: ties keep template order
    order = sorted(range(len(TEMPLATES)), key=probs.__getitem__, reverse=True)
    out: list[TacticPrediction] = []
    for idx in order:
        tactic = _argument_rule(TEMPLATES[idx], var, hyp)
        if tactic is None:
            continue
        out.append(TacticPrediction(tactic, probs[idx]))
        if len(out) == n:
            break
    return out


Action = tuple[Tactic, float, tuple[Obligation, ...]]


def predicted_actions(predictor: Predictor, ob: Obligation, n: int) -> tuple[int, tuple[Action, ...]]:
    """The number of the predictor's top-n predictions for ob, and
    (tactic, probability, children) for each of them that applies to ob, in
    prediction order; predictions that raise TacticError are dropped."""
    predictions = predict_top_n(predictor, ob, n)
    # one tactic per template, so keying by tactic keeps every prediction,
    # in prediction order
    probability = {prediction.tactic: prediction.probability for prediction in predictions}
    applicable = applicable_among(ob, probability)
    return len(predictions), tuple((tactic, probability[tactic], children) for tactic, children in applicable)


class ActionCache:
    """predicted_actions(predictor, ob, n) for each obligation, computed once
    per canonical text and kept for the life of the cache (at most
    CACHE_SIZE obligations). The predictor must stay frozen while the cache
    is in use. Not thread-safe: a thread that shares the predictor with
    another builds its own cache.
    """

    def __init__(self, predictor: Predictor, n: int):
        self.predictor = predictor
        self.n = n
        self._entries: dict[str, tuple[int, tuple[Action, ...]]] = {}

    @classmethod
    def of(cls, predictor: Predictor, n: int) -> "ActionCache":
        """The cache every caller shares for this predictor object and
        width: search, the task filter, the learner, validation and
        explore_obligation_graph. It is kept in the predictor's instance
        dict, so it lives exactly as long and is no part of its value."""
        caches = vars(predictor).setdefault("_action_caches", {})
        cache = caches.get(n)
        if cache is None:
            cache = caches[n] = cls(predictor, n)
        return cache

    def entry(self, ob: Obligation) -> tuple[int, tuple[Action, ...]]:
        """(predictions tried, applicable actions) for ob; the count includes
        the predictions that error."""
        key = ob.canonical()
        entry = self._entries.get(key)
        if entry is None:
            entry = predicted_actions(self.predictor, ob, self.n)
            cache_put(self._entries, key, entry)
        return entry

    def __call__(self, ob: Obligation) -> tuple[Action, ...]:
        return self.entry(ob)[1]


def reproducible_under_predictor(steps, predictor: Predictor, n: int) -> bool:
    """True iff the tactic of each (before, tactic, after) step of a replay
    trace is one of the predictor's applicable top-n actions at the step's
    first obligation, read from the predictor's shared action cache."""
    actions = ActionCache.of(predictor, n)
    return all(any(tactic == predicted for predicted, _, _ in actions(before.first)) for before, tactic, _ in steps)
