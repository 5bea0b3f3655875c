"""Supervised tactic predictor.

A multinomial logistic classifier over the six tactic templates, on a small
fixed set of indicator features of an obligation. Template predictions are
resolved to concrete tactics by a deterministic argument rule, mirroring the
role of a full tactic-prediction model while staying auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import (
    TEMPLATE_INDEX,
    TEMPLATES,
    Hypothesis,
    Obligation,
    Tactic,
)
from .terms import Plus, Succ, Term, Var, Zero, occurs, term_size

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "TacticPrediction",
    "Predictor",
    "featurize",
    "train_predictor",
    "resolve_argument",
    "predict_top_n",
    "softmax",
    "cross_entropy_loss_and_grads",
    "predictor_to_dict",
    "predictor_from_dict",
]

FEATURE_SCHEMA_VERSION = 1

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


def _has_redex(t: Term, left_kind: type) -> bool:
    if isinstance(t, Plus) and isinstance(t.left, left_kind):
        return True
    if isinstance(t, Succ):
        return _has_redex(t.child, left_kind)
    if isinstance(t, Plus):
        return _has_redex(t.left, left_kind) or _has_redex(t.right, left_kind)
    return False


def featurize(ob: Obligation) -> np.ndarray:
    """Fixed-length feature vector; deterministic in the canonical form."""
    lhs, rhs = ob.goal_lhs, ob.goal_rhs
    vec = np.zeros(len(FEATURE_NAMES))
    vec[0] = 1.0 if ob.binders else 0.0
    vec[1] = 1.0 if lhs == rhs else 0.0
    vec[2] = 1.0 if isinstance(lhs, Succ) and isinstance(rhs, Succ) else 0.0
    vec[3] = 1.0 if _has_redex(lhs, Zero) or _has_redex(rhs, Zero) else 0.0
    vec[4] = 1.0 if _has_redex(lhs, Succ) or _has_redex(rhs, Succ) else 0.0
    vec[5] = 1.0 if _first_rewritable_hypothesis(ob) is not None else 0.0
    vec[6] = 1.0 if _first_inductable_variable(ob) is not None else 0.0
    size = term_size(lhs) + term_size(rhs)
    if size <= 4:
        vec[7] = 1.0
    elif size <= 8:
        vec[8] = 1.0
    elif size <= 16:
        vec[9] = 1.0
    else:
        vec[10] = 1.0
    hyps = len(ob.hypotheses())
    vec[11 + min(hyps, 2)] = 1.0
    return vec


def _first_inductable_variable(ob: Obligation) -> str | None:
    for name in ob.context_vars():
        if occurs(ob.goal_lhs, Var(name)) or occurs(ob.goal_rhs, Var(name)):
            return name
    return None


def _first_rewritable_hypothesis(ob: Obligation) -> Hypothesis | None:
    for hyp in ob.hypotheses():
        if occurs(ob.goal_lhs, hyp.lhs) or occurs(ob.goal_rhs, hyp.lhs):
            return hyp
    return None


@dataclass(frozen=True)
class TacticPrediction:
    tactic: Tactic
    probability: float


@dataclass
class Predictor:
    weights: np.ndarray  # (templates, features)
    bias: np.ndarray  # (templates,)
    feature_schema: int = FEATURE_SCHEMA_VERSION
    train_losses: list[float] = field(default_factory=list)
    # value_model.ActionCache.of keeps its caches here, one per width, so
    # they live as long as the predictor; duck-typed predictors get the
    # same attribute on first use.
    _action_caches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def template_probabilities(self, ob: Obligation) -> np.ndarray:
        scores = self.weights @ featurize(ob) + self.bias
        return softmax(scores)


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
    epochs: int = 200,
    learning_rate: float = 0.5,
    seed: int = 0,
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


def resolve_argument(template: str, ob: Obligation) -> Tactic | None:
    """Turn a template into a concrete tactic, or None when unresolvable.

    induction takes the first context variable (in context order) occurring
    in the goal; rewrite takes the first hypothesis whose left-hand side
    occurs in the goal; the other templates take no argument.
    """
    if template == "induction":
        var = _first_inductable_variable(ob)
        return Tactic("induction", var) if var is not None else None
    if template == "rewrite":
        hyp = _first_rewritable_hypothesis(ob)
        return Tactic("rewrite", hyp.name) if hyp is not None else None
    return Tactic(template)


def predict_top_n(predictor: Predictor, ob: Obligation, n: int) -> list[TacticPrediction]:
    """Up to n concrete predictions, probabilities non-increasing.

    Templates are ranked by probability with ties broken by the fixed
    template order; templates with no legal argument resolution are skipped.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    probs = predictor.template_probabilities(ob)
    order = sorted(range(len(TEMPLATES)), key=lambda i: (-probs[i], i))
    out: list[TacticPrediction] = []
    for idx in order:
        tactic = resolve_argument(TEMPLATES[idx], ob)
        if tactic is None:
            continue
        out.append(TacticPrediction(tactic, float(probs[idx])))
        if len(out) == n:
            break
    return out


def predictor_to_dict(predictor: Predictor) -> dict:
    return {
        "feature_schema": predictor.feature_schema,
        "weights": predictor.weights.tolist(),
        "bias": predictor.bias.tolist(),
    }


def predictor_from_dict(data: dict) -> Predictor:
    if data["feature_schema"] != FEATURE_SCHEMA_VERSION:
        raise ValueError(f"incompatible predictor feature schema {data['feature_schema']}")
    return Predictor(np.array(data["weights"], dtype=float), np.array(data["bias"], dtype=float))
