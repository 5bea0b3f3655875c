"""The obligation value estimator and its reward-free update rule.

A small feedforward regressor maps obligation encodings to values in (0, 1),
read as gamma^(steps remaining). Hyperstate values multiply over obligations
(the empty product is 1), so an action that discharges an obligation is
implicitly worth gamma with no explicit reward term. Update targets take the
max over the predictor's applicable actions (its ActionCache) of gamma times
the product of the resulting obligations' current values; dead ends target 0.

Also here: supervised pretraining, which steps the flat parameter vector
of get_flat_params/set_flat_params; the learner's obligation table and the
three experience buffers over its ids (replay / true-target / negative),
which the trainer fills from episode traces; and a tabular value iteration
that validates the update rule against the oracle on small graphs.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import encoder
from .env import Hyperstate, Obligation, cache_put
from .env import apply_tactic  # noqa: F401 - bench/layers.py traces value_model.apply_tactic
from .predictor import ActionCache, Predictor
from .predictor import predict_top_n  # noqa: F401 - bench/layers.py traces value_model.predict_top_n

__all__ = [
    "UndefinedStepsError",
    "ValueModel",
    "ReplayBuffer",
    "TrueTargetBuffer",
    "NegativeBuffer",
    "product_value",
    "steps_estimate",
    "ObligationTable",
    "bellman_backup",
    "bellman_target",
    "pretrain",
    "tabular_value_iteration",
    "explore_obligation_graph",
]


class UndefinedStepsError(ValueError):
    """Raised for steps_estimate of a nonpositive value (dead end)."""


def product_value(values: Iterable[float]) -> float:
    """Left-fold product; the empty product is 1 (a completed proof)."""
    return math.prod(values, start=1.0)


def steps_estimate(value: float, gamma: float) -> float:
    """Invert value = gamma^steps: steps = log(value) / log(gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if value <= 0.0:
        raise UndefinedStepsError("value must be positive to estimate steps")
    if value > 1.0:
        raise ValueError("value must not exceed 1")
    return math.log(value) / math.log(gamma)


class ValueModel:
    """Encoded obligation -> (0,1) regressor: one tanh hidden layer, logistic output.

    Obligations are encoded by encoder.encode_hashed with input_dim buckets.
    Gradients are hand-derived; update_batch takes one SGD step on mean
    squared error against the provided targets.
    """

    def __init__(
        self,
        input_dim: int,
        gamma: float = 0.9,
        hidden_dim: int = 32,
        seed: int = 0,
    ):
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.gamma = gamma
        self.w_hidden = rng.normal(0.0, 0.3, size=(hidden_dim, input_dim))
        self.b_hidden = np.zeros(hidden_dim)
        self.w_out = rng.normal(0.0, 0.3, size=hidden_dim)
        self.b_out = 0.0
        self._encoding_cache: dict[str, np.ndarray] = {}
        self._value_cache: dict[str, float] = {}

    # -- evaluation ---------------------------------------------------------

    def encode(self, ob: Obligation) -> np.ndarray:
        key = ob.canonical()
        vec = self._encoding_cache.get(key)
        if vec is None:
            # through the module attribute: bench/layers.py traces encoder.encode_hashed
            vec = encoder.encode_hashed(ob, self.input_dim)
            cache_put(self._encoding_cache, key, vec)
        return vec

    def _forward(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(inputs @ self.w_hidden.T + self.b_hidden)
        out = 1.0 / (1.0 + np.exp(-(hidden @ self.w_out + self.b_out)))
        return hidden, out

    def v_value(self, ob: Obligation) -> float:
        key = ob.canonical()
        cached = self._value_cache.get(key)
        if cached is not None:
            return cached
        _, out = self._forward(self.encode(ob)[None, :])
        value = float(out[0])
        cache_put(self._value_cache, key, value)
        return value

    def hyperstate_value(self, h: Hyperstate) -> float:
        return product_value(self.v_value(ob) for ob in h.obligations)

    # -- learning -----------------------------------------------------------

    def loss_and_grads(self, inputs: np.ndarray, targets: np.ndarray):
        hidden, out = self._forward(inputs)
        diff = out - targets
        n = len(targets)
        loss = float(np.add.reduce(diff * diff)) / n
        d_out = 2.0 * diff / n
        d_pre = d_out * out * (1.0 - out)
        grad_w_out = d_pre @ hidden
        grad_b_out = float(np.add.reduce(d_pre))
        d_hidden = d_pre[:, None] * self.w_out * (1.0 - hidden * hidden)
        grad_w_hidden = d_hidden.T @ inputs
        grad_b_hidden = np.add.reduce(d_hidden, axis=0)
        return loss, (grad_w_hidden, grad_b_hidden, grad_w_out, grad_b_out)

    def update_batch(self, inputs: np.ndarray, targets: Sequence[float], learning_rate: float) -> float:
        """One SGD step on MSE of the encoded rows against their targets;
        returns the pre-step loss. Targets are constants (no gradient
        through them)."""
        if not len(targets):
            raise ValueError("empty batch")
        targets = np.asarray(targets, dtype=float)
        # written so that a NaN anywhere fails the test
        if not (np.minimum.reduce(targets) >= 0.0 and np.maximum.reduce(targets) <= 1.0):
            raise ValueError("targets must lie in [0, 1]")
        loss, (gwh, gbh, gwo, gbo) = self.loss_and_grads(inputs, targets)
        self.w_hidden -= learning_rate * gwh
        self.b_hidden -= learning_rate * gbh
        self.w_out -= learning_rate * gwo
        self.b_out -= learning_rate * gbo
        self._value_cache.clear()
        return loss

    # -- parameter plumbing --------------------------------------------------

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([self.w_hidden.ravel(), self.b_hidden, self.w_out, [self.b_out]])

    def set_flat_params(self, flat: np.ndarray) -> None:
        h, d = self.hidden_dim, self.input_dim
        self.w_hidden = flat[: h * d].reshape(h, d).copy()
        self.b_hidden = flat[h * d : h * d + h].copy()
        self.w_out = flat[h * d + h : h * d + 2 * h].copy()
        self.b_out = float(flat[-1])
        self._value_cache.clear()


# ---------------------------------------------------------------------------
# Update targets
# ---------------------------------------------------------------------------


def bellman_backup(actions: Iterable[Iterable], value_of: Callable, gamma: float) -> float:
    """max over actions of gamma * prod(child values); each action is given
    by its children, which value_of maps to values.

    A discharging action contributes exactly gamma (empty product); with no
    applicable action the obligation is a dead end and the target is 0.
    The product is the left fold from 1.0 that product_value computes,
    written out to save a call per action.
    """
    best = 0.0
    for children in actions:
        product = 1.0
        for child in children:
            product *= value_of(child)
        candidate = gamma * product
        if candidate > best:
            best = candidate
    return best


class ObligationTable:
    """The learner's obligations, each interned once for the life of a run:
    an int id per canonical text, that id's row of a growing encoding matrix
    (filled from model.encode) and its actions' children as tuples of ids,
    read from the action cache once. Not thread-safe, and no cache: it holds
    what its learner ingested plus the children of the sources it valued."""

    def __init__(self, model: ValueModel, actions: ActionCache):
        self.model = model
        self.actions = actions
        self.obligations: list[Obligation] = []
        self._ids: dict[str, int] = {}
        self._children: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._rows = np.empty((64, model.input_dim))

    def intern(self, ob: Obligation) -> int:
        key = ob.canonical()
        ob_id = self._ids.get(key)
        if ob_id is None:
            ob_id = self._ids[key] = len(self.obligations)
            if ob_id == len(self._rows):
                self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._rows[ob_id] = self.model.encode(ob)
            self.obligations.append(ob)
        return ob_id

    def children(self, ob_id: int) -> tuple[tuple[int, ...], ...]:
        """The child ids of each applicable action, in prediction order."""
        children = self._children.get(ob_id)
        if children is None:
            actions = self.actions(self.obligations[ob_id])
            children = self._children[ob_id] = tuple(tuple(map(self.intern, result)) for _, _, result in actions)
        return children

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """The encodings of the ids, one row each, in one gather (take
        converts a list of ids faster than fancy indexing does)."""
        return self._rows.take(ids, axis=0)


def bellman_target(model: ValueModel, table: ObligationTable, sources: Sequence[int]) -> list[float]:
    """The update targets of a batch of obligation ids under the model's
    current values. The batch's distinct children, in order of first
    appearance, are valued in one forward pass (the v_value of each up to
    float rounding; the value cache is untouched), then each target is
    bellman_backup over those values."""
    distinct = dict.fromkeys(sources)
    batch_actions = list(map(table.children, distinct))
    children = list(dict.fromkeys(chain.from_iterable(chain.from_iterable(batch_actions))))
    value_of = dict(zip(children, model._forward(table.rows(children))[1].tolist())).__getitem__
    gamma = model.gamma
    targets = dict(zip(distinct, [bellman_backup(actions, value_of, gamma) for actions in batch_actions]))
    return list(map(targets.__getitem__, sources))


def pretrain(
    model: ValueModel,
    tasks: list[tuple[Obligation, int]],
    *,
    epochs: int,
    learning_rate: float,
) -> list[float]:
    """Supervised regression of each task obligation to gamma^length.

    Full-batch Adam; the hashed encodings of related obligations are nearly
    collinear, so plain gradient descent stalls long before the targets are
    fit tightly enough for search to rank states correctly.
    """
    if not tasks:
        raise ValueError("empty task list")
    if any(length < 1 for _, length in tasks):
        raise ValueError("proof lengths must be at least 1")
    inputs = np.stack([model.encode(ob) for ob, _ in tasks])
    targets = np.array([model.gamma**length for _, length in tasks])
    # The Adam moments, the gradient and the step live in flat buffers laid
    # out like get_flat_params; each expression below keeps the operation
    # order of m = 0.9*m + 0.1*g, v = 0.999*v + (0.001*g)*g and
    # step = (lr*m_hat) / (sqrt(v_hat) + 1e-8), so the bits are those of
    # the plain numpy expressions.
    params = model.get_flat_params()
    grad, flat_m, flat_v, m_hat, v_hat = (np.zeros_like(params) for _ in range(5))
    losses = []
    for step in range(1, epochs + 1):
        loss, (gwh, gbh, gwo, gbo) = model.loss_and_grads(inputs, targets)
        losses.append(loss)
        np.concatenate([gwh.ravel(), gbh, gwo, [gbo]], out=grad)
        flat_m *= 0.9
        flat_m += np.multiply(0.1, grad, out=m_hat)
        flat_v *= 0.999
        np.multiply(0.001, grad, out=v_hat)
        flat_v += np.multiply(v_hat, grad, out=v_hat)
        np.divide(flat_m, 1.0 - 0.9**step, out=m_hat)
        np.divide(flat_v, 1.0 - 0.999**step, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += 1e-8
        np.multiply(learning_rate, m_hat, out=m_hat)
        m_hat /= v_hat
        params -= m_hat
        model.set_flat_params(params)
    return losses


# ---------------------------------------------------------------------------
# Experience buffers
# ---------------------------------------------------------------------------


class _IdBuffer:
    """Obligation ids in insertion order, drawn uniformly with replacement."""

    def __init__(self):
        self.ids: list[int] = []

    def __len__(self) -> int:
        return len(self.ids)

    def sample(self, k: int, rng) -> list[int]:
        """k seeded draws; none at all when the buffer is empty."""
        if not self.ids:
            return []
        # rng.randrange(n) inlined: the same rejection loop over
        # getrandbits(n.bit_length()), so the same draws and the same
        # generator state, without two method layers per row
        ids, n, getrandbits = self.ids, len(self.ids), rng.getrandbits
        bits = n.bit_length()
        drawn = []
        for _ in range(k):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            drawn.append(ids[r])
        return drawn


class ReplayBuffer(_IdBuffer):
    """Bounded FIFO of transition source ids."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        super().__init__()
        self.capacity = capacity

    def push(self, source: int) -> None:
        if len(self.ids) == self.capacity:
            del self.ids[0]
        self.ids.append(source)


class TrueTargetBuffer(_IdBuffer):
    """Minimum known proof length per obligation id; lengths only decrease."""

    def __init__(self):
        super().__init__()
        self._lengths: dict[int, int] = {}

    def update(self, ob_id: int, found_length: int) -> None:
        if found_length < 1:
            raise ValueError("found_length must be at least 1")
        if ob_id not in self._lengths:
            self.ids.append(ob_id)
        self._lengths[ob_id] = min(found_length, self._lengths.get(ob_id, found_length))

    def length_of(self, ob_id: int) -> int | None:
        return self._lengths.get(ob_id)


class NegativeBuffer(_IdBuffer):
    """Obligation ids where every top-n prediction errored; trained to 0.
    Dead ends are few, so membership is a scan of the ids."""

    def __contains__(self, ob_id: int) -> bool:
        return ob_id in self.ids

    def add(self, ob_id: int) -> None:
        if ob_id not in self:
            self.ids.append(ob_id)


# ---------------------------------------------------------------------------
# Tabular analysis of the update rule
# ---------------------------------------------------------------------------


def explore_obligation_graph(
    roots: Iterable[Obligation],
    predictor: Predictor,
    n: int,
    max_nodes: int = 20000,
) -> dict[str, tuple[Obligation, list[list[str]]]]:
    """Reachable obligations under top-n actions, with child-key lists per
    applicable action, read through the predictor's shared action cache.
    Raises if the graph exceeds max_nodes."""
    predicted = ActionCache.of(predictor, n)
    graph: dict[str, tuple[Obligation, list[list[str]]]] = {}
    frontier = list(roots)
    while frontier:
        ob = frontier.pop()
        key = ob.canonical()
        if key in graph:
            continue
        actions: list[list[str]] = []
        for _, _, children in predicted(ob):
            actions.append([child.canonical() for child in children])
            for child in children:
                if child.canonical() not in graph:
                    frontier.append(child)
        graph[key] = (ob, actions)
        if len(graph) > max_nodes:
            raise RuntimeError(f"obligation graph exceeded {max_nodes} nodes")
    return graph


def tabular_value_iteration(
    graph: dict[str, tuple[Obligation, list[list[str]]]],
    gamma: float,
    max_iterations: int = 10000,
    tolerance: float = 1e-15,
) -> dict[str, float]:
    """Iterate the update rule with a lookup table until a fixed point.

    Starting from all zeros this converges to the least fixed point:
    gamma^(shortest restricted proof length) for provable obligations and 0
    for dead ends.
    """
    values = {key: 0.0 for key in graph}
    for _ in range(max_iterations):
        delta = 0.0
        for key, (_, actions) in graph.items():
            best = bellman_backup(actions, values.__getitem__, gamma)
            delta = max(delta, abs(best - values[key]))
            values[key] = best
        if delta <= tolerance:
            return values
    raise RuntimeError("value iteration did not converge")
