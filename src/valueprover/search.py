"""Proof search over hyperstates: greedy, weighted DFS, best-first and A*.

Every strategy draws candidate tactics for the first open obligation from
the predictor's top-n list, drops the ones that error, and dedups states by
the hyperstate's canonical multiset form. The applicable actions come from
the predictor's shared action cache, so an obligation that one search or
strategy has expanded costs the next one a dict lookup. One "search step"
is one node expansion; per-child tactic executions are counted separately.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable

from .env import Hyperstate, Obligation, ProofScript, Tactic, Theorem
from .env import step_hyperstate  # noqa: F401 - bench/layers.py traces search.step_hyperstate
from .predictor import Predictor
from .predictor import predict_top_n  # noqa: F401 - bench/layers.py traces search.predict_top_n
from .value_model import ActionCache, UndefinedStepsError, product_value, steps_estimate

__all__ = [
    "f_score",
    "PROVED",
    "EXHAUSTED",
    "BUDGET_EXCEEDED",
    "SearchNode",
    "SearchResult",
    "ValueScorer",
    "ProbabilityScorer",
    "astar_search",
    "best_first_search",
    "dfs_search",
    "greedy_search",
    "greedy_from_hyperstate",
    "SEARCH_STRATEGIES",
]

PROVED = "proved"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 512
SAFETY_DEPTH = 50


def f_score(g: int, h: float) -> float:
    """A* priority: tactics taken so far plus estimated tactics remaining."""
    return g + h


class ValueScorer:
    """Steps-convertible scorer backed by an obligation value function."""

    kind = "value_model"
    steps_convertible = True

    def __init__(self, value_of: Callable[[Obligation], float], gamma: float):
        self.value_of = value_of
        self.gamma = gamma

    def hyperstate_value(self, h: Hyperstate) -> float:
        return product_value(self.value_of(ob) for ob in h.obligations)

    def hyperstate_steps(self, h: Hyperstate) -> float:
        """Estimated steps remaining; raises UndefinedStepsError on a
        zero-valued (dead) obligation."""
        return sum(steps_estimate(self.value_of(ob), self.gamma) for ob in h.obligations)

    @classmethod
    def for_model(cls, model) -> "ValueScorer":
        return cls(model.v_value, model.gamma)


class ProbabilityScorer:
    """Orders nodes by the product of chosen tactic probabilities along the
    path; not convertible to a steps-remaining estimate."""

    kind = "probability_product"
    steps_convertible = False


@dataclass
class SearchNode:
    hyperstate: Hyperstate
    script: tuple[Tactic, ...]
    g: int
    h: float
    f: float
    seq: int
    path_prob: float = 1.0


@dataclass
class SearchResult:
    status: str
    script: ProofScript | None
    proof_length: int | None
    nodes_expanded: int
    tactic_executions: int
    wall_time: float
    dead_ends: tuple[Obligation, ...] = field(default_factory=tuple)

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    def to_record(self, theorem_id: str, strategy: str, include_wall: bool = True) -> dict:
        record = {
            "theorem_id": theorem_id,
            "strategy": strategy,
            "status": self.status,
            "proof": str(self.script) if self.script is not None else None,
            "proof_length": self.proof_length,
            "nodes_expanded": self.nodes_expanded,
            "tactic_executions": self.tactic_executions,
        }
        if include_wall:
            record["wall_ms"] = round(self.wall_time * 1000.0, 3)
        return record


class _Tally:
    def __init__(self):
        self.expanded = 0
        self.executions = 0
        self.dead_ends: list[Obligation] = []
        self.started = time.perf_counter()

    def result(self, status: str, script: tuple[Tactic, ...] | None = None) -> SearchResult:
        wall = time.perf_counter() - self.started
        proof = ProofScript(script) if script is not None else None
        return SearchResult(
            status,
            proof,
            len(script) if script is not None else None,
            self.expanded,
            self.executions,
            wall,
            tuple(self.dead_ends),
        )


def _children(
    node: SearchNode, predictor: Predictor, n: int, tally: _Tally
) -> list[tuple[Tactic, float, Hyperstate]]:
    """Apply each top-n prediction to the node's first obligation, through
    the predictor's shared action cache.

    Every prediction counts as a tactic execution; erroring ones are
    dropped, and if all of them error, the first obligation is recorded as
    a dead end for the negative buffer.
    """
    state = node.hyperstate
    tried, actions = ActionCache.of(predictor, n).entry(state.first)
    tally.executions += tried
    if not actions:
        tally.dead_ends.append(state.first)
    rest = state.obligations[1:]
    return [(tactic, prob, Hyperstate(children + rest)) for tactic, prob, children in actions]


def astar_search(
    thm: Theorem,
    scorer: ValueScorer,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
    depth_limit: int = SAFETY_DEPTH,
) -> SearchResult:
    """Min-f priority queue: f = tactics taken + estimated tactics remaining.

    Ties break FIFO by insertion order; duplicate hyperstates are never
    re-enqueued; returns on the first empty hyperstate popped.
    """
    if not scorer.steps_convertible:
        raise ValueError("A* requires a steps-convertible scorer")
    return _priority_search(thm, scorer, predictor, n, budget, depth_limit, order="f")


def best_first_search(
    thm: Theorem,
    scorer,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
    depth_limit: int = SAFETY_DEPTH,
) -> SearchResult:
    """Max-score priority queue; same dedup, tie-break and budget as A*."""
    order = "value" if scorer.steps_convertible else "probability"
    return _priority_search(thm, scorer, predictor, n, budget, depth_limit, order=order)


def _priority_search(
    thm: Theorem,
    scorer,
    predictor: Predictor,
    n: int,
    budget: int,
    depth_limit: int,
    order: str,
) -> SearchResult:
    tally = _Tally()
    root = SearchNode(Hyperstate((thm.statement,)), (), 0, 0.0, 0.0, 0)
    if order == "f":
        try:
            root.h = scorer.hyperstate_steps(root.hyperstate)
        except UndefinedStepsError:
            return tally.result(EXHAUSTED)
        root.f = root.h

    def priority(node: SearchNode) -> float:
        if order == "f":
            return node.f
        if order == "value":
            return -scorer.hyperstate_value(node.hyperstate)
        return -node.path_prob

    seq = 0
    heap: list[tuple[float, int, SearchNode]] = [(priority(root), seq, root)]
    enqueued = {root.hyperstate.canonical_key()}
    while heap:
        _, _, node = heapq.heappop(heap)
        if node.hyperstate.is_empty:
            return tally.result(PROVED, node.script)
        if tally.expanded >= budget:
            return tally.result(BUDGET_EXCEEDED)
        tally.expanded += 1
        for tactic, prob, hyperstate in _children(node, predictor, n, tally):
            if node.g + 1 > depth_limit:
                continue
            key = hyperstate.canonical_key()
            if key in enqueued:
                continue
            child = SearchNode(hyperstate, node.script + (tactic,), node.g + 1, 0.0, 0.0, 0, node.path_prob * prob)
            if order == "f" and not hyperstate.is_empty:
                try:
                    child.h = scorer.hyperstate_steps(hyperstate)
                except UndefinedStepsError:
                    continue
            child.f = f_score(child.g, child.h)
            enqueued.add(key)
            seq += 1
            child.seq = seq
            heapq.heappush(heap, (priority(child), seq, child))
    return tally.result(EXHAUSTED)


def dfs_search(
    thm: Theorem,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
    depth_limit: int = 10,
) -> SearchResult:
    """Depth-first baseline: children visited in descending predictor
    probability, backtracking on errors, dead ends, the depth limit and
    already-visited hyperstates."""
    if depth_limit < 1:
        raise ValueError("depth_limit must be at least 1")
    tally = _Tally()
    root = SearchNode(Hyperstate((thm.statement,)), (), 0, 0.0, 0.0, 0)
    stack = [root]
    visited = {root.hyperstate.canonical_key()}
    while stack:
        node = stack.pop()
        if node.hyperstate.is_empty:
            return tally.result(PROVED, node.script)
        if tally.expanded >= budget:
            return tally.result(BUDGET_EXCEEDED)
        if node.g >= depth_limit:
            continue
        tally.expanded += 1
        children = []
        for tactic, prob, hyperstate in _children(node, predictor, n, tally):
            key = hyperstate.canonical_key()
            if key in visited:
                continue
            visited.add(key)
            children.append(SearchNode(hyperstate, node.script + (tactic,), node.g + 1, 0.0, 0.0, 0, prob))
        # Reversed so the highest-probability child is popped first.
        for child in reversed(children):
            stack.append(child)
    return tally.result(EXHAUSTED)


def greedy_search(
    thm: Theorem,
    scorer,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """No backtracking: repeatedly commit to the best-scoring child.

    With a value scorer "best" is the maximum hyperstate value; with a
    probability scorer it is the highest-probability non-erroring tactic.
    """
    return greedy_from_hyperstate(Hyperstate((thm.statement,)), scorer, predictor, n, budget)


def greedy_from_hyperstate(
    start: Hyperstate,
    scorer,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Greedy search from an arbitrary hyperstate (e.g. a lone obligation).

    Gives up as exhausted once the script reaches SAFETY_DEPTH tactics:
    without backtracking, a goal that keeps growing would otherwise be
    rewritten until the budget runs out or its terms grow too deep to hash.
    """
    tally = _Tally()
    state = start
    script: tuple[Tactic, ...] = ()
    while not state.is_empty:
        if tally.expanded >= budget:
            return tally.result(BUDGET_EXCEEDED)
        if len(script) >= SAFETY_DEPTH:
            return tally.result(EXHAUSTED)
        tally.expanded += 1
        node = SearchNode(state, script, len(script), 0.0, 0.0, 0)
        options = _children(node, predictor, n, tally)
        if not options:
            return tally.result(EXHAUSTED)
        if scorer.steps_convertible:
            best = max(options, key=lambda opt: scorer.hyperstate_value(opt[2]))
        else:
            best = options[0]  # predictions arrive in descending probability
        tactic, _, state = best
        script = script + (tactic,)
    return tally.result(PROVED, script)


SEARCH_STRATEGIES = ("astar", "bestfirst", "dfs", "greedy")
