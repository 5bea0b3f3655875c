"""Proof search over hyperstates: greedy, weighted DFS, best-first and A*.

`EVAL_STRATEGIES` names the six strategies that `eval` and `prove` run, and
`run_strategy` runs one of them by name. Every strategy, and the greedy
search that training validation runs from a lone obligation, expands
through one priority loop; they differ only in the priority they give a
node, their depth cap and whether they backtrack. DFS's priority is the
negated depth, so the deepest node comes first; greedy shares best-first's
priority but keeps only the children of the node it has just expanded.
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
from dataclasses import dataclass
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
    "EVAL_STRATEGIES",
    "run_strategy",
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

    steps_convertible = False

    @classmethod
    def for_model(cls, model) -> "ProbabilityScorer":
        return cls()


@dataclass
class SearchNode:
    hyperstate: Hyperstate
    script: tuple[Tactic, ...]
    g: int
    path_prob: float = 1.0


@dataclass
class SearchResult:
    status: str
    script: ProofScript | None
    proof_length: int | None
    nodes_expanded: int
    tactic_executions: int
    wall_time: float

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
        )


def astar_search(
    thm: Theorem,
    scorer: ValueScorer,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Min-f priority queue: f = tactics taken + estimated tactics remaining.

    A hyperstate with a dead obligation has no steps estimate, so it is
    never enqueued, and a dead root leaves the search exhausted.
    """
    if not scorer.steps_convertible:
        raise ValueError("A* requires a steps-convertible scorer")
    steps = scorer.hyperstate_steps
    start = Hyperstate((thm.statement,))
    return _priority_search(
        start, predictor, n, budget, lambda node: f_score(node.g, steps(node.hyperstate)), SAFETY_DEPTH
    )


def _best_score_first(scorer) -> Callable[[SearchNode], float]:
    """The priority of best-first and greedy search: the negated hyperstate
    value under a value scorer, the negated product of the path's tactic
    probabilities under a probability scorer."""
    if scorer.steps_convertible:
        value = scorer.hyperstate_value
        return lambda node: -value(node.hyperstate)
    return lambda node: -node.path_prob


def best_first_search(
    thm: Theorem,
    scorer,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Max-score priority queue: the hyperstate value under a value scorer,
    the product of the path's tactic probabilities under a probability
    scorer."""
    return _priority_search(Hyperstate((thm.statement,)), predictor, n, budget, _best_score_first(scorer), SAFETY_DEPTH)


def dfs_search(
    thm: Theorem,
    predictor: Predictor,
    n: int,
    budget: int = DEFAULT_BUDGET,
    depth_limit: int = 10,
) -> SearchResult:
    """Depth-first baseline: the deepest node first, siblings in descending
    predictor probability, backtracking on errors, dead ends, the depth
    limit and already-visited hyperstates."""
    if depth_limit < 1:
        raise ValueError("depth_limit must be at least 1")
    return _priority_search(Hyperstate((thm.statement,)), predictor, n, budget, lambda node: -node.g, depth_limit)


def _priority_search(
    start: Hyperstate,
    predictor: Predictor,
    n: int,
    budget: int,
    priority: Callable[[SearchNode], float],
    depth_cap: int,
    backtrack: bool = True,
) -> SearchResult:
    """Expand the lowest-priority node first; returns on the first empty
    hyperstate popped.

    An expansion applies the top-n predictions, through the predictor's
    shared action cache, to the node's first obligation; each prediction is
    a tactic execution, and erroring ones are dropped. Ties break FIFO by
    insertion order, and a hyperstate is enqueued at most once. A node whose
    priority raises UndefinedStepsError is dropped. A node `depth_cap`
    tactics deep is skipped when popped: it is neither counted nor expanded,
    though it still proves the goal if it is empty. Without `backtrack`
    (greedy), popping a node forgets the queue and the enqueued set, so the
    next node popped is this node's best child, which may be a hyperstate
    expanded before.
    """
    tally = _Tally()
    actions = ActionCache.of(predictor, n)
    root = SearchNode(start, (), 0)
    try:
        heap = [(priority(root), 0, root)]
    except UndefinedStepsError:
        return tally.result(EXHAUSTED)
    enqueued = {start.canonical_key()}
    seq = 0
    while heap:
        _, _, node = heapq.heappop(heap)
        if not backtrack:
            heap.clear()
            enqueued.clear()
        if node.hyperstate.is_empty:
            return tally.result(PROVED, node.script)
        if tally.expanded >= budget:
            return tally.result(BUDGET_EXCEEDED)
        if node.g >= depth_cap:
            continue
        tally.expanded += 1
        tried, applicable = actions.entry(node.hyperstate.first)
        tally.executions += tried
        rest = node.hyperstate.obligations[1:]
        for tactic, prob, produced in applicable:
            hyperstate = Hyperstate(produced + rest)
            key = hyperstate.canonical_key()
            if key in enqueued:
                continue
            child = SearchNode(hyperstate, node.script + (tactic,), node.g + 1, node.path_prob * prob)
            try:
                score = priority(child)
            except UndefinedStepsError:
                continue
            enqueued.add(key)
            seq += 1
            heapq.heappush(heap, (score, seq, child))
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
    """Greedy search from any hyperstate (e.g. a lone obligation): the
    priority loop of best-first search, without backtracking. Gives up as
    exhausted once the script reaches SAFETY_DEPTH tactics, since a goal that
    keeps growing would otherwise be rewritten until the budget runs out."""
    return _priority_search(start, predictor, n, budget, _best_score_first(scorer), SAFETY_DEPTH, backtrack=False)


# Each strategy's search and the scorer it builds from the model; DFS takes
# no scorer. The `_prob` strategies order by the predictor's probabilities.
_STRATEGIES = {
    "astar": (astar_search, ValueScorer),
    "bestfirst": (best_first_search, ValueScorer),
    "bestfirst_prob": (best_first_search, ProbabilityScorer),
    "dfs": (dfs_search, None),
    "greedy": (greedy_search, ValueScorer),
    "greedy_prob": (greedy_search, ProbabilityScorer),
}
EVAL_STRATEGIES = tuple(_STRATEGIES)


def run_strategy(
    strategy: str, theorem: Theorem, model, predictor: Predictor, width: int, budget: int
) -> SearchResult:
    """Run the strategy named in EVAL_STRATEGIES on one theorem."""
    if strategy not in _STRATEGIES:
        raise RuntimeError(f"unknown strategy {strategy!r}")
    search, scorer = _STRATEGIES[strategy]
    if scorer is None:
        return search(theorem, predictor, width, budget)
    return search(theorem, scorer.for_model(model), predictor, width, budget)
