"""Proof search over hyperstates: greedy, weighted DFS, best-first and A*.

`EVAL_STRATEGIES` names the six strategies that `eval` and `prove` run.
`search_from` runs one of them by name from any hyperstate (training
validation starts greedy search from a lone obligation), and `run_strategy`
runs one on a theorem. Every strategy expands through one priority loop;
a strategy is a row of `_STRATEGIES`: the priority it gives a node, built
from the value model, its depth cap and whether it backtracks. DFS's
priority is the negated depth, so the deepest node comes first; greedy
shares best-first's priority but keeps only the children of the node it
has just expanded. The value priorities read only the model's `v_value`
and `gamma`. Every strategy draws candidate tactics for the first open
obligation from the predictor's top-n list, drops the ones that error, and
dedups states by the hyperstate's canonical multiset form. The applicable
actions come from the predictor's shared action cache, so an obligation
that one search or strategy has expanded costs the next one a dict lookup.
One "search step" is one node expansion; per-child tactic executions are
counted separately.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable

from .env import Hyperstate, ProofScript, Tactic, Theorem
from .env import step_hyperstate  # noqa: F401 - bench/layers.py traces search.step_hyperstate
from .predictor import ActionCache, Predictor
from .predictor import predict_top_n  # noqa: F401 - bench/layers.py traces search.predict_top_n
from .value_model import UndefinedStepsError, product_value, steps_estimate

__all__ = [
    "f_score",
    "PROVED",
    "EXHAUSTED",
    "BUDGET_EXCEEDED",
    "SearchNode",
    "SearchResult",
    "EVAL_STRATEGIES",
    "search_from",
    "run_strategy",
]

PROVED = "proved"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 512
SAFETY_DEPTH = 50
DFS_DEPTH = 10


def f_score(g: int, h: float) -> float:
    """A* priority: tactics taken so far plus estimated tactics remaining."""
    return g + h


@dataclass(slots=True)
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


def _priority_search(
    start: Hyperstate,
    predictor: Predictor,
    n: int,
    budget: int,
    priority: Callable[[SearchNode], float],
    depth_cap: int,
    backtrack: bool,
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
    (greedy), popping a node forgets the queue, so the next node popped is
    this node's best child, which may be a hyperstate expanded before. Such
    a walk keeps no enqueued set and does not value its root: the root is
    popped first whatever its priority, and of equal siblings, which score
    alike or, under the likeliest-path priority, no better than the first
    one predicted, FIFO pops the first.
    """
    tally = _Tally()
    actions = ActionCache.of(predictor, n)
    root = SearchNode(start, (), 0)
    root_priority = 0.0
    enqueued = set()
    if backtrack:
        try:
            root_priority = priority(root)
        except UndefinedStepsError:
            return tally.result(EXHAUSTED)
        enqueued.add(start.canonical_key())
    heap = [(root_priority, 0, root)]
    seq = 0
    while heap:
        _, _, node = heapq.heappop(heap)
        if not backtrack:
            heap.clear()
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
            if backtrack:
                key = hyperstate.canonical_key()
                if key in enqueued:
                    continue
                enqueued.add(key)
            child = SearchNode(hyperstate, node.script + (tactic,), node.g + 1, node.path_prob * prob)
            try:
                score = priority(child)
            except UndefinedStepsError:
                continue
            seq += 1
            heapq.heappush(heap, (score, seq, child))
    return tally.result(EXHAUSTED)


def _fewest_steps(model) -> Callable[[SearchNode], float]:
    """A*'s f: tactics taken plus the steps the model estimates remain. A
    hyperstate with a dead obligation has no steps estimate, so it is never
    enqueued, and a dead root leaves the search exhausted."""
    v_value, gamma = model.v_value, model.gamma

    def f(node: SearchNode) -> float:
        return f_score(node.g, sum(steps_estimate(v_value(ob), gamma) for ob in node.hyperstate.obligations))

    return f


def _highest_value(model) -> Callable[[SearchNode], float]:
    v_value = model.v_value
    return lambda node: -product_value(map(v_value, node.hyperstate.obligations))


def _likeliest_path(model) -> Callable[[SearchNode], float]:
    return lambda node: -node.path_prob


def _deepest(model) -> Callable[[SearchNode], float]:
    return lambda node: -node.g


# Each strategy's priority built from the model, the module constant that
# caps its depth (read when a search starts) and whether it backtracks.
# Greedy gives up as exhausted at SAFETY_DEPTH tactics, since a goal that
# keeps growing would otherwise be rewritten until the budget runs out.
_STRATEGIES = {
    "astar": (_fewest_steps, "SAFETY_DEPTH", True),
    "bestfirst": (_highest_value, "SAFETY_DEPTH", True),
    "bestfirst_prob": (_likeliest_path, "SAFETY_DEPTH", True),
    "dfs": (_deepest, "DFS_DEPTH", True),
    "greedy": (_highest_value, "SAFETY_DEPTH", False),
    "greedy_prob": (_likeliest_path, "SAFETY_DEPTH", False),
}
EVAL_STRATEGIES = tuple(_STRATEGIES)


def search_from(
    strategy: str, start: Hyperstate, model, predictor: Predictor, width: int, budget: int
) -> SearchResult:
    """Run the strategy named in EVAL_STRATEGIES from a hyperstate. `model`
    is anything with a `v_value(obligation)` and a `gamma`."""
    if strategy not in _STRATEGIES:
        raise RuntimeError(f"unknown strategy {strategy!r}")
    priority_of, cap, backtrack = _STRATEGIES[strategy]
    return _priority_search(start, predictor, width, budget, priority_of(model), globals()[cap], backtrack)


def run_strategy(
    strategy: str, theorem: Theorem, model, predictor: Predictor, width: int, budget: int
) -> SearchResult:
    """Run the strategy named in EVAL_STRATEGIES on one theorem."""
    return search_from(strategy, Hyperstate((theorem.statement,)), model, predictor, width, budget)
