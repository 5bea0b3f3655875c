"""Brute-force ground truth for small instances.

The oracle does breadth-first search over hyperstates using every applicable
tactic, so the scripts it returns are minimum-length by construction. It
stays deliberately simple: no heuristics, no pruning beyond a visited set.
It reads only the environment, never a model, so it stays the ground truth.
OracleResult.value(gamma) is the exact value of an obligation: gamma to the
length of its shortest proof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .env import Hyperstate, Obligation, ProofScript, Tactic, applicable_among, enumerate_applicable
from .env import step_hyperstate  # noqa: F401 - bench/layers.py traces oracle.step_hyperstate

__all__ = [
    "OracleResult",
    "ActionProvider",
    "shortest_proof",
]

# Maps an obligation to the candidate tactics to try on it.
ActionProvider = Callable[[Obligation], Iterable[Tactic]]


@dataclass(frozen=True, slots=True)
class OracleResult:
    provable: bool
    shortest_script: ProofScript | None
    shortest_length: int | None
    depth_limited: bool

    def value(self, gamma: float) -> float:
        """gamma^(shortest proof length), or 0 when unprovable within depth."""
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        return gamma**self.shortest_length if self.provable else 0.0


def shortest_proof(start: Hyperstate, max_depth: int, actions: ActionProvider | None = None) -> OracleResult:
    """BFS over hyperstates; returns a minimum-length valid script.

    `actions` restricts the tactics tried on each first obligation (used for
    predictor-constrained searches); by default every applicable tactic is
    tried, expanded from the process-wide `enumerate_applicable` memo.
    Depth exhaustion is reported as not-provable with depth_limited.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if start.is_empty:
        return OracleResult(True, ProofScript(), 0, False)
    queue: deque[tuple[Hyperstate, tuple[Tactic, ...]]] = deque([(start, ())])
    visited = {start.canonical_key()}
    depth_limited = False
    while queue:
        state, script = queue.popleft()
        if len(script) >= max_depth:
            depth_limited = True
            continue
        first, rest = state.obligations[0], state.obligations[1:]
        pairs = enumerate_applicable(first) if actions is None else applicable_among(first, actions(first))
        for tactic, produced in pairs:
            child = Hyperstate(produced + rest)
            if child.is_empty:
                found = script + (tactic,)
                return OracleResult(True, ProofScript(found), len(found), False)
            key = child.canonical_key()
            if key in visited:
                continue
            visited.add(key)
            queue.append((child, script + (tactic,)))
    return OracleResult(False, None, None, depth_limited)
