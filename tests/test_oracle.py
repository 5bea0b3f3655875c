import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_model
from valueprover.corpus import generate_corpus
from valueprover.env import (
    ARG_TEMPLATES,
    TEMPLATES,
    Hyperstate,
    Hypothesis,
    Obligation,
    ProofScript,
    Tactic,
    TacticError,
    enumerate_applicable,
    parse_obligation,
    parse_script,
    script_is_valid,
    step_hyperstate,
)
from valueprover.oracle import OracleResult, shortest_proof
from valueprover.predictor import predict_top_n, reproducible_under_predictor
from valueprover.search import run_strategy
from valueprover.value_model import explore_obligation_graph, tabular_value_iteration


class RankedPredictor:
    """Test double: fixed template ranking, probabilities tied to rank."""

    def __init__(self, order):
        self.order = order

    def template_probabilities(self, _):
        import numpy as np

        from valueprover.env import TEMPLATE_INDEX

        probs = np.zeros(6)
        for rank, name in enumerate(self.order):
            probs[TEMPLATE_INDEX[name]] = 0.5 / (2.0**rank)
        return probs / probs.sum()


def test_trivial_cases():
    closed = shortest_proof(Hyperstate(()), 5)
    assert closed.provable and closed.shortest_length == 0 and closed.shortest_script == ProofScript()
    one = shortest_proof(Hyperstate((parse_obligation("|- Zero = Zero"),)), 5)
    assert one.shortest_length == 1 and str(one.shortest_script) == "reflexivity"


def test_worked_example_is_seven_steps(worked_theorem):
    thm, script = worked_theorem
    result = shortest_proof(Hyperstate((thm.statement,)), 10)
    assert result.provable and result.shortest_length == 7
    assert script_is_valid(thm, result.shortest_script)
    assert script_is_valid(thm, script)  # the known 7-step script is an upper bound


def test_depth_exhaustion_is_flagged(worked_theorem):
    thm, _ = worked_theorem
    result = shortest_proof(Hyperstate((thm.statement,)), 3)
    assert not result.provable and result.depth_limited
    impossible = shortest_proof(Hyperstate((parse_obligation("|- Zero = Succ(Zero)"),)), 6)
    assert not impossible.provable and not impossible.depth_limited


def _all_scripts_up_to(state, max_len):
    """Exhaustive enumeration of tactic sequences, independent of the BFS."""
    if max_len == 0:
        return
    for tactic, produced in enumerate_applicable(state.first):
        child = Hyperstate(produced + state.obligations[1:])
        if child.is_empty:
            yield (tactic,)
        else:
            for rest in _all_scripts_up_to(child, max_len - 1):
                yield (tactic,) + rest


def test_minimality_by_exhaustive_enumeration(small_corpus):
    for entry in small_corpus[:6]:
        state = Hyperstate((entry.theorem.statement,))
        best = shortest_proof(state, 10).shortest_length
        shorter = list(_all_scripts_up_to(state, best - 1))
        assert shorter == []


def test_optimal_value_examples():
    # a 1-step obligation is worth exactly gamma
    one_step = parse_obligation("|- Zero = Zero")
    assert shortest_proof(Hyperstate((one_step,)), 8).value(0.9) == pytest.approx(0.9, abs=1e-12)
    # unprovable within depth falls back to 0
    assert shortest_proof(Hyperstate((parse_obligation("|- Zero = Succ(Zero)"),)), 8).value(0.9) == 0.0
    # the worked example's post-intros obligation takes 6 steps: gamma^6
    six = shortest_proof(Hyperstate((parse_obligation("n |- Plus(Var(n),Zero) = Var(n)"),)), 8)
    assert six.shortest_length == 6
    assert six.value(0.9) == pytest.approx(0.9**6, abs=1e-12)


def test_optimal_value_monotone_in_length(small_corpus):
    from valueprover.env import extract_subproof_tasks

    scored = []
    for entry in small_corpus[:8]:
        for obligation, script in extract_subproof_tasks(entry.theorem, entry.proof):
            scored.append((len(script.steps), shortest_proof(Hyperstate((obligation,)), 10).value(0.9)))
    scored.sort(key=lambda pair: pair[0])
    for (la, va), (lb, vb) in zip(scored, scored[1:]):
        if la <= lb:
            assert va >= vb - 1e-12


def test_reproducible_under_predictor():
    task_ob = parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)")
    task = (task_ob, parse_script("simpl; reflexivity"))
    always_right = RankedPredictor(("simpl", "reflexivity", "intros", "induction", "rewrite", "f_equal"))
    assert reproducible_under_predictor(task, always_right, 1) is False  # refl ranked 2nd
    assert reproducible_under_predictor(task, always_right, 2) is True
    assert reproducible_under_predictor(task, always_right, 0) is False
    never_right = RankedPredictor(("f_equal", "intros", "induction", "rewrite", "reflexivity", "simpl"))
    assert reproducible_under_predictor(task, never_right, 1) is False
    with pytest.raises(ValueError):
        reproducible_under_predictor((task_ob, parse_script("simpl")), always_right, 6)


def test_restricted_action_provider():
    thm_ob = parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)")
    no_simpl = RankedPredictor(("reflexivity", "f_equal", "intros", "induction", "rewrite", "simpl"))

    def provider(ob):
        from valueprover.predictor import predict_top_n

        return [p.tactic for p in predict_top_n(no_simpl, ob, 2)]

    unrestricted = shortest_proof(Hyperstate((thm_ob,)), 8)
    restricted = shortest_proof(Hyperstate((thm_ob,)), 8, actions=provider)
    assert unrestricted.provable and not restricted.provable


ORACLE_DEPTH = 16


def _random_entry(seed: int, family: int):
    counts = [0, 0, 0]
    counts[family] = 1
    entries, _ = generate_corpus(seed, tuple(counts))
    return entries[0]


def _top_n(predictor, n):
    return lambda ob: [p.tactic for p in predict_top_n(predictor, ob, n)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), family=st.integers(0, 2))
def test_tabular_fixed_point_is_gamma_to_the_oracle_length(trained_predictor, seed, family):
    # the update rule's fixed point on a random theorem's obligation graph is
    # gamma^shortest, and 0 where the oracle finds no proof, under the same
    # top-n actions
    theorem = _random_entry(seed, family).theorem
    graph = explore_obligation_graph([theorem.statement], trained_predictor, 5)
    values = tabular_value_iteration(graph, 0.9)
    for key, (ob, _) in graph.items():
        result = shortest_proof(Hyperstate((ob,)), ORACLE_DEPTH, actions=_top_n(trained_predictor, 5))
        assert not result.depth_limited
        expected = 0.9**result.shortest_length if result.provable else 0.0
        assert values[key] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), family=st.integers(0, 2))
def test_astar_under_the_oracle_heuristic_finds_the_shortest_proof(trained_predictor, seed, family):
    theorem = _random_entry(seed, family).theorem
    provider = _top_n(trained_predictor, 5)
    reference = shortest_proof(Hyperstate((theorem.statement,)), ORACLE_DEPTH, actions=provider)
    assert reference.provable
    result = run_strategy("astar", theorem, oracle_model(0.9, ORACLE_DEPTH, provider), trained_predictor, 5, 512)
    assert result.proved and result.proof_length == reference.shortest_length
    assert script_is_valid(theorem, result.script)


def _shuffled_candidates(seed):
    """Every tactic template with every context name as argument, applicable
    or not, in an order fixed by the seed and the obligation."""

    def provider(ob):
        names = [entry.name for entry in ob.context]
        candidates = [Tactic(t, a) for t in ARG_TEMPLATES for a in names]
        candidates += [Tactic(t) for t in TEMPLATES if t not in ARG_TEMPLATES]
        random.Random(f"{seed}|{ob.canonical()}").shuffle(candidates)
        return candidates

    return provider


def _every_applicable_uncached(ob):
    return [tactic for tactic, _ in enumerate_applicable.__wrapped__(ob)]


def _reference_shortest_proof(start, max_depth, actions=None):
    """shortest_proof's BFS, stepping every candidate tactic through
    step_hyperstate and drawing the default candidates from an uncached
    enumeration."""
    actions = _every_applicable_uncached if actions is None else actions
    if start.is_empty:
        return OracleResult(True, ProofScript(), 0, False)
    queue = deque([(start, ())])
    visited = {start.canonical_key()}
    depth_limited = False
    while queue:
        state, script = queue.popleft()
        if len(script) >= max_depth:
            depth_limited = True
            continue
        for tactic in actions(state.first):
            try:
                child = step_hyperstate(state, tactic)
            except TacticError:
                continue
            if child.is_empty:
                found = script + (tactic,)
                return OracleResult(True, ProofScript(found), len(found), False)
            key = child.canonical_key()
            if key in visited:
                continue
            visited.add(key)
            queue.append((child, script + (tactic,)))
    return OracleResult(False, None, None, depth_limited)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), family=st.integers(0, 2), max_depth=st.integers(0, 10))
def test_shortest_proof_matches_a_step_by_step_reference_bfs(trained_predictor, data, seed, family, max_depth):
    # the start is a random theorem, or the hyperstate (or one obligation of
    # it) reached after a random prefix of its proof; the candidates are all
    # applicable tactics, the predictor's top n or every tactic shuffled
    entry = _random_entry(seed, family)
    state = Hyperstate((entry.theorem.statement,))
    for tactic in entry.proof.steps[: data.draw(st.integers(0, len(entry.proof.steps) - 1))]:
        state = step_hyperstate(state, tactic)
    if data.draw(st.booleans()):
        state = Hyperstate((data.draw(st.sampled_from(state.obligations)),))
    first = state.first
    if first.hypotheses() and data.draw(st.booleans()):
        # a renamed copy of a hypothesis ties every rewrite by the original,
        # so that only the candidate order picks the returned script
        h = data.draw(st.sampled_from(first.hypotheses()))
        context = first.context + (Hypothesis(h.name + "_twin", h.lhs, h.rhs),)
        state = Hyperstate((Obligation(first.binders, context, first.goal_lhs, first.goal_rhs),) + state.obligations[1:])
    provider = data.draw(st.sampled_from(("all", "top_n", "shuffled")))
    if provider == "all":
        actions = None
    elif provider == "top_n":
        actions = _top_n(trained_predictor, data.draw(st.integers(1, 6)))
    else:
        actions = _shuffled_candidates(seed)
    assert shortest_proof(state, max_depth, actions) == _reference_shortest_proof(state, max_depth, actions)
