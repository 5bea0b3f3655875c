import heapq
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_model
from valueprover import search as search_module
from valueprover.corpus import generate_corpus
from valueprover.env import (
    Hyperstate,
    TEMPLATE_INDEX,
    TEMPLATES,
    TacticError,
    Theorem,
    parse_obligation,
    apply_tactic,
    extract_subproof_tasks,
    parse_script,
    script_is_valid,
)
from valueprover.oracle import shortest_proof
from valueprover.predictor import ActionCache, predict_top_n
from valueprover.value_model import UndefinedStepsError, ValueModel, product_value, steps_estimate
from valueprover.search import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EVAL_STRATEGIES,
    EXHAUSTED,
    PROVED,
    SAFETY_DEPTH,
    f_score,
    run_strategy,
    search_from,
)


class RankedPredictor:
    def __init__(self, order):
        self.order = order

    def template_probabilities(self, _):
        probs = np.zeros(6)
        for rank, name in enumerate(self.order):
            probs[TEMPLATE_INDEX[name]] = 0.5 / (2.0**rank)
        return probs / probs.sum()


def one_step_theorem():
    return Theorem("refl", parse_obligation("|- Zero = Zero"))


def all_strategies(thm, model, predictor, n, budget=64):
    return {strategy: run_strategy(strategy, thm, model, predictor, n, budget) for strategy in EVAL_STRATEGIES}


def test_one_tactic_theorem_all_strategies(trained_predictor):
    results = all_strategies(one_step_theorem(), oracle_model(), trained_predictor, 5)
    for name, result in results.items():
        assert result.status == PROVED, name
        assert result.proof_length == 1 and result.nodes_expanded == 1
        assert str(result.script) == "reflexivity"


def test_zero_budget_is_budget_exceeded(trained_predictor):
    for result in all_strategies(one_step_theorem(), oracle_model(), trained_predictor, 5, budget=0).values():
        assert result.status == BUDGET_EXCEEDED and result.script is None


def test_f_score_example():
    assert f_score(3, 2.9) == pytest.approx(5.9, abs=1e-12)


def test_astar_matches_restricted_oracle(small_corpus, trained_predictor):
    def provider(ob):
        return [p.tactic for p in predict_top_n(trained_predictor, ob, 5)]

    model = oracle_model(actions=provider)
    for entry in small_corpus[:10]:
        reference = shortest_proof(Hyperstate((entry.theorem.statement,)), 12, actions=provider)
        if not reference.provable:
            continue
        result = run_strategy("astar", entry.theorem, model, trained_predictor, 5, 512)
        assert result.status == PROVED
        assert result.proof_length == reference.shortest_length
        assert script_is_valid(entry.theorem, result.script)


def test_returned_scripts_validate(small_corpus, trained_predictor):
    model = oracle_model()
    for entry in small_corpus[:6]:
        for name, result in all_strategies(entry.theorem, model, trained_predictor, 5, 512).items():
            if result.status == PROVED:
                assert script_is_valid(entry.theorem, result.script), name
                assert result.proof_length == len(result.script.steps)


def test_budget_monotonicity(small_corpus, trained_predictor):
    model = oracle_model()
    thm = next(e.theorem for e in small_corpus if e.proof_length == 7)
    last_proved = False
    for budget in (0, 2, 4, 8, 16, 64):
        proved = run_strategy("astar", thm, model, trained_predictor, 5, budget).status == PROVED
        assert proved or not last_proved
        last_proved = proved or last_proved


def test_no_hyperstate_expanded_twice(monkeypatch, small_corpus, trained_predictor):
    # every node a backtracking search pops is a hyperstate it has not
    # popped before, so none is expanded twice
    seen_keys = []
    heappop = heapq.heappop

    def recording(heap):
        entry = heappop(heap)
        seen_keys.append(entry[-1].hyperstate.canonical_key())
        return entry

    monkeypatch.setattr(search_module.heapq, "heappop", recording)
    thm = next(e.theorem for e in small_corpus if e.proof_length == 7)
    for strategy in ("astar", "bestfirst", "dfs"):
        seen_keys.clear()
        run_strategy(strategy, thm, oracle_model(), trained_predictor, 5, 512)
        assert len(seen_keys) > 1 and len(seen_keys) == len(set(seen_keys))


def test_dfs_depth_limit(monkeypatch, trained_predictor):
    thm = Theorem("two", parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)"))
    monkeypatch.setattr(search_module, "DFS_DEPTH", 1)
    assert run_strategy("dfs", thm, None, trained_predictor, 5, 64).status == EXHAUSTED
    monkeypatch.setattr(search_module, "DFS_DEPTH", 2)
    assert run_strategy("dfs", thm, None, trained_predictor, 5, 64).status == PROVED


def _cached_children(node, predictor, n, tally):
    """One expansion as the search loops did it before the priority loop
    read the action cache itself: every prediction counts as an execution,
    and the applicable ones give children."""
    state = node.hyperstate
    tried, actions = ActionCache.of(predictor, n).entry(state.first)
    tally.executions += tried
    rest = state.obligations[1:]
    return [(tactic, prob, Hyperstate(children + rest)) for tactic, prob, children in actions]


def _reference_dfs_search(thm, predictor, n, budget, depth_limit):
    """DFS as it was with a stack loop of its own."""
    tally = search_module._Tally()
    root = search_module.SearchNode(Hyperstate((thm.statement,)), (), 0)
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
        for tactic, prob, hyperstate in _cached_children(node, predictor, n, tally):
            key = hyperstate.canonical_key()
            if key in visited:
                continue
            visited.add(key)
            children.append(search_module.SearchNode(hyperstate, node.script + (tactic,), node.g + 1))
        # Reversed so the highest-probability child is popped first.
        for child in reversed(children):
            stack.append(child)
    return tally.result(EXHAUSTED)


@settings(max_examples=60, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pick=st.integers(0, 4),
    predictor_kind=st.sampled_from(("trained", "cold")) | st.permutations(TEMPLATES),
    width=st.integers(1, 6),
    budget=st.sampled_from((4, 16, 128)),
    depth_limit=st.integers(1, 12),
)
def test_dfs_matches_the_stack_loop(
    trained_predictor, cold_predictor, corpus_seed, pick, predictor_kind, width, budget, depth_limit
):
    # deepest-first with FIFO ties pops what a LIFO stack with reversed
    # sibling pushes pops
    entries, _ = generate_corpus(corpus_seed, (1, 1, 3))
    theorem = entries[pick].theorem
    if predictor_kind == "trained":
        predictor = trained_predictor
    elif predictor_kind == "cold":
        predictor = cold_predictor()
    else:
        predictor = RankedPredictor(predictor_kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "DFS_DEPTH", depth_limit)
        result = run_strategy("dfs", theorem, None, predictor, width, budget)
    reference = _reference_dfs_search(theorem, predictor, width, budget, depth_limit)
    assert result.to_record(theorem.id, "dfs", include_wall=False) == reference.to_record(
        theorem.id, "dfs", include_wall=False
    )


def test_priority_searches_skip_a_node_at_the_cap(monkeypatch, trained_predictor):
    # the theorem needs two tactics; with a cap of one, only the root is
    # expanded and its children are popped without being counted
    monkeypatch.setattr(search_module, "SAFETY_DEPTH", 1)
    thm = Theorem("two", parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)"))
    for strategy in ("astar", "bestfirst", "bestfirst_prob"):
        result = run_strategy(strategy, thm, oracle_model(), trained_predictor, 5, 64)
        assert result.status == EXHAUSTED and result.nodes_expanded == 1


def test_dfs_dives_while_astar_proves():
    # the good tactic (simpl) is ranked below f_equal at the root, so DFS
    # keeps peeling Succs within its depth limit and burns the budget while
    # A* under a sound evaluator goes straight to the proof
    goal = "|- " + "Succ(" * 10 + "Plus(Zero,Zero)" + ")" * 10 + " = " + "Succ(" * 10 + "Zero" + ")" * 10
    thm = Theorem("trap", parse_obligation(goal))
    misleading = RankedPredictor(("f_equal", "simpl", "reflexivity", "intros", "induction", "rewrite"))
    assert search_module.DFS_DEPTH == 10
    dfs = run_strategy("dfs", thm, None, misleading, 3, 4)
    assert dfs.status == BUDGET_EXCEEDED
    astar = run_strategy("astar", thm, oracle_model(depth=6), misleading, 3, 4)
    assert astar.status == PROVED and astar.proof_length == 2


def test_probability_scorer_explores_more_on_misleading_ranking():
    goal = "|- " + "Succ(" * 6 + "Plus(Zero,Zero)" + ")" * 6 + " = " + "Succ(" * 6 + "Zero" + ")" * 6
    thm = Theorem("trap", parse_obligation(goal))
    misleading = RankedPredictor(("f_equal", "simpl", "reflexivity", "intros", "induction", "rewrite"))
    by_value = run_strategy("bestfirst", thm, oracle_model(depth=6), misleading, 3, 64)
    by_prob = run_strategy("bestfirst_prob", thm, None, misleading, 3, 64)
    assert by_value.status == PROVED and by_prob.status == PROVED
    assert by_value.nodes_expanded < by_prob.nodes_expanded


def test_greedy_dead_end_is_exhausted():
    dead = parse_obligation(
        "n', IH_n : Succ(Plus(Var(n'),Succ(Zero))) = Succ(Succ(Plus(Var(n'),Zero))) |- "
        "Plus(Var(n'),Succ(Zero)) = Succ(Plus(Var(n'),Zero))"
    )
    ranked = RankedPredictor(("simpl", "reflexivity", "f_equal", "intros", "induction", "rewrite"))
    result = search_from("greedy", Hyperstate((dead,)), oracle_model(), ranked, 6, 16)
    assert result.status == EXHAUSTED and result.nodes_expanded == 1
    assert not ActionCache.of(ranked, 6)(dead)  # every prediction errors


def test_greedy_stops_at_safety_depth():
    # rewriting with IH_m1 first keeps growing the goal; without the depth
    # guard greedy recursed until hashing the goal raised RecursionError
    commutativity = parse_obligation("forall n1 m1, |- Plus(Var(n1),Var(m1)) = Plus(Var(m1),Var(n1))")
    ranked = RankedPredictor(("rewrite", "reflexivity", "simpl", "intros", "induction", "f_equal"))
    result = search_from("greedy_prob", Hyperstate((commutativity,)), None, ranked, 6, DEFAULT_BUDGET)
    assert result.status == EXHAUSTED and result.script is None
    assert result.nodes_expanded == SAFETY_DEPTH


def test_unprovable_goal_is_exhausted(trained_predictor):
    thm = Theorem("false", parse_obligation("|- Zero = Succ(Zero)"))
    for result in all_strategies(thm, oracle_model(), trained_predictor, 5, budget=64).values():
        assert result.status in (EXHAUSTED, BUDGET_EXCEEDED)
        assert result.script is None


def test_greedy_probability_takes_top_ranked(trained_predictor):
    thm = Theorem("two", parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)"))
    result = run_strategy("greedy_prob", thm, None, trained_predictor, 5, 16)
    assert result.status == PROVED and result.proof_length == 2


@pytest.mark.parametrize(
    "goal",
    [
        # reflexivity errors, so rewrite H is the only way on
        "n, H : Var(n) = Var(n) |- Plus(Var(n),Zero) = Var(n)",
        # reflexivity would close the goal, but it is never the best child,
        # not even at the cap, where the best child is dropped unexpanded
        "n, H : Var(n) = Var(n) |- Var(n) = Var(n)",
    ],
)
def test_greedy_may_come_back_to_a_hyperstate(goal):
    # rewrite H gives back the same hyperstate, and greedy commits to it
    # until the safety depth; a loop that remembered the hyperstates of
    # earlier expansions would be exhausted after one
    ranked = RankedPredictor(("rewrite", "reflexivity", "simpl", "intros", "induction", "f_equal"))
    result = search_from("greedy_prob", Hyperstate((parse_obligation(goal),)), None, ranked, 6, DEFAULT_BUDGET)
    assert result.status == EXHAUSTED
    assert result.nodes_expanded == SAFETY_DEPTH == 50
    assert result.tactic_executions == 300


def test_greedy_neither_values_its_root_nor_keys_its_children(monkeypatch, trained_predictor):
    # a greedy walk forgets its queue at every pop: its root is popped first
    # whatever its priority, and of equal siblings FIFO pops the first, so
    # it needs no root value and no enqueued keys; a backtracking search
    # needs both
    keys = []
    canonical_key = Hyperstate.canonical_key
    monkeypatch.setattr(Hyperstate, "canonical_key", lambda self: keys.append(self) or canonical_key(self))
    start = Hyperstate((parse_obligation("forall n, |- Plus(Succ(Var(n)),Zero) = Succ(Var(n))"),))
    for backtrack in (False, True):
        keys.clear()
        valued = []

        def priority(node):
            valued.append(node.g)
            return -node.path_prob

        result = search_module._priority_search(start, trained_predictor, 5, 64, priority, SAFETY_DEPTH, backtrack)
        assert result.status == PROVED and valued
        assert (0 in valued) == backtrack
        assert bool(keys) == backtrack


def _hyperstate_value(model, hyperstate):
    return product_value(model.v_value(ob) for ob in hyperstate.obligations)


def _hyperstate_steps(model, hyperstate):
    return sum(steps_estimate(model.v_value(ob), model.gamma) for ob in hyperstate.obligations)


def _reference_greedy(start, model, predictor, n, budget, depth_cap):
    """Greedy search as it was with a loop of its own; without a model it
    orders by probability."""
    tally = search_module._Tally()
    state = start
    script = ()
    while not state.is_empty:
        if tally.expanded >= budget:
            return tally.result(BUDGET_EXCEEDED)
        if len(script) >= depth_cap:
            return tally.result(EXHAUSTED)
        tally.expanded += 1
        node = search_module.SearchNode(state, script, len(script))
        options = _cached_children(node, predictor, n, tally)
        if not options:
            return tally.result(EXHAUSTED)
        if model is not None:
            best = max(options, key=lambda opt: _hyperstate_value(model, opt[2]))
        else:
            best = options[0]  # predictions arrive in descending probability
        tactic, _, state = best
        script = script + (tactic,)
    return tally.result(PROVED, script)


@settings(max_examples=80, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pick=st.integers(0, 4),
    task=st.integers(0, 20),
    scorer_kind=st.sampled_from(("model", "oracle", "probability")),
    model_seed=st.integers(0, 3),
    predictor_kind=st.sampled_from(("trained", "cold")) | st.permutations(TEMPLATES),
    width=st.integers(1, 6),
    budget=st.integers(0, 64),
    depth_cap=st.integers(1, 8),
)
def test_greedy_matches_its_own_loop(
    trained_predictor,
    cold_predictor,
    corpus_seed,
    pick,
    task,
    scorer_kind,
    model_seed,
    predictor_kind,
    width,
    budget,
    depth_cap,
):
    # greedy is the priority loop without backtracking: the FIFO tie-break
    # picks the child max() and options[0] picked. Sub-proof obligations
    # start with binders introduced and hypotheses in the context.
    entries, _ = generate_corpus(corpus_seed, (1, 1, 3))
    entry = entries[pick]
    tasks = extract_subproof_tasks(entry.theorem, entry.proof)
    start = Hyperstate((tasks[task % len(tasks)][0],))
    if scorer_kind == "model":
        model = ValueModel(64, gamma=0.9, seed=model_seed)
    elif scorer_kind == "oracle":
        model = oracle_model(depth=7)
    else:
        model = None
    if predictor_kind == "trained":
        predictor = trained_predictor
    elif predictor_kind == "cold":
        predictor = cold_predictor()
    else:
        predictor = RankedPredictor(predictor_kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "SAFETY_DEPTH", depth_cap)
        result = search_from("greedy" if model is not None else "greedy_prob", start, model, predictor, width, budget)
    reference = _reference_greedy(start, model, predictor, width, budget, depth_cap)
    assert result.to_record("task", "greedy", include_wall=False) == reference.to_record(
        "task", "greedy", include_wall=False
    )


def test_search_result_record(trained_predictor):
    result = run_strategy("astar", one_step_theorem(), oracle_model(), trained_predictor, 5, 16)
    record = result.to_record("refl", "astar")
    assert record["theorem_id"] == "refl" and record["strategy"] == "astar"
    assert record["status"] == PROVED and record["proof"] == "reflexivity"
    assert "wall_ms" in record
    assert "wall_ms" not in result.to_record("refl", "astar", include_wall=False)


class _UncachedActions:
    """ActionCache as it was before the shared action cache: predict and
    apply afresh at every expansion."""

    def __init__(self, predictor, n):
        self.predictor = predictor
        self.n = n

    @classmethod
    def of(cls, predictor, n):
        return cls(predictor, n)

    def entry(self, ob):
        predictions = predict_top_n(self.predictor, ob, self.n)
        actions = []
        for prediction in predictions:
            try:
                children = apply_tactic(ob, prediction.tactic)
            except TacticError:
                continue
            actions.append((prediction.tactic, prediction.probability, children))
        return len(predictions), tuple(actions)


@settings(max_examples=40, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pick=st.integers(0, 2),
    model_seed=st.integers(0, 3),
    ranking=st.none() | st.permutations(TEMPLATES),
    width=st.integers(1, 6),
    budget=st.sampled_from((4, 16, 128)),
)
def test_shared_action_cache_does_not_change_any_search(
    cold_predictor, corpus_seed, pick, model_seed, ranking, width, budget
):
    # a cold cache, a cache the other five strategies warmed, and no cache
    # at all must give the same record for every strategy
    entries, _ = generate_corpus(corpus_seed, (1, 1, 1))
    theorem = entries[pick].theorem
    model = ValueModel(64, gamma=0.9, seed=model_seed)

    def fresh_predictor():
        return cold_predictor() if ranking is None else RankedPredictor(ranking)

    def run(strategy, predictor):
        result = run_strategy(strategy, theorem, model, predictor, width, budget)
        return result.to_record(theorem.id, strategy, include_wall=False)

    for strategy in EVAL_STRATEGIES:
        cold = run(strategy, fresh_predictor())
        warmed = fresh_predictor()
        for other in reversed(EVAL_STRATEGIES):
            if other != strategy:
                run(other, warmed)
        warm = run(strategy, warmed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "ActionCache", _UncachedActions)
            reference = run(strategy, fresh_predictor())
        assert cold == warm == reference
        if cold["status"] == PROVED:
            assert script_is_valid(theorem, parse_script(cold["proof"]))


@dataclass
class _ReferenceNode:
    hyperstate: Hyperstate
    script: tuple
    g: int
    h: float
    f: float
    seq: int
    path_prob: float = 1.0


def _reference_priority_search(thm, model, predictor, n, budget, depth_limit, order):
    """The priority loop as it was when A* and best-first each chose their
    priority by an order string: "f", "value" or "probability"."""
    tally = search_module._Tally()
    root = _ReferenceNode(Hyperstate((thm.statement,)), (), 0, 0.0, 0.0, 0)
    if order == "f":
        try:
            root.h = _hyperstate_steps(model, root.hyperstate)
        except UndefinedStepsError:
            return tally.result(EXHAUSTED)
        root.f = root.h

    def priority(node):
        if order == "f":
            return node.f
        if order == "value":
            return -_hyperstate_value(model, node.hyperstate)
        return -node.path_prob

    seq = 0
    heap = [(priority(root), seq, root)]
    enqueued = {root.hyperstate.canonical_key()}
    while heap:
        _, _, node = heapq.heappop(heap)
        if node.hyperstate.is_empty:
            return tally.result(PROVED, node.script)
        if tally.expanded >= budget:
            return tally.result(BUDGET_EXCEEDED)
        if node.g >= depth_limit:
            continue
        tally.expanded += 1
        for tactic, prob, hyperstate in _cached_children(node, predictor, n, tally):
            key = hyperstate.canonical_key()
            if key in enqueued:
                continue
            child = _ReferenceNode(hyperstate, node.script + (tactic,), node.g + 1, 0.0, 0.0, 0, node.path_prob * prob)
            if order == "f" and not hyperstate.is_empty:
                try:
                    child.h = _hyperstate_steps(model, hyperstate)
                except UndefinedStepsError:
                    continue
            child.f = f_score(child.g, child.h)
            enqueued.add(key)
            seq += 1
            child.seq = seq
            heapq.heappush(heap, (priority(child), seq, child))
    return tally.result(EXHAUSTED)


@settings(max_examples=60, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pick=st.integers(0, 4),
    oracle_depth=st.none() | st.sampled_from((3, 7, 10)),
    model_seed=st.integers(0, 3),
    ranking=st.none() | st.permutations(TEMPLATES),
    width=st.integers(1, 6),
    budget=st.sampled_from((4, 16, 128)),
    depth_cap=st.integers(1, 8),
)
# A* meets dead children six tactics deep
@example(8869, 3, 7, 0, ("intros", "f_equal", "rewrite", "reflexivity", "induction", "simpl"), 6, 128, 6)
# A* pops one of two nodes of equal f; the FIFO tie-break decides which
@example(4848, 2, 10, 3, None, 5, 16, 5)
def test_priority_loop_matches_the_order_string_loop(
    cold_predictor, corpus_seed, pick, oracle_depth, model_seed, ranking, width, budget, depth_cap
):
    # The oracle stand-in values an obligation it cannot prove within its
    # depth at 0, so A* meets dead roots and dead children; a ValueModel
    # values everything above 0. Caps of 1-8 tactics are reached.
    entries, _ = generate_corpus(corpus_seed, (1, 1, 3))
    theorem = entries[pick].theorem
    if oracle_depth is None:
        model = ValueModel(64, gamma=0.9, seed=model_seed)
    else:
        model = oracle_model(depth=oracle_depth)
    for strategy, order in (("astar", "f"), ("bestfirst", "value"), ("bestfirst_prob", "probability")):
        predictor = cold_predictor() if ranking is None else RankedPredictor(ranking)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "SAFETY_DEPTH", depth_cap)
            result = run_strategy(strategy, theorem, model, predictor, width, budget)
        reference = _reference_priority_search(theorem, model, predictor, width, budget, depth_cap, order)
        assert result.to_record(theorem.id, order, include_wall=False) == reference.to_record(
            theorem.id, order, include_wall=False
        )
