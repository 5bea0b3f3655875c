import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from valueprover import search as search_module
from valueprover.cli import EVAL_STRATEGIES, run_strategy
from valueprover.corpus import generate_corpus
from valueprover.encoder import hashed_encoder
from valueprover.env import (
    Hyperstate,
    TEMPLATE_INDEX,
    TEMPLATES,
    TacticError,
    Theorem,
    parse_obligation,
    parse_script,
    script_is_valid,
    step_hyperstate,
)
from valueprover.oracle import optimal_value, shortest_proof
from valueprover.predictor import predict_top_n
from valueprover.value_model import ValueModel
from valueprover.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    PROVED,
    SAFETY_DEPTH,
    ProbabilityScorer,
    SearchNode,
    ValueScorer,
    astar_search,
    best_first_search,
    dfs_search,
    f_score,
    greedy_from_hyperstate,
    greedy_search,
)


class RankedPredictor:
    def __init__(self, order):
        self.order = order

    def template_probabilities(self, _):
        probs = np.zeros(6)
        for rank, name in enumerate(self.order):
            probs[TEMPLATE_INDEX[name]] = 0.5 / (2.0**rank)
        return probs / probs.sum()


def oracle_scorer(gamma=0.9, depth=12, actions=None):
    return ValueScorer(lambda ob: optimal_value(ob, gamma, depth, actions=actions), gamma)


def one_step_theorem():
    return Theorem("refl", parse_obligation("|- Zero = Zero"))


def all_strategies(thm, scorer, predictor, n, budget=64):
    return {
        "astar": astar_search(thm, scorer, predictor, n, budget),
        "bestfirst": best_first_search(thm, scorer, predictor, n, budget),
        "dfs": dfs_search(thm, predictor, n, budget),
        "greedy": greedy_search(thm, scorer, predictor, n, budget),
    }


def test_one_tactic_theorem_all_strategies(trained_predictor):
    results = all_strategies(one_step_theorem(), oracle_scorer(), trained_predictor, 5)
    for name, result in results.items():
        assert result.status == PROVED, name
        assert result.proof_length == 1 and result.nodes_expanded == 1
        assert str(result.script) == "reflexivity"


def test_zero_budget_is_budget_exceeded(trained_predictor):
    for result in all_strategies(one_step_theorem(), oracle_scorer(), trained_predictor, 5, budget=0).values():
        assert result.status == BUDGET_EXCEEDED and result.script is None


def test_f_score_example():
    assert f_score(3, 2.9) == pytest.approx(5.9, abs=1e-12)
    node = SearchNode(Hyperstate(()), (), 3, 2.9, f_score(3, 2.9), 0)
    assert node.f == pytest.approx(5.9, abs=1e-12)


def test_astar_requires_steps_convertible_scorer(trained_predictor):
    with pytest.raises(ValueError):
        astar_search(one_step_theorem(), ProbabilityScorer(), trained_predictor, 5)


def test_astar_matches_restricted_oracle(small_corpus, trained_predictor):
    def provider(ob):
        return [p.tactic for p in predict_top_n(trained_predictor, ob, 5)]

    scorer = oracle_scorer(actions=provider)
    for entry in small_corpus[:10]:
        reference = shortest_proof(Hyperstate((entry.theorem.statement,)), 12, actions=provider)
        if not reference.provable:
            continue
        result = astar_search(entry.theorem, scorer, trained_predictor, 5, 512)
        assert result.status == PROVED
        assert result.proof_length == reference.shortest_length
        assert script_is_valid(entry.theorem, result.script)


def test_returned_scripts_validate(small_corpus, trained_predictor):
    scorer = oracle_scorer()
    for entry in small_corpus[:6]:
        for name, result in all_strategies(entry.theorem, scorer, trained_predictor, 5, 512).items():
            if result.status == PROVED:
                assert script_is_valid(entry.theorem, result.script), name
                assert result.proof_length == len(result.script.steps)


def test_budget_monotonicity(small_corpus, trained_predictor):
    scorer = oracle_scorer()
    thm = next(e.theorem for e in small_corpus if e.proof_length == 7)
    last_proved = False
    for budget in (0, 2, 4, 8, 16, 64):
        proved = astar_search(thm, scorer, trained_predictor, 5, budget).status == PROVED
        assert proved or not last_proved
        last_proved = proved or last_proved


def test_no_hyperstate_expanded_twice(monkeypatch, small_corpus, trained_predictor):
    import valueprover.search as search_mod

    seen_keys = []
    original = search_mod._children

    def recording(node, predictor, n, tally):
        seen_keys.append(node.hyperstate.canonical_key())
        return original(node, predictor, n, tally)

    monkeypatch.setattr(search_mod, "_children", recording)
    thm = next(e.theorem for e in small_corpus if e.proof_length == 7)
    for run in (
        lambda: astar_search(thm, oracle_scorer(), trained_predictor, 5, 512),
        lambda: best_first_search(thm, oracle_scorer(), trained_predictor, 5, 512),
        lambda: dfs_search(thm, trained_predictor, 5, 512),
    ):
        seen_keys.clear()
        run()
        assert len(seen_keys) == len(set(seen_keys))


def test_dfs_depth_limit(trained_predictor):
    thm = Theorem("two", parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)"))
    assert dfs_search(thm, trained_predictor, 5, 64, depth_limit=1).status == EXHAUSTED
    assert dfs_search(thm, trained_predictor, 5, 64, depth_limit=2).status == PROVED
    with pytest.raises(ValueError):
        dfs_search(thm, trained_predictor, 5, 64, depth_limit=0)


def test_dfs_dives_while_astar_proves():
    # the good tactic (simpl) is ranked below f_equal at the root, so DFS
    # keeps peeling Succs within its depth limit and burns the budget while
    # A* under a sound evaluator goes straight to the proof
    goal = "|- " + "Succ(" * 10 + "Plus(Zero,Zero)" + ")" * 10 + " = " + "Succ(" * 10 + "Zero" + ")" * 10
    thm = Theorem("trap", parse_obligation(goal))
    misleading = RankedPredictor(("f_equal", "simpl", "reflexivity", "intros", "induction", "rewrite"))
    dfs = dfs_search(thm, misleading, 3, budget=4, depth_limit=10)
    assert dfs.status == BUDGET_EXCEEDED
    astar = astar_search(thm, oracle_scorer(depth=6), misleading, 3, budget=4)
    assert astar.status == PROVED and astar.proof_length == 2


def test_probability_scorer_explores_more_on_misleading_ranking():
    goal = "|- " + "Succ(" * 6 + "Plus(Zero,Zero)" + ")" * 6 + " = " + "Succ(" * 6 + "Zero" + ")" * 6
    thm = Theorem("trap", parse_obligation(goal))
    misleading = RankedPredictor(("f_equal", "simpl", "reflexivity", "intros", "induction", "rewrite"))
    by_value = best_first_search(thm, oracle_scorer(depth=6), misleading, 3, budget=64)
    by_prob = best_first_search(thm, ProbabilityScorer(), misleading, 3, budget=64)
    assert by_value.status == PROVED and by_prob.status == PROVED
    assert by_value.nodes_expanded < by_prob.nodes_expanded


def test_greedy_dead_end_is_exhausted():
    dead = parse_obligation(
        "n', IH_n : Succ(Plus(Var(n'),Succ(Zero))) = Succ(Succ(Plus(Var(n'),Zero))) |- "
        "Plus(Var(n'),Succ(Zero)) = Succ(Plus(Var(n'),Zero))"
    )
    ranked = RankedPredictor(("simpl", "reflexivity", "f_equal", "intros", "induction", "rewrite"))
    result = greedy_from_hyperstate(Hyperstate((dead,)), oracle_scorer(), ranked, 6, 16)
    assert result.status == EXHAUSTED and result.nodes_expanded == 1
    assert result.dead_ends == (dead,)


def test_greedy_stops_at_safety_depth():
    # rewriting with IH_m1 first keeps growing the goal; without the depth
    # guard greedy recursed until hashing the goal raised RecursionError
    commutativity = parse_obligation("forall n1 m1, |- Plus(Var(n1),Var(m1)) = Plus(Var(m1),Var(n1))")
    ranked = RankedPredictor(("rewrite", "reflexivity", "simpl", "intros", "induction", "f_equal"))
    result = greedy_from_hyperstate(Hyperstate((commutativity,)), ProbabilityScorer(), ranked, 6)
    assert result.status == EXHAUSTED and result.script is None
    assert result.nodes_expanded == SAFETY_DEPTH


def test_unprovable_goal_is_exhausted(trained_predictor):
    thm = Theorem("false", parse_obligation("|- Zero = Succ(Zero)"))
    for result in all_strategies(thm, oracle_scorer(), trained_predictor, 5, budget=64).values():
        assert result.status in (EXHAUSTED, BUDGET_EXCEEDED)
        assert result.script is None


def test_greedy_probability_takes_top_ranked(trained_predictor):
    thm = Theorem("two", parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)"))
    result = greedy_search(thm, ProbabilityScorer(), trained_predictor, 5, 16)
    assert result.status == PROVED and result.proof_length == 2


def test_search_result_record(trained_predictor):
    result = astar_search(one_step_theorem(), oracle_scorer(), trained_predictor, 5, 16)
    record = result.to_record("refl", "astar")
    assert record["theorem_id"] == "refl" and record["strategy"] == "astar"
    assert record["status"] == PROVED and record["proof"] == "reflexivity"
    assert "wall_ms" in record
    assert "wall_ms" not in result.to_record("refl", "astar", include_wall=False)


def _reference_children(node, predictor, n, tally):
    """search._children as it was before the shared action cache: predict
    and step afresh at every expansion."""
    out = []
    for prediction in predict_top_n(predictor, node.hyperstate.first, n):
        tally.executions += 1
        try:
            child = step_hyperstate(node.hyperstate, prediction.tactic)
        except TacticError:
            continue
        out.append((prediction.tactic, prediction.probability, child))
    if not out:
        tally.dead_ends.append(node.hyperstate.first)
    return out


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
    # at all must give the same record and dead ends for every strategy
    entries, _ = generate_corpus(corpus_seed, (1, 1, 1))
    theorem = entries[pick].theorem
    model = ValueModel(hashed_encoder(64, 0), 64, gamma=0.9, seed=model_seed)

    def fresh_predictor():
        return cold_predictor() if ranking is None else RankedPredictor(ranking)

    def run(strategy, predictor):
        result = run_strategy(strategy, theorem, model, predictor, width, budget)
        return result.to_record(theorem.id, strategy, include_wall=False), result.dead_ends

    for strategy in EVAL_STRATEGIES:
        cold = run(strategy, fresh_predictor())
        warmed = fresh_predictor()
        for other in reversed(EVAL_STRATEGIES):
            if other != strategy:
                run(other, warmed)
        warm = run(strategy, warmed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "_children", _reference_children)
            reference = run(strategy, fresh_predictor())
        assert cold == warm == reference
        record = cold[0]
        if record["status"] == PROVED:
            assert script_is_valid(theorem, parse_script(record["proof"]))
