import inspect

import pytest
from hypothesis import given, settings, strategies as st

from conftest import subproof_tasks
from valueprover import env
from valueprover.corpus import CorpusEntry, CorpusSplit, generate_corpus
from valueprover.env import (
    CACHE_SIZE,
    ContextVar,
    Hyperstate,
    Hypothesis,
    Obligation,
    ProofScript,
    ReplayError,
    Tactic,
    TacticError,
    Theorem,
    applicable_among,
    apply_tactic,
    discharges,
    enumerate_applicable,
    format_obligation,
    format_script,
    parse_obligation,
    parse_script,
    parse_tactic,
    replay_script,
    script_is_valid,
    step_hyperstate,
)
from valueprover.terms import ZERO, Plus, Succ, Var
from valueprover.trainer import TrainerConfig, prepare_tasks

import reference_primitives


def ob(text):
    return parse_obligation(text)


def test_obligation_round_trip():
    texts = [
        "|- Zero = Zero",
        "forall n, |- Plus(Var(n),Zero) = Var(n)",
        "forall n m, |- Plus(Var(n),Succ(Var(m))) = Succ(Plus(Var(n),Var(m)))",
        "n |- Plus(Var(n),Zero) = Var(n)",
        "n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Succ(Var(n')) = Succ(Var(n'))",
    ]
    for text in texts:
        assert format_obligation(parse_obligation(text)) == text


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_canonical_text_keeps_obligations_structural(replay_obligations, data):
    original = data.draw(st.sampled_from(replay_obligations))
    text = original.canonical()
    fresh = Obligation(original.binders, original.context, original.goal_lhs, original.goal_rhs)
    assert original == fresh and hash(original) == hash(fresh) and repr(original) == repr(fresh)
    assert parse_obligation(text) == original
    assert original.canonical() is text
    assert fresh.canonical() == text == format_obligation(fresh)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_obligations_hash_through_their_canonical_text(replay_obligations, data):
    original = data.draw(st.sampled_from(replay_obligations))
    assert hash(original) == hash(original.canonical())
    rebuilt = parse_obligation(original.canonical())
    assert rebuilt == original and hash(rebuilt) == hash(original)


def test_obligation_hash_is_the_class_own_method():
    # a hash generated by dataclass has no source file to show
    assert "__hash__" in Obligation.__dict__
    assert "hash(self.canonical())" in inspect.getsource(Obligation.__hash__)


def test_obligation_scoping_validated():
    with pytest.raises(Exception):
        parse_obligation("|- Var(n) = Zero")  # unbound variable
    with pytest.raises(Exception):
        parse_obligation("forall n n, |- Zero = Zero")  # duplicate name


def test_tactic_round_trip_and_validation():
    for text in ("intros", "induction n", "simpl", "rewrite IH_n", "f_equal", "reflexivity"):
        assert str(parse_tactic(text)) == text
    with pytest.raises(ValueError):
        Tactic("induction")  # missing argument
    with pytest.raises(ValueError):
        Tactic("simpl", "x")  # spurious argument
    with pytest.raises(ValueError):
        parse_tactic("frobnicate")


def test_script_round_trip():
    text = "intros; induction n; simpl; reflexivity"
    assert format_script(parse_script(text)) == text
    assert parse_script("") == ProofScript()


def test_intros_moves_all_binders():
    before = ob("forall n m, |- Plus(Var(n),Var(m)) = Plus(Var(n),Var(m))")
    (after,) = apply_tactic(before, Tactic("intros"))
    assert after.binders == ()
    assert after.context == (ContextVar("n"), ContextVar("m"))
    with pytest.raises(TacticError):
        apply_tactic(after, Tactic("intros"))


def test_simpl_examples():
    (after,) = apply_tactic(ob("|- Plus(Zero,Zero) = Zero"), Tactic("simpl"))
    assert after == ob("|- Zero = Zero")
    with pytest.raises(TacticError):
        apply_tactic(ob("|- Zero = Zero"), Tactic("simpl"))


def test_reflexivity_examples():
    assert apply_tactic(ob("|- Zero = Zero"), Tactic("reflexivity")) == ()
    with pytest.raises(TacticError):
        apply_tactic(ob("|- Plus(Zero,Zero) = Zero"), Tactic("reflexivity"))


def test_induction_produces_base_and_step():
    base, step = apply_tactic(ob("n |- Plus(Var(n),Zero) = Var(n)"), Tactic("induction", "n"))
    assert base == ob("|- Plus(Zero,Zero) = Zero")
    assert step == ob(
        "n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Plus(Succ(Var(n')),Zero) = Succ(Var(n'))"
    )


def test_induction_preconditions():
    with pytest.raises(TacticError):  # binders not introduced
        apply_tactic(ob("forall n, |- Plus(Var(n),Zero) = Var(n)"), Tactic("induction", "n"))
    with pytest.raises(TacticError):  # not in the goal
        apply_tactic(ob("n m |- Var(m) = Var(m)"), Tactic("induction", "n"))
    with pytest.raises(TacticError):  # not an introduced variable
        apply_tactic(ob("|- Zero = Zero"), Tactic("induction", "n"))
    step = ob("n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Plus(Succ(Var(n')),Zero) = Succ(Var(n'))")
    with pytest.raises(TacticError):  # occurs in a hypothesis
        apply_tactic(step, Tactic("induction", "n'"))


def test_induction_freshens_names():
    base, step = apply_tactic(
        ob("n, n' |- Plus(Var(n),Var(n')) = Plus(Var(n),Var(n'))"), Tactic("induction", "n")
    )
    names = [e.name for e in step.context]
    assert len(set(names)) == len(names)
    assert "n''" in names


def test_rewrite_replaces_leftmost_innermost_once():
    state = ob(
        "n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Succ(Plus(Var(n'),Zero)) = Succ(Var(n'))"
    )
    (after,) = apply_tactic(state, Tactic("rewrite", "IH_n"))
    assert after.goal_lhs == Succ(Var("n'"))
    with pytest.raises(TacticError):
        apply_tactic(after, Tactic("rewrite", "IH_n"))  # no occurrence left
    with pytest.raises(TacticError):
        apply_tactic(state, Tactic("rewrite", "nope"))


def test_f_equal():
    (after,) = apply_tactic(ob("|- Succ(Zero) = Succ(Plus(Zero,Zero))"), Tactic("f_equal"))
    assert after == ob("|- Zero = Plus(Zero,Zero)")
    with pytest.raises(TacticError):
        apply_tactic(ob("|- Zero = Zero"), Tactic("f_equal"))


def test_apply_tactic_is_deterministic():
    state = ob("n |- Plus(Var(n),Zero) = Var(n)")
    assert apply_tactic(state, Tactic("induction", "n")) == apply_tactic(state, Tactic("induction", "n"))


def test_step_hyperstate_splices_in_place():
    a = ob("|- Zero = Zero")
    b = ob("|- Succ(Zero) = Succ(Zero)")
    assert step_hyperstate(Hyperstate((a,)), Tactic("reflexivity")).is_empty
    assert step_hyperstate(Hyperstate((a, b)), Tactic("reflexivity")) == Hyperstate((b,))
    g = ob("n |- Plus(Var(n),Zero) = Var(n)")
    spliced = step_hyperstate(Hyperstate((g,)), Tactic("induction", "n"))
    assert len(spliced.obligations) == 2
    with pytest.raises(TacticError):
        step_hyperstate(Hyperstate(()), Tactic("simpl"))


def test_hyperstate_key_is_a_multiset_and_equality_is_structural():
    # search and the oracle dedupe by canonical_key(); equality keeps the
    # script order that replay needs
    a = ob("|- Zero = Zero")
    b = ob("|- Succ(Zero) = Succ(Zero)")
    assert Hyperstate((a, b)).canonical_key() == Hyperstate((b, a)).canonical_key()
    assert Hyperstate((a,)).canonical_key() != Hyperstate((a, a)).canonical_key()
    assert Hyperstate((a, b)) != Hyperstate((b, a))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_key_is_the_sorted_texts(replay_obligations, data):
    obligations = data.draw(st.lists(st.sampled_from(replay_obligations), max_size=3))
    key = Hyperstate(tuple(obligations)).canonical_key()
    assert key == tuple(sorted(o.canonical() for o in obligations))


def test_replay_worked_example(worked_theorem):
    thm, script = worked_theorem
    trace = replay_script(thm, script)
    assert len(trace) == 7
    assert trace[-1][2].is_empty
    assert script_is_valid(thm, script)
    for before, tactic, after in trace:
        assert step_hyperstate(before, tactic) == after


def test_replay_empty_script_not_valid(worked_theorem):
    thm, _ = worked_theorem
    assert replay_script(thm, ProofScript()) == ()
    assert not script_is_valid(thm, ProofScript())


def test_replay_reports_failing_step_index(worked_theorem):
    thm, _ = worked_theorem
    with pytest.raises(ReplayError) as err:
        replay_script(thm, parse_script("simpl; intros"))
    assert err.value.step_index == 0


def test_extract_subproof_tasks_worked_example(worked_theorem):
    thm, script = worked_theorem
    tasks = subproof_tasks(thm, script)
    by_len = sorted(len(s.steps) for _, s in tasks)
    assert by_len == [1, 1, 2, 2, 3, 6, 7]
    first_ob, first_script = tasks[0]
    assert first_ob == thm.statement
    assert first_script == script
    # base case closed in 2 steps, step case in 3
    lengths = {o.canonical(): len(s.steps) for o, s in tasks}
    assert lengths["|- Plus(Zero,Zero) = Zero"] == 2
    step_key = (
        "n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Plus(Succ(Var(n')),Zero) = Succ(Var(n'))"
    )
    assert lengths[step_key] == 3


def test_extract_subproof_length_identity(worked_theorem, small_corpus):
    # a parent task's length is 1 + the sum of the lengths of the tasks
    # spawned by its first tactic; leaves sum to the whole script
    for entry in small_corpus[:12]:
        tasks = subproof_tasks(entry.theorem, entry.proof)
        lengths = {}
        for obligation, script in tasks:
            lengths.setdefault(obligation.canonical(), len(script.steps))
        root = tasks[0]
        children = apply_tactic(root[0], root[1].steps[0])
        child_total = sum(lengths[c.canonical()] for c in children)
        assert len(root[1].steps) == 1 + child_total


@st.composite
def generated_scripts(draw):
    """A generated corpus theorem with its proof, or with a random walk of
    up to 12 applicable tactics, which closes the proof or leaves
    obligations open."""
    entries, _ = generate_corpus(draw(st.integers(0, 2**16)), (2, 2, 2))
    entry = draw(st.sampled_from(entries))
    if draw(st.booleans()):
        return entry.theorem, entry.proof
    state = Hyperstate((entry.theorem.statement,))
    steps = []
    while not state.is_empty and len(steps) < 12:
        options = enumerate_applicable(state.first)
        if not options:
            break
        tactic, produced = draw(st.sampled_from(options))
        steps.append(tactic)
        state = Hyperstate(produced + state.obligations[1:])
    return entry.theorem, ProofScript(tuple(steps))


@settings(max_examples=80, deadline=None)
@given(generated_scripts())
def test_extract_subproof_tasks_matches_the_recursive_reference(case):
    # the discharge spans of one replay cut the same tasks in the same
    # order; a script that leaves obligations open, which the reference
    # refuses, cuts no whole-theorem task
    theorem, script = case
    tasks = subproof_tasks(theorem, script)
    try:
        expected = reference_primitives.extract_subproof_tasks(theorem, script)
    except ReplayError:
        assert (theorem.statement, script) not in tasks
        return
    assert tasks == expected


@settings(max_examples=80, deadline=None)
@given(generated_scripts())
def test_discharges_match_the_episode_frame_stack(case):
    # the same (start, end) pairs in the same order, on closed proofs and on
    # open walks, whose open steps are never yielded
    theorem, script = case
    trace = replay_script(theorem, script)
    assert list(discharges(trace)) == reference_primitives.discharges(trace)


def test_extract_rejects_invalid_script(worked_theorem, trained_predictor):
    thm, script = worked_theorem
    split = CorpusSplit((CorpusEntry(thm, ProofScript(script.steps[:-1])),), ())
    with pytest.raises(ReplayError):
        prepare_tasks(split, trained_predictor, 1, TrainerConfig())


def test_single_reflexivity_task():
    thm = Theorem("t", ob("|- Zero = Zero"))
    tasks = subproof_tasks(thm, parse_script("reflexivity"))
    assert len(tasks) == 1 and len(tasks[0][1].steps) == 1


def test_enumerate_applicable_orders_and_filters():
    state = ob("n |- Plus(Var(n),Zero) = Var(n)")
    applicable = enumerate_applicable(state)
    assert [str(t) for t, _ in applicable] == ["induction n"]
    closed = ob("|- Zero = Zero")
    assert [str(t) for t, _ in enumerate_applicable(closed)] == ["reflexivity"]
    # a closed obligation is memoized per process under the package-wide
    # bound: an equal one parsed afresh gets the very tuple computed first;
    # one that names a variable is expanded afresh, to an equal tuple
    assert env._expand_closed.cache_info().maxsize == CACHE_SIZE
    closed_applicable = enumerate_applicable(closed)
    assert enumerate_applicable(ob("|- Zero = Zero")) is closed_applicable
    again = enumerate_applicable(ob("n |- Plus(Var(n),Zero) = Var(n)"))
    assert again == applicable and again is not applicable


def test_applicable_among_keeps_the_given_order():
    state = ob("n, IH_n : Plus(Var(n),Zero) = Var(n) |- Succ(Plus(Zero,Var(n))) = Succ(Plus(Var(n),Zero))")
    assert [str(t) for t, _ in enumerate_applicable(state)] == ["simpl", "rewrite IH_n", "f_equal"]
    tactics = [parse_tactic(text) for text in ("f_equal", "intros", "simpl", "reflexivity", "rewrite IH_n")]
    pairs = applicable_among(state, tactics)
    assert [str(t) for t, _ in pairs] == ["f_equal", "simpl", "rewrite IH_n"]
    assert all(children == apply_tactic(state, tactic) for tactic, children in pairs)


def test_theorem_requires_empty_context():
    with pytest.raises(ValueError):
        Theorem("bad", ob("n |- Var(n) = Var(n)"))


@given(st.integers(0, 3), st.integers(0, 3))
def test_ground_sums_replay(a, b):
    goal = Obligation((), (), Plus(_num(a), _num(b)), _num(a + b))
    thm = Theorem("g", goal)
    assert script_is_valid(thm, parse_script("simpl; reflexivity"))


def _num(k):
    t = ZERO
    for _ in range(k):
        t = Succ(t)
    return t


def test_corpus_obligations_round_trip(small_corpus):
    for entry in small_corpus:
        for obligation, _ in subproof_tasks(entry.theorem, entry.proof):
            assert parse_obligation(format_obligation(obligation)) == obligation


_NAMES = ("n", "m", "k")


@st.composite
def random_obligations(draw):
    """Obligations over up to three variables: either binders only, or
    introduced variables with up to two hypotheses; the goal sides are
    sometimes equal or both Succ, so that every template gets its turn."""
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=3))
    leaves = [st.just(ZERO)] + [st.just(Var(name)) for name in names]
    terms = st.recursive(
        st.one_of(leaves),
        lambda inner: st.one_of(st.builds(Succ, inner), st.builds(Plus, inner, inner)),
        max_leaves=8,
    )
    lhs = draw(terms)
    rhs = draw(st.one_of(terms, st.just(lhs)))
    if draw(st.booleans()):
        lhs, rhs = Succ(lhs), Succ(rhs)
    if names and draw(st.booleans()):
        return Obligation(tuple(names), (), lhs, rhs)
    hypotheses = tuple(
        Hypothesis(f"H{i}", draw(terms), draw(terms)) for i in range(draw(st.integers(0, 2)))
    )
    return Obligation((), tuple(ContextVar(name) for name in names) + hypotheses, lhs, rhs)


@pytest.fixture(scope="module")
def expansion_frontier(replay_obligations):
    """The replay obligations and every child an applicable tactic gives
    them, dead ends included."""
    out = list(replay_obligations)
    for obligation in replay_obligations:
        for _, children in reference_primitives.enumerate_applicable(obligation):
            out.extend(children)
    return tuple(out)


# Equal pairs mean the same tactics in the same order, each with the same
# children, compared structurally.
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_enumerate_applicable_matches_the_reference_on_corpus_obligations(expansion_frontier, data):
    obligation = data.draw(st.sampled_from(expansion_frontier))
    assert enumerate_applicable(obligation) == reference_primitives.enumerate_applicable(obligation)


@settings(max_examples=200, deadline=None)
@given(random_obligations())
def test_enumerate_applicable_matches_the_reference_on_random_obligations(obligation):
    assert enumerate_applicable(obligation) == reference_primitives.enumerate_applicable(obligation)


def test_argument_free_tactics_are_shared_across_obligations():
    first = enumerate_applicable(ob("|- Plus(Zero,Zero) = Zero"))
    second = enumerate_applicable(ob("|- Plus(Zero,Succ(Zero)) = Succ(Zero)"))
    assert [str(t) for t, _ in first] == [str(t) for t, _ in second] == ["simpl"]
    assert first[0][0] is second[0][0]
    closed = enumerate_applicable(ob("|- Succ(Zero) = Succ(Zero)"))
    assert [str(t) for t, _ in closed] == ["f_equal", "reflexivity"]
    assert closed[1][0] is enumerate_applicable(ob("|- Zero = Zero"))[0][0]


def test_argument_tactics_are_shared_across_obligations_and_predictions():
    import numpy as np

    from valueprover.predictor import FEATURE_NAMES, Predictor, predict_top_n

    assert env.argument_tactic.cache_info().maxsize == CACHE_SIZE
    assert env.argument_tactic("rewrite", "IH") is env.argument_tactic("rewrite", "IH")
    assert env.argument_tactic("induction", "n") == Tactic("induction", "n")
    with pytest.raises(ValueError):
        env.argument_tactic("induction", "Zero")
    first = ob("n |- Plus(Var(n),Zero) = Var(n)")
    second = ob("n, IH : Var(n) = Zero |- Succ(Var(n)) = Succ(Zero)")
    tactics = {str(t): t for ob_ in (first, second) for t, _ in enumerate_applicable(ob_)}
    assert tactics["rewrite IH"] is env.argument_tactic("rewrite", "IH")
    # a uniform predictor ranks every template, so each resolvable one is predicted
    uniform = Predictor(np.zeros((len(env.TEMPLATES), len(FEATURE_NAMES))), np.zeros(len(env.TEMPLATES)))
    predicted = {str(p.tactic): p.tactic for ob_ in (first, second) for p in predict_top_n(uniform, ob_, 6)}
    assert tactics["induction n"] is predicted["induction n"] is env.argument_tactic("induction", "n")
    assert predicted["rewrite IH"] is env.argument_tactic("rewrite", "IH")


_GOAL_ONLY = frozenset({"simpl", "rewrite", "f_equal"})


def _fresh(obligation):
    """An equal obligation whose canonical text is not yet known."""
    return Obligation(obligation.binders, obligation.context, obligation.goal_lhs, obligation.goal_rhs)


def _assert_children_texts_are_exact(obligation):
    # A child that only changes its parent's goal takes its text from the
    # parent's when that is known, and every other child formats its own on
    # first use; either way the text is that of an equal obligation built
    # afresh. Both orders: the parent's text known before the tactic, or not.
    tactics = [tactic for tactic, _ in enumerate_applicable(obligation)]
    for parent_known in (False, True):
        parent = _fresh(obligation)
        if parent_known:
            parent.canonical()
        for tactic in tactics:
            for child in env._apply(parent, tactic):
                preset = child._canonical is not None
                assert preset == (parent_known and tactic.template in _GOAL_ONLY), (tactic, parent_known)
                assert child.canonical() == format_obligation(_fresh(child))
        assert (parent._canonical is not None) == parent_known


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_child_texts_are_exact_on_corpus_obligations(expansion_frontier, data):
    _assert_children_texts_are_exact(data.draw(st.sampled_from(expansion_frontier)))


@settings(max_examples=200, deadline=None)
@given(random_obligations())
def test_child_texts_are_exact_on_random_obligations(obligation):
    _assert_children_texts_are_exact(obligation)


def test_enumerate_applicable_does_not_touch_the_pair_cache():
    # names no other test uses, so that no cache could already hold them
    obligations = [
        ob("forall qa qb, |- Plus(Var(qa),Var(qb)) = Plus(Var(qb),Var(qa))"),
        ob("qa, IH_qa : Plus(Var(qa),Zero) = Var(qa) |- Succ(Plus(Var(qa),Zero)) = Succ(Var(qa))"),
        ob("qc |- Plus(Succ(Var(qc)),Zero) = Succ(Var(qc))"),
    ]
    closed_memo = env._expand_closed.cache_info()
    pairs = apply_tactic.cache_info()
    for obligation in obligations:
        assert enumerate_applicable(obligation)
    # obligations that name a variable stay out of the closed memo
    assert env._expand_closed.cache_info() == closed_memo
    assert apply_tactic.cache_info() == pairs
    # the public entry point is still the bounded LRU the benchmark reads
    assert apply_tactic.cache_info().maxsize == CACHE_SIZE


@pytest.mark.parametrize(
    "text, tactic, message",
    [
        ("|- Zero = Zero", "intros", "intros: the obligation has no leading binders"),
        ("forall n, |- Var(n) = Var(n)", "induction n", "induction: binders must be introduced first"),
        ("|- Zero = Zero", "induction n", "induction: n is not an introduced variable"),
        ("n m |- Var(m) = Var(m)", "induction n", "induction: n does not occur in the goal"),
        (
            "n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Succ(Var(n')) = Succ(Var(n'))",
            "induction n'",
            "induction: n' occurs in hypothesis IH_n",
        ),
        ("|- Zero = Succ(Zero)", "simpl", "simpl: the goal is already in normal form"),
        ("n |- Var(n) = Var(n)", "rewrite H", "rewrite: no hypothesis named H"),
        (
            "n, H : Zero = Var(n) |- Var(n) = Var(n)",
            "rewrite H",
            "rewrite: left-hand side of H does not occur in the goal",
        ),
        ("|- Zero = Succ(Zero)", "f_equal", "f_equal: both goal sides must be Succ applications"),
        ("|- Zero = Succ(Zero)", "reflexivity", "reflexivity: goal sides are not syntactically equal"),
    ],
)
def test_apply_tactic_and_the_uncached_rules_raise_the_same_messages(text, tactic, message):
    for apply in (apply_tactic, env._apply):
        with pytest.raises(TacticError) as raised:
            apply(ob(text), parse_tactic(tactic))
        assert str(raised.value) == message


def test_predicted_actions_calls_through_the_module_level_apply_tactic(monkeypatch, cold_predictor):
    # the benchmark's tracer wraps env.apply_tactic; every prediction the
    # search tries must still reach it
    from valueprover.predictor import predict_top_n
    from valueprover.predictor import predicted_actions

    calls = []
    cached = env.apply_tactic

    def recording(obligation, tactic):
        calls.append((obligation, tactic))
        return cached(obligation, tactic)

    monkeypatch.setattr(env, "apply_tactic", recording)
    predictor = cold_predictor()
    state = ob("qd, IH_qd : Plus(Var(qd),Zero) = Var(qd) |- Succ(Plus(Var(qd),Zero)) = Succ(Var(qd))")
    tried, actions = predicted_actions(predictor, state, 6)
    predictions = predict_top_n(predictor, state, 6)
    assert tried == len(calls) == len(predictions) == 6
    assert [tactic for _, tactic in calls] == [prediction.tactic for prediction in predictions]
    assert all(obligation is state for obligation, _ in calls)
    assert [tactic for tactic, _, _ in actions] == [t for t, _ in applicable_among(state, [t for _, t in calls])]
