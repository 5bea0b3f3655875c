import pytest
from hypothesis import given, settings, strategies as st

from valueprover.env import (
    ContextVar,
    Hyperstate,
    Obligation,
    ProofScript,
    ReplayError,
    Tactic,
    TacticError,
    Theorem,
    apply_tactic,
    enumerate_applicable,
    extract_subproof_tasks,
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


def test_hyperstate_equality_is_multiset():
    a = ob("|- Zero = Zero")
    b = ob("|- Succ(Zero) = Succ(Zero)")
    assert Hyperstate((a, b)) == Hyperstate((b, a))
    assert Hyperstate((a,)) != Hyperstate((a, a))


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
    tasks = extract_subproof_tasks(thm, script)
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
        tasks = extract_subproof_tasks(entry.theorem, entry.proof)
        lengths = {}
        for obligation, script in tasks:
            lengths.setdefault(obligation.canonical(), len(script.steps))
        root = tasks[0]
        children = apply_tactic(root[0], root[1].steps[0])
        child_total = sum(lengths[c.canonical()] for c in children)
        assert len(root[1].steps) == 1 + child_total


def test_extract_rejects_invalid_script(worked_theorem):
    thm, script = worked_theorem
    with pytest.raises(ReplayError):
        extract_subproof_tasks(thm, ProofScript(script.steps[:-1]))


def test_single_reflexivity_task():
    thm = Theorem("t", ob("|- Zero = Zero"))
    tasks = extract_subproof_tasks(thm, parse_script("reflexivity"))
    assert len(tasks) == 1 and len(tasks[0][1].steps) == 1


def test_enumerate_applicable_orders_and_filters():
    state = ob("n |- Plus(Var(n),Zero) = Var(n)")
    applicable = enumerate_applicable(state)
    assert [str(t) for t, _ in applicable] == ["induction n"]
    closed = ob("|- Zero = Zero")
    assert [str(t) for t, _ in enumerate_applicable(closed)] == ["reflexivity"]


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
        for obligation, _ in extract_subproof_tasks(entry.theorem, entry.proof):
            assert parse_obligation(format_obligation(obligation)) == obligation
