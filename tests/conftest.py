from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from valueprover.cli import _training_pairs
from valueprover.corpus import generate_corpus, split_corpus
from valueprover.env import (
    ContextVar,
    Hyperstate,
    Hypothesis,
    Obligation,
    Theorem,
    parse_obligation,
    parse_script,
    step_hyperstate,
)
from valueprover.oracle import shortest_proof
from valueprover.predictor import Predictor, train_predictor
from valueprover.terms import Plus, Succ, Var, is_identifier


def value_stand_in(value_of, gamma):
    """All that search reads of a ValueModel: v_value and gamma."""
    return SimpleNamespace(v_value=value_of, gamma=gamma)


def oracle_model(gamma=0.9, depth=12, actions=None):
    """A ValueModel stand-in that values an obligation at gamma to the
    length of its shortest proof, and at 0 if it has none within depth."""
    return value_stand_in(lambda ob: shortest_proof(Hyperstate((ob,)), depth, actions).value(gamma), gamma)


@pytest.fixture(scope="session")
def small_corpus():
    entries, _ = generate_corpus(23, (10, 8, 10))
    return entries


@pytest.fixture(scope="session")
def small_split(small_corpus):
    return split_corpus(small_corpus, 0, 0.25)


@pytest.fixture(scope="session")
def trained_predictor(small_split):
    return train_predictor(_training_pairs(small_split.train), epochs=250, learning_rate=0.5, seed=0)


@pytest.fixture(scope="session")
def cold_predictor(trained_predictor):
    """Makes copies of trained_predictor with empty action caches. The
    session predictor's shared cache keeps what earlier tests put in it, so
    a test that counts predictions or cache entries uses a copy."""

    def make():
        return Predictor(trained_predictor.weights.copy(), trained_predictor.bias.copy())

    return make


@pytest.fixture(scope="session")
def replay_obligations(small_corpus):
    """Every obligation open at some step of a small_corpus proof replay."""
    out = []
    for entry in small_corpus:
        state = Hyperstate((entry.theorem.statement,))
        for tactic in entry.proof.steps:
            out.extend(state.obligations)
            state = step_hyperstate(state, tactic)
    return tuple(out)


def _renamed_term(t, mapping):
    if isinstance(t, Var):
        return Var(mapping[t.name])
    if isinstance(t, Succ):
        return Succ(_renamed_term(t.child, mapping))
    if isinstance(t, Plus):
        return Plus(_renamed_term(t.left, mapping), _renamed_term(t.right, mapping))
    return t


def _renamed_obligation(ob, mapping):
    """ob with every name in it (binders, context entries and variables)
    replaced through mapping."""
    context = tuple(
        ContextVar(mapping[e.name])
        if isinstance(e, ContextVar)
        else Hypothesis(mapping[e.name], _renamed_term(e.lhs, mapping), _renamed_term(e.rhs, mapping))
        for e in ob.context
    )
    return Obligation(
        tuple(mapping[b] for b in ob.binders),
        context,
        _renamed_term(ob.goal_lhs, mapping),
        _renamed_term(ob.goal_rhs, mapping),
    )


IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_']{0,3}", fullmatch=True).filter(is_identifier)


@pytest.fixture(scope="session")
def renamed_obligations(replay_obligations):
    """A hypothesis strategy: a replay obligation with every name in it
    renamed to fresh identifiers, so that its canonical text is new to the
    caches keyed by it."""

    @st.composite
    def renamed(draw):
        ob = draw(st.sampled_from(replay_obligations))
        names = sorted(ob.names_in_use())
        fresh = draw(st.lists(IDENTIFIERS, min_size=len(names), max_size=len(names), unique=True))
        return _renamed_obligation(ob, dict(zip(names, fresh)))

    return renamed()


@pytest.fixture
def worked_theorem():
    """forall n, Plus(n, Zero) = n with its 7-step inductive proof."""
    thm = Theorem("add_zero_right", parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)"))
    script = parse_script(
        "intros; induction n; simpl; reflexivity; simpl; rewrite IH_n; reflexivity"
    )
    return thm, script
