import pytest

from valueprover.cli import _training_pairs
from valueprover.corpus import generate_corpus, split_corpus
from valueprover.env import Hyperstate, Theorem, parse_obligation, parse_script, step_hyperstate
from valueprover.predictor import Predictor, train_predictor


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


@pytest.fixture
def worked_theorem():
    """forall n, Plus(n, Zero) = n with its 7-step inductive proof."""
    thm = Theorem("add_zero_right", parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)"))
    script = parse_script(
        "intros; induction n; simpl; reflexivity; simpl; rewrite IH_n; reflexivity"
    )
    return thm, script
