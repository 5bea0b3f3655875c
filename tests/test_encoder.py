import numpy as np
import pytest

from valueprover.encoder import encode_hashed, tokenize_obligation
from valueprover.env import parse_obligation


def test_tokenizer_splits_constructors_and_symbols():
    tokens = tokenize_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    assert tokens[:2] == ["forall", "n"]
    assert "|-" in tokens and "(" in tokens and "=" in tokens


def test_hashed_determinism_and_dimension():
    ob = parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    first = encode_hashed(ob, 64, 0)
    second = encode_hashed(ob, 64, 0)
    assert np.array_equal(first, second)
    assert first.shape == (64,)
    assert np.abs(first).max() == pytest.approx(1.0)


def test_hashed_separates_distinct_obligations():
    a = encode_hashed(parse_obligation("|- Zero = Zero"), 64, 0)
    b = encode_hashed(parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)"), 64, 0)
    assert not np.array_equal(a, b)


def test_hashed_salt_changes_vectors():
    ob = parse_obligation("|- Plus(Zero,Zero) = Zero")
    assert not np.array_equal(encode_hashed(ob, 64, 0), encode_hashed(ob, 64, 1))
    with pytest.raises(ValueError):
        encode_hashed(ob, 4, 0)
