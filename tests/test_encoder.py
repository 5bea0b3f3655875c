import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from valueprover.encoder import _bucket, encode_hashed, tokenize_obligation
from valueprover.env import CACHE_SIZE, parse_obligation


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


def _reference_encoding(canonical, dim, salt):
    """The encoder's original loop: one blake2b digest per gram, added into
    the array gram by gram."""
    tokens = tokenize_obligation(canonical)
    grams = tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(dim)
    for gram in grams:
        digest = hashlib.blake2b(f"{salt}:{gram}".encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        vec[(value >> 1) % dim] += 1.0 if value & 1 == 0 else -1.0
    peak = np.abs(vec).max()
    if peak > 0:
        vec /= peak
    return vec


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.sampled_from((8, 13, 64, 128)), salt=st.sampled_from((0, 1, 7)))
def test_hashed_encoding_is_bit_identical_to_the_reference(replay_obligations, data, dim, salt):
    ob = data.draw(st.sampled_from(replay_obligations))
    encoded = encode_hashed(ob, dim, salt)
    assert encoded.tobytes() == _reference_encoding(ob.canonical(), dim, salt).tobytes()


def test_gram_buckets_are_memoized_and_bounded():
    assert _bucket.cache_info().maxsize == CACHE_SIZE
