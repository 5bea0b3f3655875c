import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from valueprover import encoder, env
from valueprover.encoder import encode_hashed, tokenize_obligation
from valueprover.env import CACHE_SIZE, parse_obligation


def test_tokenizer_splits_constructors_and_symbols():
    tokens = tokenize_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    assert tokens[:2] == ["forall", "n"]
    assert "|-" in tokens and "(" in tokens and "=" in tokens


def test_hashed_determinism_and_dimension():
    ob = parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)")
    first = encode_hashed(ob, 64)
    second = encode_hashed(ob, 64)
    assert np.array_equal(first, second)
    assert first.shape == (64,)
    assert np.abs(first).max() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        encode_hashed(ob, 4)


def test_hashed_separates_distinct_obligations():
    a = encode_hashed(parse_obligation("|- Zero = Zero"), 64)
    b = encode_hashed(parse_obligation("forall n, |- Plus(Var(n),Zero) = Var(n)"), 64)
    assert not np.array_equal(a, b)


def test_each_encoding_is_one_shared_read_only_array():
    from valueprover.value_model import ValueModel

    text = "forall n, |- Plus(Var(n),Zero) = Var(n)"
    vec = encode_hashed(parse_obligation(text), 64)
    assert vec.dtype == np.float64 and vec.nbytes == 512
    assert vec.base is None  # owns its 512 bytes, keeps no larger buffer alive
    assert not vec.flags.writeable
    # another obligation with the same canonical text shares the array
    assert encode_hashed(parse_obligation(text), 64) is vec
    assert ValueModel(64, seed=0).encode(parse_obligation(text)) is vec
    with pytest.raises(ValueError):
        vec[0] = 0.5
    with pytest.raises(ValueError):
        vec /= 2.0


def _reference_encoding(canonical, dim):
    """The encoder's original loop: one blake2b digest per gram, prefixed by
    the "0:" of the salt the encoder once took, added into the array gram by
    gram."""
    tokens = tokenize_obligation(canonical)
    grams = tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(dim)
    for gram in grams:
        digest = hashlib.blake2b(f"0:{gram}".encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        vec[(value >> 1) % dim] += 1.0 if value & 1 == 0 else -1.0
    peak = np.abs(vec).max()
    if peak > 0:
        vec /= peak
    return vec


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from((8, 13, 64, 128)),
    renamed=st.booleans(),
    cleared=st.booleans(),
)
def test_hashed_encoding_is_bit_identical_to_the_reference(
    replay_obligations, renamed_obligations, data, dim, renamed, cleared
):
    # renamed binders and a cleared gram table make the table miss
    ob = data.draw(renamed_obligations if renamed else st.sampled_from(replay_obligations))
    if cleared:
        encoder._gram_table.cache_clear()
        encoder._hashed_vector.cache_clear()
    encoded = encode_hashed(ob, dim)
    assert encoded.tobytes() == _reference_encoding(ob.canonical(), dim).tobytes()
    assert encode_hashed(ob, dim).tobytes() == encoded.tobytes()


def test_gram_buckets_are_memoized_and_bounded(monkeypatch, replay_obligations):
    assert encoder._hashed_vector.cache_info().maxsize == CACHE_SIZE
    assert encoder._gram_table.cache_info().maxsize == CACHE_SIZE
    digested = []
    bucket = encoder._bucket
    monkeypatch.setattr(encoder, "_bucket", lambda gram, dim: digested.append(gram) or bucket(gram, dim))
    encoder._gram_table.cache_clear()
    encoder._hashed_vector.cache_clear()
    for ob in replay_obligations[:40]:
        encode_hashed(ob, 64)
    assert len(digested) == len(set(digested)) == len(encoder._gram_table(64))
    encoder._hashed_vector.cache_clear()
    for ob in replay_obligations[:40]:
        encode_hashed(ob, 64)
    assert len(digested) == len(encoder._gram_table(64))  # every gram read from the table

    monkeypatch.setattr(env, "CACHE_SIZE", 16)  # the bound cache_put reads
    encoder._gram_table.cache_clear()
    encoder._hashed_vector.cache_clear()
    table = encoder._gram_table(64)
    for ob in replay_obligations[:40]:
        assert encode_hashed(ob, 64).tobytes() == _reference_encoding(ob.canonical(), 64).tobytes()
        assert len(table) <= 16
    assert len(table) == 16
    encoder._gram_table.cache_clear()
    encoder._hashed_vector.cache_clear()
