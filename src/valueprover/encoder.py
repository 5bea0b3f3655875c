"""Obligation encoder for the value model: a deterministic feature-hashing
encoder over token unigrams and bigrams of the canonical text, giving
fixed-dimension real vectors.

Each gram's bucket and sign come from a blake2b digest of the salted gram.
Grams repeat across obligations, so each (salt, dim) keeps one gram table
from gram to (bucket, sign): a unigram is keyed by its token and a bigram by
its token pair, so a bigram's text and digest are built only the first time
it is seen. Vectors are memoized per canonical text.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from itertools import chain

import numpy as np

from .env import CACHE_SIZE, Obligation, cache_put

__all__ = ["MIN_ENCODING_DIM", "tokenize_obligation", "encode_hashed"]

# The smallest encoding dimension encode_hashed accepts.
MIN_ENCODING_DIM = 8

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\|-|[(),=:]")


def tokenize_obligation(text: str) -> list[str]:
    """Split canonical text into constructor names, identifiers and symbols."""
    return _TOKEN_RE.findall(text)


def _bucket(gram: str, salt: int, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(f"{salt}:{gram}".encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    sign = 1.0 if value & 1 == 0 else -1.0
    return (value >> 1) % dim, sign


class _GramTable(dict):
    """gram -> (bucket, sign) for one (salt, dim), filled on first sight and
    holding at most CACHE_SIZE grams."""

    def __init__(self, salt: int, dim: int):
        super().__init__()
        self.salt = salt
        self.dim = dim

    def __missing__(self, gram: str | tuple[str, str]) -> tuple[int, float]:
        text = gram if type(gram) is str else f"{gram[0]}\x1f{gram[1]}"
        entry = _bucket(text, self.salt, self.dim)
        cache_put(self, gram, entry)
        return entry


@lru_cache(maxsize=CACHE_SIZE)
def _gram_table(salt: int, dim: int) -> _GramTable:
    return _GramTable(salt, dim)


@lru_cache(maxsize=CACHE_SIZE)
def _hashed_vector(canonical: str, dim: int, salt: int) -> tuple[float, ...]:
    tokens = tokenize_obligation(canonical)
    grams = chain(tokens, zip(tokens, tokens[1:]))
    # sums of +-1.0 and the final division are exact IEEE operations, so
    # Python floats give the same bits as adding into a numpy array gram by
    # gram and dividing it by its max-norm
    sums = [0.0] * dim
    for index, sign in map(_gram_table(salt, dim).__getitem__, grams):
        sums[index] += sign
    peak = max(map(abs, sums))
    if peak > 0:
        return tuple(map(peak.__rtruediv__, sums))
    return tuple(sums)


def encode_hashed(ob: Obligation, dim: int = 64, salt: int = 0) -> np.ndarray:
    """Signed token-hashing encoding, scaled to unit max-norm."""
    if dim < MIN_ENCODING_DIM:
        raise ValueError(f"encoding dimension must be at least {MIN_ENCODING_DIM}")
    return np.array(_hashed_vector(ob.canonical(), dim, salt))

