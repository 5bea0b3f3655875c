"""Obligation encoder for the value model: a deterministic feature-hashing
encoder over token unigrams and bigrams of the canonical text, giving
fixed-dimension real vectors.

Each gram's bucket and sign come from a blake2b digest of the salted gram.
Grams repeat across obligations, so the digests are memoized per (gram,
salt, dim); vectors are memoized per canonical text.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache

import numpy as np

from .env import CACHE_SIZE, Obligation

__all__ = ["tokenize_obligation", "encode_hashed", "hashed_encoder"]

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\|-|[(),=:]")


def tokenize_obligation(text: str) -> list[str]:
    """Split canonical text into constructor names, identifiers and symbols."""
    return _TOKEN_RE.findall(text)


@lru_cache(maxsize=CACHE_SIZE)
def _bucket(gram: str, salt: int, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(f"{salt}:{gram}".encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    sign = 1.0 if value & 1 == 0 else -1.0
    return (value >> 1) % dim, sign


@lru_cache(maxsize=CACHE_SIZE)
def _hashed_vector(canonical: str, dim: int, salt: int) -> tuple[float, ...]:
    tokens = tokenize_obligation(canonical)
    grams = tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    # sums of +-1.0 are exact, so summing in a list gives the same bits as
    # adding into the array gram by gram
    sums = [0.0] * dim
    for gram in grams:
        index, sign = _bucket(gram, salt, dim)
        sums[index] += sign
    vec = np.array(sums)
    peak = np.abs(vec).max()
    if peak > 0:
        vec /= peak
    return tuple(vec.tolist())


def encode_hashed(ob: Obligation, dim: int = 64, salt: int = 0) -> np.ndarray:
    """Signed token-hashing encoding, scaled to unit max-norm."""
    if dim < 8:
        raise ValueError("encoding dimension must be at least 8")
    return np.array(_hashed_vector(ob.canonical(), dim, salt))


def hashed_encoder(dim: int = 64, salt: int = 0):
    """An Obligation -> vector callable with the dimension and salt baked in."""

    def encode(ob: Obligation) -> np.ndarray:
        return encode_hashed(ob, dim, salt)

    return encode
