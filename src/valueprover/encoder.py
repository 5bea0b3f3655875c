"""Obligation encoder for the value model: a deterministic feature-hashing
encoder over token unigrams and bigrams of the canonical text, giving
fixed-dimension real vectors.

Each gram's bucket and sign come from a blake2b digest of the gram. Grams
repeat across obligations, so each dim keeps one gram table from gram to an
int slot, the bucket for a plus sign or the bucket plus dim for a minus
sign: a unigram is keyed by its token and a bigram by its token pair, so a
bigram's text and digest are built only the first time it is seen. Each
canonical text is encoded once per process into one read-only float64
array, which every caller shares.
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


def _bucket(gram: str, dim: int) -> int:
    """The gram's slot: its bucket, plus dim when its sign is minus."""
    # the "0:" prefix keeps the buckets, and so every saved model, as they
    # were when the encoder took a salt, which was always 0
    digest = hashlib.blake2b(f"0:{gram}".encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    bucket = (value >> 1) % dim
    return bucket if value & 1 == 0 else bucket + dim


class _GramTable(dict):
    """gram -> slot for one dim, filled on first sight and holding at most
    CACHE_SIZE grams."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, gram: str | tuple[str, str]) -> int:
        text = gram if type(gram) is str else f"{gram[0]}\x1f{gram[1]}"
        slot = _bucket(text, self.dim)
        cache_put(self, gram, slot)
        return slot


@lru_cache(maxsize=CACHE_SIZE)
def _gram_table(dim: int) -> _GramTable:
    return _GramTable(dim)


@lru_cache(maxsize=CACHE_SIZE)
def _hashed_vector(canonical: str, dim: int) -> np.ndarray:
    tokens = tokenize_obligation(canonical)
    grams = chain(tokens, zip(tokens, tokens[1:]))
    counts = np.bincount(list(map(_gram_table(dim).__getitem__, grams)), minlength=2 * dim)
    # sums of +-1 are integers, and the division is one IEEE operation per
    # entry, so this gives the same bits as adding into the array gram by
    # gram and dividing it by its max-norm
    sums = (counts[:dim] - counts[dim:]).astype(float)
    peak = np.abs(sums).max()
    if peak > 0:
        sums /= peak
    sums.flags.writeable = False
    return sums


def encode_hashed(ob: Obligation, dim: int) -> np.ndarray:
    """Signed token-hashing encoding, scaled to unit max-norm: a read-only
    array shared by every call with the same canonical text and dim."""
    if dim < MIN_ENCODING_DIM:
        raise ValueError(f"encoding dimension must be at least {MIN_ENCODING_DIM}")
    return _hashed_vector(ob.canonical(), dim)
