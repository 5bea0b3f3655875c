"""Obligation encoders for the value model.

The default is a deterministic feature-hashing encoder over token unigrams
and bigrams of the canonical text. A trainable recurrent autoencoder
(sequence -> latent -> sequence, trained on reconstruction) is available as
the learned alternative; both produce fixed-dimension real vectors.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .env import CACHE_SIZE, Obligation

__all__ = [
    "Encoding",
    "tokenize_obligation",
    "encode_hashed",
    "hashed_encoder",
    "Autoencoder",
    "train_autoencoder",
    "encode_auto",
    "reconstruct",
    "autoencoder_to_dict",
    "autoencoder_from_dict",
]

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\|-|[(),=:]")

BOS, EOS, UNK = "<bos>", "<eos>", "<unk>"


@dataclass(frozen=True)
class Encoding:
    vector: np.ndarray
    mode: str


def tokenize_obligation(text: str) -> list[str]:
    """Split canonical text into constructor names, identifiers and symbols."""
    return _TOKEN_RE.findall(text)


def _bucket(gram: str, salt: int, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(f"{salt}:{gram}".encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    sign = 1.0 if value & 1 == 0 else -1.0
    return (value >> 1) % dim, sign


@lru_cache(maxsize=CACHE_SIZE)
def _hashed_vector(canonical: str, dim: int, salt: int) -> tuple[float, ...]:
    tokens = tokenize_obligation(canonical)
    grams = tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(dim)
    for gram in grams:
        index, sign = _bucket(gram, salt, dim)
        vec[index] += sign
    peak = np.abs(vec).max()
    if peak > 0:
        vec /= peak
    return tuple(vec.tolist())


def encode_hashed(ob: Obligation, dim: int = 64, salt: int = 0) -> Encoding:
    """Signed token-hashing encoding, scaled to unit max-norm."""
    if dim < 8:
        raise ValueError("encoding dimension must be at least 8")
    return Encoding(np.array(_hashed_vector(ob.canonical(), dim, salt)), "hashed")


def hashed_encoder(dim: int = 64, salt: int = 0):
    """An Obligation -> vector callable with the dimension and salt baked in."""

    def encode(ob: Obligation) -> np.ndarray:
        return encode_hashed(ob, dim, salt).vector

    return encode


# ---------------------------------------------------------------------------
# Recurrent autoencoder: a GRU encoder compresses the token sequence into its
# final hidden state; a symmetric GRU decoder reconstructs the sequence from
# that latent with teacher forcing. Gradients are hand-derived (backprop
# through time) and the optimizer is Adam. Gated cells are needed here:
# canonical obligation texts run past a hundred tokens and a plain tanh RNN
# stops improving well short of full reconstruction.
# ---------------------------------------------------------------------------


@dataclass
class Autoencoder:
    vocab: list[str]
    params: dict[str, np.ndarray]
    latent_dim: int
    embed_dim: int
    accuracy_history: list[float]

    def token_id(self, token: str) -> int:
        try:
            return self.vocab.index(token)
        except ValueError:
            return self.vocab.index(UNK)

    def ids_for(self, ob: Obligation) -> list[int]:
        return [self.token_id(t) for t in tokenize_obligation(ob.canonical())]


def _init_params(vocab_size: int, latent_dim: int, embed_dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    def mat(rows, cols, scale):
        return rng.normal(0.0, scale, size=(rows, cols))

    params = {"emb": mat(vocab_size, embed_dim, 0.1)}
    for side in ("enc", "dec"):
        for gate in ("z", "r", "c"):
            params[f"{side}_w{gate}"] = mat(latent_dim, embed_dim, 0.15)
            params[f"{side}_u{gate}"] = mat(latent_dim, latent_dim, 0.15)
            params[f"{side}_b{gate}"] = np.zeros(latent_dim)
    params["out_w"] = mat(vocab_size, latent_dim, 0.1)
    params["out_b"] = np.zeros(vocab_size)
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _gru_step(params: dict[str, np.ndarray], side: str, x: np.ndarray, h: np.ndarray):
    """One GRU cell step; returns the new state and the backprop cache."""
    z = _sigmoid(params[f"{side}_wz"] @ x + params[f"{side}_uz"] @ h + params[f"{side}_bz"])
    r = _sigmoid(params[f"{side}_wr"] @ x + params[f"{side}_ur"] @ h + params[f"{side}_br"])
    c = np.tanh(params[f"{side}_wc"] @ x + params[f"{side}_uc"] @ (r * h) + params[f"{side}_bc"])
    new_h = (1.0 - z) * h + z * c
    return new_h, (x, h, z, r, c)


def _gru_backward(params, grads, side: str, cache, d_new_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate cell gradients; returns (d_prev_state, d_input)."""
    x, h, z, r, c = cache
    dz = d_new_h * (c - h) * z * (1.0 - z)
    dc = d_new_h * z * (1.0 - c * c)
    dh = d_new_h * (1.0 - z)
    grads[f"{side}_wz"] += np.outer(dz, x)
    grads[f"{side}_uz"] += np.outer(dz, h)
    grads[f"{side}_bz"] += dz
    grads[f"{side}_wc"] += np.outer(dc, x)
    grads[f"{side}_uc"] += np.outer(dc, r * h)
    grads[f"{side}_bc"] += dc
    d_rh = params[f"{side}_uc"].T @ dc
    dr = d_rh * h * r * (1.0 - r)
    grads[f"{side}_wr"] += np.outer(dr, x)
    grads[f"{side}_ur"] += np.outer(dr, h)
    grads[f"{side}_br"] += dr
    dh += params[f"{side}_uz"].T @ dz + params[f"{side}_ur"].T @ dr + d_rh * r
    dx = params[f"{side}_wz"].T @ dz + params[f"{side}_wr"].T @ dr + params[f"{side}_wc"].T @ dc
    return dh, dx


def _encode_ids(params: dict[str, np.ndarray], ids: list[int]) -> tuple[np.ndarray, list]:
    # the sequence is read in reverse so the latent is freshest where the
    # decoder starts; reconstruction quality improves markedly on long texts
    h = np.zeros(len(params["enc_bz"]))
    caches = []
    for token in reversed(ids):
        h, cache = _gru_step(params, "enc", params["emb"][token], h)
        caches.append(cache)
    return h, caches


def _sequence_loss(params: dict[str, np.ndarray], ids: list[int], bos: int, eos: int):
    """Forward pass; returns (loss, correct tokens, caches for backprop)."""
    latent, enc_caches = _encode_ids(params, ids)
    inputs = [bos] + ids
    targets = ids + [eos]
    g = latent
    dec_caches = []
    dec_states = []
    probs_list = []
    correct = 0
    loss = 0.0
    for token_in, token_out in zip(inputs, targets):
        g, cache = _gru_step(params, "dec", params["emb"][token_in], g)
        dec_caches.append(cache)
        dec_states.append(g)
        scores = params["out_w"] @ g + params["out_b"]
        scores -= scores.max()
        probs = np.exp(scores)
        probs /= probs.sum()
        probs_list.append(probs)
        loss -= np.log(probs[token_out] + 1e-300)
        if int(np.argmax(probs)) == token_out:
            correct += 1
    return loss / len(targets), correct, (enc_caches, dec_caches, dec_states, probs_list, inputs, targets)


def _sequence_grads(params, ids, caches) -> dict[str, np.ndarray]:
    enc_caches, dec_caches, dec_states, probs_list, inputs, targets = caches
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    n = len(targets)
    dg_next = np.zeros(len(params["dec_bz"]))
    for s in range(n - 1, -1, -1):
        delta = probs_list[s].copy()
        delta[targets[s]] -= 1.0
        delta /= n
        grads["out_w"] += np.outer(delta, dec_states[s])
        grads["out_b"] += delta
        dg = params["out_w"].T @ delta + dg_next
        dg_next, dx = _gru_backward(params, grads, "dec", dec_caches[s], dg)
        grads["emb"][inputs[s]] += dx
    dh_next = dg_next  # decoder's initial state is the latent
    enc_ids = ids[::-1]
    for t in range(len(enc_ids) - 1, -1, -1):
        dh_next, dx = _gru_backward(params, grads, "enc", enc_caches[t], dh_next)
        grads["emb"][enc_ids[t]] += dx
    return grads


def train_autoencoder(
    obligations: list[Obligation],
    latent_dim: int = 64,
    epochs: int = 30,
    seed: int = 0,
    learning_rate: float = 5e-3,
    embed_dim: int = 32,
) -> Autoencoder:
    """Minimize token reconstruction loss; deterministic per seed.

    Reconstruction token accuracy (teacher-forced) is recorded per epoch.
    """
    if not obligations:
        raise ValueError("empty obligation set")
    tokens = sorted({t for ob in obligations for t in tokenize_obligation(ob.canonical())})
    vocab = [BOS, EOS, UNK] + tokens
    rng = np.random.default_rng(seed)
    params = _init_params(len(vocab), latent_dim, embed_dim, rng)
    model = Autoencoder(vocab, params, latent_dim, embed_dim, accuracy_history=[])
    sequences = [model.ids_for(ob) for ob in obligations]
    bos, eos = 0, 1

    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    adam_t = 0
    order = np.arange(len(sequences))
    for _ in range(epochs):
        rng.shuffle(order)
        total_correct = 0
        total_tokens = 0
        for idx in order:
            ids = sequences[idx]
            _, correct, caches = _sequence_loss(params, ids, bos, eos)
            grads = _sequence_grads(params, ids, caches)
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > 5.0:
                for g in grads.values():
                    g *= 5.0 / norm
            adam_t += 1
            for key in params:
                adam_m[key] = 0.9 * adam_m[key] + 0.1 * grads[key]
                adam_v[key] = 0.999 * adam_v[key] + 0.001 * grads[key] ** 2
                m_hat = adam_m[key] / (1.0 - 0.9**adam_t)
                v_hat = adam_v[key] / (1.0 - 0.999**adam_t)
                params[key] -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            total_correct += correct
            total_tokens += len(ids) + 1
        model.accuracy_history.append(total_correct / total_tokens)
    return model


def encode_auto(ae: Autoencoder, ob: Obligation) -> Encoding:
    """Latent vector for an obligation; unknown tokens map to <unk>."""
    latent, _ = _encode_ids(ae.params, ae.ids_for(ob))
    return Encoding(latent, "autoencoded")


def reconstruct(ae: Autoencoder, ob: Obligation, max_len: int = 512) -> list[str]:
    """Greedy decode of the obligation's latent back to a token sequence."""
    params = ae.params
    latent, _ = _encode_ids(params, ae.ids_for(ob))
    g = latent
    token = 0  # <bos>
    out: list[str] = []
    for _ in range(max_len):
        g, _ = _gru_step(params, "dec", params["emb"][token], g)
        scores = params["out_w"] @ g + params["out_b"]
        token = int(np.argmax(scores))
        if token == 1:  # <eos>
            break
        out.append(ae.vocab[token])
    return out


def autoencoder_to_dict(ae: Autoencoder) -> dict:
    return {
        "vocab": ae.vocab,
        "latent_dim": ae.latent_dim,
        "embed_dim": ae.embed_dim,
        "params": {k: v.tolist() for k, v in ae.params.items()},
    }


def autoencoder_from_dict(data: dict) -> Autoencoder:
    params = {k: np.array(v, dtype=float) for k, v in data["params"].items()}
    return Autoencoder(list(data["vocab"]), params, data["latent_dim"], data["embed_dim"], accuracy_history=[])
