"""Theorem corpus: generation, persistence and train/test splitting.

Theorems come from three fixed families of true Peano equations; the
ground-truth proof attached to each entry is the oracle's shortest proof, so
entries double as references for minimality checks. Everything is
deterministic per seed and the file format is line-delimited JSON.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .env import (
    Hyperstate,
    Obligation,
    ProofScript,
    Theorem,
    format_obligation,
    format_script,
    parse_obligation,
    parse_script,
    script_is_valid,
)
from .oracle import OracleResult, shortest_proof
from .terms import Plus, Succ, Term, Var, numeral, succ_tower

__all__ = [
    "CorpusEntry",
    "CorpusSplit",
    "GenerationSummary",
    "generate_corpus",
    "save_corpus",
    "load_corpus",
    "split_corpus",
    "CorpusFormatError",
]

GENERATION_DEPTH = 10
MAX_NUMERAL = 6


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    theorem: Theorem
    proof: ProofScript

    @property
    def proof_length(self) -> int:
        return len(self.proof.steps)


@dataclass(frozen=True, slots=True)
class CorpusSplit:
    train: tuple[CorpusEntry, ...]
    test: tuple[CorpusEntry, ...]


@dataclass
class GenerationSummary:
    generated: tuple[int, int, int]
    discarded: int


class CorpusFormatError(ValueError):
    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"corpus {path}: line {line_number}: {message}")
        self.line_number = line_number


def _ground_equation(rng: random.Random) -> Obligation:
    a = rng.randint(0, MAX_NUMERAL)
    b = rng.randint(0, MAX_NUMERAL)
    return Obligation((), (), Plus(numeral(a), numeral(b)), numeral(a + b))


def _plus_constant(rng: random.Random) -> Obligation:
    # forall n, Plus(n, k) = Succ^k(n)
    k = rng.randint(0, 4)
    n = Var("n")
    return Obligation(("n",), (), Plus(n, numeral(k)), succ_tower(k, n))


def _dressed_schema(rng: random.Random) -> Obligation:
    # The Plus(n, Zero) = n and Plus(n, Succ(m)) = Succ(Plus(n, m)) schemas,
    # with m either a second binder or a numeral, wrapped in j Succs on both
    # sides. For j >= 1 the wrapped variants contain genuine dead ends in
    # their predictor-constrained search spaces.
    n = Var("n")
    shape = rng.choice(("zero", "succ_var", "succ_num"))
    if shape == "zero":
        j = rng.randint(0, 2)
        lhs: Term = Plus(n, numeral(0))
        rhs: Term = n
        binders = ("n",)
    elif shape == "succ_var":
        j = rng.randint(1, 2)
        m = Var("m")
        lhs = Plus(n, Succ(m))
        rhs = Succ(Plus(n, m))
        binders = ("n", "m")
    else:
        j = rng.randint(1, 2)
        k = rng.randint(1, 3)
        lhs = Plus(n, numeral(k))
        rhs = Succ(Plus(n, numeral(k - 1)))
        binders = ("n",)
    return Obligation(binders, (), succ_tower(j, lhs), succ_tower(j, rhs))


_FAMILIES = (
    ("ground", _ground_equation),
    ("plusconst", _plus_constant),
    ("schema", _dressed_schema),
)


def generate_corpus(seed: int, counts: tuple[int, int, int]) -> tuple[list[CorpusEntry], GenerationSummary]:
    """Deterministically generate theorems and attach oracle proofs.

    Entries whose oracle search exceeds the generation depth are discarded
    and reported in the summary. A statement drawn again repeats its first
    draw's oracle result, so the oracle runs once per distinct statement.
    """
    if len(counts) != len(_FAMILIES) or any(isinstance(c, bool) or not isinstance(c, int) for c in counts):
        raise ValueError(f"counts must be {len(_FAMILIES)} integers, one per family, not {counts!r}")
    if any(c < 0 for c in counts):
        raise ValueError("family counts must be nonnegative")
    rng = random.Random(seed)
    entries: list[CorpusEntry] = []
    generated = [0, 0, 0]
    discarded = 0
    results: dict[str, OracleResult] = {}
    for family_index, ((family, make), count) in enumerate(zip(_FAMILIES, counts)):
        for i in range(count):
            statement = make(rng)
            theorem = Theorem(f"{family}-{i:03d}", statement)
            key = statement.canonical()
            result = results.get(key)
            if result is None:
                result = results[key] = shortest_proof(Hyperstate((statement,)), GENERATION_DEPTH)
            if not result.provable:
                discarded += 1
                continue
            entries.append(CorpusEntry(theorem, result.shortest_script))
            generated[family_index] += 1
    return entries, GenerationSummary(tuple(generated), discarded)


def save_corpus(entries: list[CorpusEntry], path: str) -> None:
    lines = []
    for entry in entries:
        record = {
            "id": entry.theorem.id,
            "statement": format_obligation(entry.theorem.statement),
            "proof": format_script(entry.proof),
            "proof_length": entry.proof_length,
        }
        lines.append(json.dumps(record, sort_keys=True))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _check_field_types(record: dict) -> None:
    for name in ("id", "statement", "proof"):
        if not isinstance(record[name], str):
            raise ValueError(f"{name} must be a string")
    # bool is a subclass of int, and true must not pass for a length of 1
    if type(record["proof_length"]) is not int:
        raise ValueError("proof_length must be an integer")


def load_corpus(path: str) -> list[CorpusEntry]:
    """Read a corpus file, validating every entry: a line that does not
    parse, has a field of the wrong type, repeats an earlier theorem id or
    whose proof does not replay to a closed goal raises CorpusFormatError,
    which names the file and the line."""
    entries = []
    ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                _check_field_types(record)
                theorem = Theorem(record["id"], parse_obligation(record["statement"]))
                proof = parse_script(record["proof"])
                if record["proof_length"] != len(proof.steps):
                    raise ValueError("proof_length does not match the proof")
                if not script_is_valid(theorem, proof):
                    raise ValueError("the proof does not replay to a closed goal")
            except (KeyError, ValueError, TypeError, RecursionError) as err:
                raise CorpusFormatError(path, line_number, str(err)) from err
            if theorem.id in ids:
                raise CorpusFormatError(path, line_number, f"duplicate theorem id {theorem.id!r}")
            ids.add(theorem.id)
            entries.append(CorpusEntry(theorem, proof))
    return entries


def split_corpus(entries: list[CorpusEntry], seed: int, test_ratio: float) -> CorpusSplit:
    """Deterministic shuffle-then-cut split, disjoint by theorem id."""
    if not 0.0 <= test_ratio <= 1.0:
        raise ValueError("test_ratio must lie in [0, 1]")
    order = list(entries)
    random.Random(seed).shuffle(order)
    n_test = round(len(order) * test_ratio)
    return CorpusSplit(tuple(order[n_test:]), tuple(order[:n_test]))
