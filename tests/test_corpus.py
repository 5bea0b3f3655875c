import dataclasses
import hashlib
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from valueprover import corpus, oracle
from valueprover.corpus import (
    CorpusEntry,
    CorpusFormatError,
    GenerationSummary,
    generate_corpus,
    load_corpus,
    save_corpus,
    split_corpus,
)
from valueprover.env import Hyperstate, ProofScript, Tactic, Theorem, script_is_valid


def test_generation_is_deterministic():
    a, summary_a = generate_corpus(7, (5, 4, 6))
    b, summary_b = generate_corpus(7, (5, 4, 6))
    assert [(e.theorem.id, str(e.proof)) for e in a] == [(e.theorem.id, str(e.proof)) for e in b]
    assert summary_a == summary_b
    c, _ = generate_corpus(8, (5, 4, 6))
    assert [e.theorem.statement.canonical() for e in a] != [e.theorem.statement.canonical() for e in c]


def test_generated_proofs_validate(small_corpus):
    assert small_corpus
    for entry in small_corpus:
        assert entry.theorem.statement.context == ()
        assert script_is_valid(entry.theorem, entry.proof)
        assert entry.proof_length == len(entry.proof.steps)


def test_empty_counts_give_empty_corpus():
    entries, summary = generate_corpus(0, (0, 0, 0))
    assert entries == [] and summary.generated == (0, 0, 0)


@pytest.mark.parametrize(
    "counts, message",
    [
        ((1, 2), "one per family"),
        ((1, 2, 3, 4), "one per family"),
        ((), "one per family"),
        ((1, 2.0, 3), "one per family"),
        ((1, True, 3), "one per family"),
        ((1, "2", 3), "one per family"),
        ((1, -1, 2), "nonnegative"),
    ],
)
def test_counts_must_be_three_nonnegative_integers(counts, message):
    with pytest.raises(ValueError, match=message):
        generate_corpus(0, counts)


def _generate_one_search_per_draw(seed, counts):
    """generate_corpus as a plain loop that runs the oracle on every drawn
    statement; also returns the statements in draw order."""
    rng = random.Random(seed)
    entries, drawn = [], []
    generated = [0, 0, 0]
    discarded = 0
    for family_index, ((family, make), count) in enumerate(zip(corpus._FAMILIES, counts)):
        for i in range(count):
            statement = make(rng)
            drawn.append(statement)
            theorem = Theorem(f"{family}-{i:03d}", statement)
            result = oracle.shortest_proof(Hyperstate((statement,)), corpus.GENERATION_DEPTH)
            if not result.provable:
                discarded += 1
                continue
            entries.append(CorpusEntry(theorem, result.shortest_script))
            generated[family_index] += 1
    return entries, GenerationSummary(tuple(generated), discarded), drawn


def _generate_counting_searches(seed, counts):
    """generate_corpus, with the start statement of every oracle search it
    runs through corpus.shortest_proof."""
    searched = []

    def counting(start, max_depth):
        searched.append(start.first.canonical())
        return oracle.shortest_proof(start, max_depth)

    with mock.patch.object(corpus, "shortest_proof", counting):
        entries, summary = generate_corpus(seed, counts)
    return entries, summary, searched


def _assert_one_search_per_distinct_statement(seed, counts, families=lambda: corpus._FAMILIES):
    """Compares generate_corpus with the per-draw loop, each run on a fresh
    `families()`."""
    with mock.patch.object(corpus, "_FAMILIES", families()):
        expected_entries, expected_summary, drawn = _generate_one_search_per_draw(seed, counts)
    with mock.patch.object(corpus, "_FAMILIES", families()):
        entries, summary, searched = _generate_counting_searches(seed, counts)
    assert entries == expected_entries and summary == expected_summary
    assert searched == list(dict.fromkeys(statement.canonical() for statement in drawn))
    return drawn, searched


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)))
def test_generation_runs_the_oracle_once_per_distinct_statement(seed, counts):
    _assert_one_search_per_distinct_statement(seed, counts)


def _families_ending_in_repeats():
    """The first two families, then one that draws only statements those
    two have already drawn in the same call."""
    seen = []

    def recording(make):
        def draw(rng):
            statement = make(rng)
            seen.append(statement)
            return statement

        return draw

    (ground, make_ground), (plusconst, make_plusconst) = corpus._FAMILIES[:2]
    return (
        (ground, recording(make_ground)),
        (plusconst, recording(make_plusconst)),
        ("repeat", lambda rng: rng.choice(seen)),
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 6), st.integers(1, 20))
def test_a_family_of_repeats_runs_no_new_search(seed, ground, plusconst, repeats):
    counts = (ground, plusconst, repeats)
    drawn, searched = _assert_one_search_per_distinct_statement(seed, counts, _families_ending_in_repeats)
    first_two = {statement.canonical() for statement in drawn[: ground + plusconst]}
    assert len(searched) == len(first_two)


def test_ground_family_has_two_step_proofs():
    entries, _ = generate_corpus(5, (6, 0, 0))
    assert all(e.proof_length == 2 and str(e.proof) == "simpl; reflexivity" for e in entries)


def test_save_load_round_trip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus, str(path))
    loaded = load_corpus(str(path))
    assert loaded == small_corpus
    save_corpus([], str(path))
    assert load_corpus(str(path)) == []


def test_save_is_byte_stable(tmp_path, small_corpus):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(small_corpus, str(p1))
    save_corpus(small_corpus, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_malformed_line_reports_line_number(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus[:3], str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    broken = [
        ('{"id": "broken"}', None),
        ("[1, 2]", None),
        (json.dumps({**record, "statement": 123}), "statement must be a string"),
        (json.dumps({**record, "proof": 5}), "proof must be a string"),
        (json.dumps({**record, "proof": ["simpl", "reflexivity"]}), "proof must be a string"),
        (json.dumps({**record, "id": 7}), "id must be a string"),
        (json.dumps({**record, "proof_length": True}), "proof_length must be an integer"),
        (json.dumps({**record, "proof_length": float(record["proof_length"])}), "proof_length must be an integer"),
        (json.dumps({**record, "proof_length": str(record["proof_length"])}), "proof_length must be an integer"),
    ]
    named = f"^corpus {re.escape(str(path))}: line 3: "
    for text, message in broken:
        path.write_text("\n".join(lines[:2] + [text]) + "\n")
        with pytest.raises(CorpusFormatError, match=None if message is None else f"{named}{message}$") as err:
            load_corpus(str(path))
        assert err.value.line_number == 3


def test_a_statement_nested_too_deep_names_its_line(tmp_path, small_corpus):
    # the parser recurses once per Succ, so deep nesting raises RecursionError
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus[:2], str(path))
    lines = path.read_text().splitlines()
    deep = "|- " + "Succ(" * 3000 + "Zero" + ")" * 3000 + " = Zero"
    path.write_text("\n".join([lines[0], json.dumps({**json.loads(lines[1]), "statement": deep})]) + "\n")
    named = f"^corpus {re.escape(str(path))}: line 2: "
    with pytest.raises(CorpusFormatError, match=f"{named}maximum recursion depth exceeded") as err:
        load_corpus(str(path))
    assert err.value.line_number == 2


def test_duplicate_theorem_id_is_rejected(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    entries = list(small_corpus[:3])
    entries[2] = dataclasses.replace(entries[2], theorem=dataclasses.replace(entries[2].theorem, id=entries[0].theorem.id))
    save_corpus(entries, str(path))
    named = f"^corpus {re.escape(str(path))}: line 3: "
    with pytest.raises(CorpusFormatError, match=f"{named}duplicate theorem id '{entries[0].theorem.id}'$") as err:
        load_corpus(str(path))
    assert err.value.line_number == 3


# sha256 of the baseline corpus file, `gen-corpus --seed 0 --counts 26,14,10`.
# Every checkpoint trains on these proofs, so the oracle's tie-breaking must
# not move them.
BASELINE_CORPUS_SHA256 = "21f09ff7aef850c13da233233b5ccad11658c1b8a534e84022b73a41709ccf9b"


def test_baseline_corpus_bytes_are_pinned(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(0, (26, 14, 10))[0], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BASELINE_CORPUS_SHA256


_TACTICS = (
    Tactic("intros"),
    Tactic("simpl"),
    Tactic("f_equal"),
    Tactic("reflexivity"),
    Tactic("induction", "n"),
    Tactic("induction", "m"),
    Tactic("rewrite", "IH_n"),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_load_rejects_a_proof_that_does_not_replay(tmp_path_factory, small_corpus, data):
    index = data.draw(st.integers(0, len(small_corpus) - 1))
    steps = small_corpus[index].proof.steps
    if data.draw(st.booleans()):
        # a strict prefix of an oracle-minimal proof never closes the goal
        broken = steps[: data.draw(st.integers(0, len(steps) - 1))]
    else:
        position = data.draw(st.integers(0, len(steps) - 1))
        broken = steps[:position] + (data.draw(st.sampled_from(_TACTICS)),) + steps[position + 1 :]
    entry = dataclasses.replace(small_corpus[index], proof=ProofScript(broken))
    assume(not script_is_valid(entry.theorem, entry.proof))
    entries = list(small_corpus)
    entries[index] = entry
    path = tmp_path_factory.mktemp("corpus") / "broken.jsonl"
    save_corpus(entries, str(path))
    with pytest.raises(CorpusFormatError, match="does not replay") as err:
        load_corpus(str(path))
    assert err.value.line_number == index + 1


def test_split_ratios(small_corpus):
    all_train = split_corpus(small_corpus, 1, 0.0)
    assert len(all_train.train) == len(small_corpus) and not all_train.test
    all_test = split_corpus(small_corpus, 1, 1.0)
    assert len(all_test.test) == len(small_corpus) and not all_test.train
    with pytest.raises(ValueError):
        split_corpus(small_corpus, 1, 1.5)


def test_split_deterministic_and_disjoint(small_corpus):
    ten = small_corpus[:10]
    first = split_corpus(ten, 3, 0.3)
    second = split_corpus(ten, 3, 0.3)
    assert len(first.test) == 3
    assert [e.theorem.id for e in first.test] == [e.theorem.id for e in second.test]
    train_ids = {e.theorem.id for e in first.train}
    test_ids = {e.theorem.id for e in first.test}
    assert not (train_ids & test_ids)
