"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all
on one screen). Training-based criteria fix their seeds and configurations,
and every ingredient is deterministic, so outcomes are stable across runs.
"""

import json
import math
import random

import numpy as np
import pytest

from conftest import value_stand_in
from valueprover.cli import _training_pairs, main, run_eval
from valueprover.corpus import CorpusEntry, CorpusSplit, generate_corpus, split_corpus
from valueprover.env import (
    Hyperstate,
    Theorem,
    extract_subproof_tasks,
    parse_obligation,
    parse_script,
)
from valueprover.oracle import shortest_proof
from valueprover.predictor import (
    FEATURE_NAMES,
    cross_entropy_loss_and_grads,
    predict_top_n,
    reproducible_under_predictor,
    train_predictor,
)
from valueprover.reports import build_summary
from valueprover.search import f_score, run_strategy, search_from
from valueprover.trainer import TrainerConfig, prepare_tasks, train
from valueprover.value_model import (
    ValueModel,
    explore_obligation_graph,
    product_value,
    steps_estimate,
    tabular_value_iteration,
)

GAMMA = 0.9
WIDTH = 5


def _verdict(number, name, ok):
    print(f"ACCEPTANCE {number:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _provider(predictor, n=WIDTH):
    def actions(ob):
        return [p.tactic for p in predict_top_n(predictor, ob, n)]

    return actions


@pytest.fixture(scope="module")
def oracle_suite():
    entries, summary = generate_corpus(23, (18, 16, 18))
    assert len(entries) >= 50 and summary.discarded == 0
    predictor = train_predictor(_training_pairs(entries), epochs=250, learning_rate=0.5, seed=0)
    return entries, predictor


def test_criterion_1_worked_example_exactness():
    combined = product_value([GAMMA, GAMMA**5])
    ok = abs(combined - 0.531441) <= 1e-12 and abs(steps_estimate(combined, GAMMA) - 6.0) <= 1e-12
    _verdict(1, "worked-example exactness", ok)


def test_criterion_2_tabular_fixed_point_matches_oracle(oracle_suite):
    entries, predictor = oracle_suite
    graph = explore_obligation_graph([e.theorem.statement for e in entries], predictor, WIDTH)
    values = tabular_value_iteration(graph, GAMMA)
    actions = _provider(predictor)
    worst = 0.0
    for key, (obligation, _) in graph.items():
        expected = shortest_proof(Hyperstate((obligation,)), 14, actions).value(GAMMA)
        worst = max(worst, abs(values[key] - expected))
    ok = len(entries) >= 20 and worst <= 1e-9
    print(f"  [criterion 2] theorems={len(entries)} graph_nodes={len(graph)} worst_delta={worst:.2e}")
    _verdict(2, "tabular fixed point vs oracle", ok)


def test_criterion_3_astar_optimal_under_oracle_heuristic(oracle_suite):
    entries, predictor = oracle_suite
    actions = _provider(predictor)
    memo = {}

    def oracle_value(obligation):
        key = obligation.canonical()
        if key not in memo:
            memo[key] = shortest_proof(Hyperstate((obligation,)), 14, actions).value(GAMMA)
        return memo[key]

    model = value_stand_in(oracle_value, GAMMA)
    suite = entries[:50]
    exact = provable = 0
    for entry in suite:
        reference = shortest_proof(Hyperstate((entry.theorem.statement,)), 14, actions=actions)
        if not reference.provable:
            continue
        provable += 1
        result = run_strategy("astar", entry.theorem, model, predictor, WIDTH, 512)
        if result.proved and result.proof_length == reference.shortest_length:
            exact += 1
    ok = len(suite) == 50 and provable > 0 and exact == provable
    print(f"  [criterion 3] provable={provable}/{len(suite)} exact={exact}")
    _verdict(3, "A* optimality under oracle heuristic", ok)


def test_criterion_4_f_score_example():
    ok = abs(f_score(3, 2.9) - 5.9) <= 1e-12
    _verdict(4, "A* f-score example", ok)


def test_criterion_5_task_filtering():
    def entry(id_, statement, script):
        return CorpusEntry(Theorem(id_, parse_obligation(statement)), parse_script(script))

    crafted = CorpusSplit(
        (
            entry("short", "|- Plus(Zero,Zero) = Zero", "simpl; reflexivity"),
            entry(
                "long",
                "forall n, |- Plus(Var(n),Zero) = Var(n)",
                "intros; induction n; simpl; reflexivity; simpl; rewrite IH_n; reflexivity",
            ),
            # inducts on the second goal variable; argument resolution always
            # proposes the first, so no width reproduces this demo
            entry(
                "wrongvar",
                "forall n m, |- Plus(Var(n),Var(m)) = Plus(Var(n),Var(m))",
                "intros; induction m; reflexivity; reflexivity",
            ),
        ),
        (),
        seed=0,
    )
    predictor = train_predictor(_training_pairs(crafted.train), epochs=150, learning_rate=0.5, seed=0)
    config = TrainerConfig(seed=0)  # default band: drop <= 2 and >= 6
    retained = prepare_tasks(crafted, predictor, WIDTH, config)

    dropped_short = dropped_long = dropped_repro = 0
    expected_keep = set()
    for corpus_entry in crafted.train:
        for obligation, script in extract_subproof_tasks(corpus_entry.theorem, corpus_entry.proof):
            length = len(script.steps)
            if length <= config.min_drop_length:
                dropped_short += 1
            elif length >= config.max_drop_length:
                dropped_long += 1
            elif not reproducible_under_predictor((obligation, script), predictor, WIDTH):
                dropped_repro += 1
            else:
                expected_keep.add((obligation.canonical(), str(script)))

    retained_keys = {(t.obligation.canonical(), str(t.demo_script)) for t in retained}
    all_reproducible = all(
        reproducible_under_predictor((t.obligation, t.demo_script), predictor, WIDTH) for t in retained
    )
    ok = (
        retained_keys == expected_keep
        and retained_keys
        and all_reproducible
        and dropped_short >= 1
        and dropped_long >= 1
        and dropped_repro >= 1
    )
    print(
        f"  [criterion 5] retained={len(retained_keys)} dropped: "
        f"short={dropped_short} long={dropped_long} irreproducible={dropped_repro}"
    )
    _verdict(5, "task filtering definitional check", ok)


def _trained_run(corpus_counts, corpus_seed, split_seed, config_kwargs):
    entries, _ = generate_corpus(corpus_seed, corpus_counts)
    split = split_corpus(entries, split_seed, 0.3)
    predictor = train_predictor(
        _training_pairs(split.train), epochs=250, learning_rate=0.5, seed=split_seed
    )
    config = TrainerConfig(seed=split_seed, min_drop_length=0, max_drop_length=9, **config_kwargs)
    model, report = train(split, predictor, config)
    return split, predictor, model, report, config


def test_criterion_6_astar_vs_dfs_directional():
    wins = 0
    details = []
    for seed in range(5):
        split, predictor, model, _, config = _trained_run((26, 14, 0), 41, seed, dict(rl_epochs=1))
        rows = run_eval(model, predictor, split.test, ["astar", "dfs"], WIDTH, 512)
        pair = build_summary(rows, ["astar", "dfs"])["matched_pairs"]["astar_vs_dfs"]
        good = (
            pair["both_proved"] > 0
            and pair["mean_length_a"] <= pair["mean_length_b"]
            and pair["mean_nodes_a"] <= pair["mean_nodes_b"]
        )
        wins += good
        details.append(
            f"seed {seed}: matched={pair['both_proved']} "
            f"len {pair['mean_length_a']:.2f}/{pair['mean_length_b']:.2f} "
            f"nodes {pair['mean_nodes_a']:.2f}/{pair['mean_nodes_b']:.2f} {'ok' if good else 'MISS'}"
        )
    for line in details:
        print(f"  [criterion 6] {line}")
    _verdict(6, "trained-value A* <= DFS on matched theorems (>=4/5 seeds)", wins >= 4)


def test_criterion_7_greedy_value_vs_probability():
    wins = 0
    details = []
    for seed in range(5):
        split, predictor, model, _, config = _trained_run((16, 12, 14), 31, seed, dict(rl_epochs=1))
        actions = _provider(predictor)
        held_out = []
        seen = set()
        for entry in split.test:
            for obligation, _ in extract_subproof_tasks(entry.theorem, entry.proof):
                key = obligation.canonical()
                if key in seen:
                    continue
                seen.add(key)
                if shortest_proof(Hyperstate((obligation,)), 12, actions).provable:
                    held_out.append(obligation)
        value_proved = sum(
            search_from("greedy", Hyperstate((ob,)), model, predictor, WIDTH, 64).proved
            for ob in held_out
        )
        prob_proved = sum(
            search_from("greedy_prob", Hyperstate((ob,)), model, predictor, WIDTH, 64).proved
            for ob in held_out
        )
        good = len(held_out) > 0 and value_proved >= prob_proved
        wins += good
        details.append(
            f"seed {seed}: oracle-provable={len(held_out)} value={value_proved} "
            f"probability={prob_proved} {'ok' if good else 'MISS'}"
        )
    for line in details:
        print(f"  [criterion 7] {line}")
    _verdict(7, "greedy value >= greedy probability (>=4/5 seeds)", wins >= 4)


def test_criterion_8_negative_example_convergence(monkeypatch):
    for name, value in dict(
        episodes_per_prefix=3,
        epsilon_end=0.4,
        learning_rate=0.5,
        updates_per_episode=8,
        replay_fraction=0.25,
        true_fraction=0.25,
    ).items():
        monkeypatch.setattr(TrainerConfig, name, value)
    _, _, model, report, _ = _trained_run((10, 8, 22), 11, 0, dict(rl_epochs=5))
    dead_ends = [parse_obligation(text) for text in report.negative_obligations]
    rng = random.Random(0)
    sample = dead_ends if len(dead_ends) <= 40 else rng.sample(dead_ends, 40)
    values = [model.v_value(ob) for ob in sample]
    below = sum(1 for v in values if v < 0.05)
    ok = len(sample) > 0 and below / len(sample) >= 0.95
    print(
        f"  [criterion 8] dead_ends={len(dead_ends)} sampled={len(sample)} "
        f"below_0.05={below} max={max(values) if values else None}"
    )
    _verdict(8, "negative-example convergence", ok)


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(7)
    step = 1e-5

    # predictor: multinomial cross-entropy
    features = rng.normal(size=(12, len(FEATURE_NAMES)))
    labels = rng.integers(0, 6, size=12)
    weights = rng.normal(scale=0.5, size=(6, len(FEATURE_NAMES)))
    bias = rng.normal(scale=0.5, size=6)
    _, grad_w, grad_b = cross_entropy_loss_and_grads(weights, bias, features, labels)
    flat_analytic = np.concatenate([grad_w.ravel(), grad_b])
    predictor_ok = True
    for _ in range(100):
        i = int(rng.integers(flat_analytic.size))
        w_up, b_up = weights.copy(), bias.copy()
        w_down, b_down = weights.copy(), bias.copy()
        if i < weights.size:
            w_up.flat[i] += step
            w_down.flat[i] -= step
        else:
            b_up[i - weights.size] += step
            b_down[i - weights.size] -= step
        up, _, _ = cross_entropy_loss_and_grads(w_up, b_up, features, labels)
        down, _, _ = cross_entropy_loss_and_grads(w_down, b_down, features, labels)
        numeric = (up - down) / (2 * step)
        denom = max(abs(numeric), abs(flat_analytic[i]), 1e-8)
        predictor_ok &= abs(numeric - flat_analytic[i]) / denom < 1e-4

    # value model: squared-error loss through the regressor
    model = ValueModel(64, gamma=GAMMA, seed=0)
    inputs = rng.normal(size=(10, 64))
    targets = rng.uniform(0.05, 0.95, size=10)
    _, (gwh, gbh, gwo, gbo) = model.loss_and_grads(inputs, targets)
    analytic = np.concatenate([gwh.ravel(), gbh, gwo, [gbo]])
    flat = model.get_flat_params()
    value_ok = True
    for _ in range(100):
        i = int(rng.integers(flat.size))
        bumped = flat.copy()
        bumped[i] += step
        model.set_flat_params(bumped)
        up, _ = model.loss_and_grads(inputs, targets)
        bumped[i] -= 2 * step
        model.set_flat_params(bumped)
        down, _ = model.loss_and_grads(inputs, targets)
        numeric = (up - down) / (2 * step)
        denom = max(abs(numeric), abs(analytic[i]), 1e-8)
        value_ok &= abs(numeric - analytic[i]) / denom < 1e-4
    _verdict(9, "gradient checks (predictor + value model)", predictor_ok and value_ok)


def test_criterion_10_hyperstate_algebra(oracle_suite):
    entries, _ = oracle_suite
    pool = []
    seen = set()
    for entry in entries:
        for obligation, _ in extract_subproof_tasks(entry.theorem, entry.proof):
            if obligation.canonical() not in seen:
                seen.add(obligation.canonical())
                pool.append(obligation)
    model = ValueModel(64, gamma=GAMMA, seed=3)
    rng = random.Random(10)
    ok = model.hyperstate_value(Hyperstate(())) == 1.0
    for _ in range(1000):
        states = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 5)))
        hyperstate = Hyperstate(states)
        value = model.hyperstate_value(hyperstate)
        expected = 1.0
        for obligation in states:
            expected *= model.v_value(obligation)
        ok &= value == expected
        per_ob = sum(steps_estimate(model.v_value(o), GAMMA) for o in states)
        ok &= math.isclose(steps_estimate(value, GAMMA), per_ob, abs_tol=1e-9) if value > 0 else False
    _verdict(10, "hyperstate algebra properties", ok)


def test_criterion_11_determinism(tmp_path):
    def run_twice(args_builder, outputs):
        blobs = []
        for tag in ("one", "two"):
            for path in outputs(tag):
                path.parent.mkdir(parents=True, exist_ok=True)
            code = main(args_builder(tag))
            assert code == 0
            blobs.append(tuple(path.read_bytes() for path in outputs(tag)))
        return blobs[0] == blobs[1]

    corpus_ok = run_twice(
        lambda tag: ["gen-corpus", "--seed", "9", "--counts", "6,5,5", "--out", str(tmp_path / tag / "c.jsonl")],
        lambda tag: [tmp_path / tag / "c.jsonl"],
    )
    corpus_path = tmp_path / "one" / "c.jsonl"

    train_args = lambda tag: [
        "train",
        "--corpus",
        str(corpus_path),
        "--out",
        str(tmp_path / tag / "m.ckpt"),
        "--seed",
        "2",
        "--pretrain-epochs",
        "300",
        "--min-drop-length",
        "0",
        "--max-drop-length",
        "9",
    ]
    train_ok = run_twice(
        train_args, lambda tag: [tmp_path / tag / "m.ckpt", tmp_path / tag / "m.ckpt.report.json"]
    )

    checkpoint = tmp_path / "one" / "m.ckpt"
    eval_ok = run_twice(
        lambda tag: [
            "eval",
            "--checkpoint",
            str(checkpoint),
            "--corpus",
            str(corpus_path),
            "--strategies",
            "astar,dfs,greedy",
            "--out",
            str(tmp_path / tag / "report"),
        ],
        lambda tag: [tmp_path / tag / "report" / "rows.tsv", tmp_path / tag / "report" / "summary.json"],
    )
    print(f"  [criterion 11] gen-corpus={corpus_ok} train={train_ok} eval={eval_ok}")
    _verdict(11, "byte-identical determinism", corpus_ok and train_ok and eval_ok)


def test_criterion_12_ablation_plumbing(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--seed", "13", "--counts", "4,3,3", "--out", str(corpus)]) == 0

    def ablate(sweep, out):
        code = main(
            [
                "ablate",
                "--sweep",
                sweep,
                "--corpus",
                str(corpus),
                "--out",
                str(out),
                "--rl-epochs",
                "0",
                "--pretrain-epochs",
                "120",
                "--min-drop-length",
                "0",
                "--max-drop-length",
                "9",
                "--budget",
                "64",
            ]
        )
        assert code == 0
        reports = sorted(p.name for p in out.iterdir() if p.is_dir())
        for name in reports:
            assert (out / name / "rows.tsv").exists() and (out / name / "summary.json").exists()
        return reports, json.loads((out / "sweep.json").read_text())

    width_reports, _ = ablate("width", tmp_path / "width")
    gamma_reports, _ = ablate("gamma", tmp_path / "gamma")
    scorer_reports, scorer_sweep = ablate("scorer", tmp_path / "scorer")
    obligation_reports, _ = ablate("obligation-training", tmp_path / "obl")

    union_rows = [r for r in scorer_sweep["settings"] if r["setting"] == "union_of_proved"]
    ok = (
        len(width_reports) == 5
        and len(gamma_reports) == 4
        and len(scorer_reports) == 2
        and len(union_rows) == 1
        and len(obligation_reports) == 2
    )
    print(
        f"  [criterion 12] width={len(width_reports)} gamma={len(gamma_reports)} "
        f"scorer={len(scorer_reports)} union_stat={bool(union_rows)} obligation={len(obligation_reports)}"
    )
    _verdict(12, "ablation plumbing", ok)
