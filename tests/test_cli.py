import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valueprover
from valueprover import cli, oracle
from valueprover.cli import EVAL_STRATEGIES, WIDTH_SWEEP, main
from valueprover.env import TEMPLATES, Hyperstate, Theorem, parse_obligation, parse_script, script_is_valid
from valueprover.trainer import TrainerConfig


def rows_from_tsv(text: str) -> list[dict]:
    """The rows of a rows.tsv report, typed as run_eval returns them."""
    lines = [line for line in text.split("\n") if line]
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        row = dict(zip(header, cells))
        for field in ("proof_length", "nodes_expanded", "tactic_executions"):
            row[field] = int(row[field]) if row[field] else None
        row["proof"] = row["proof"] if row["proof"] or row["status"] == "proved" else None
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.jsonl"
    code = main(["gen-corpus", "--seed", "5", "--counts", "6,5,5", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, tiny_corpus):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "train",
            "--corpus",
            str(tiny_corpus),
            "--out",
            str(path),
            "--seed",
            "1",
            "--pretrain-epochs",
            "300",
            "--min-drop-length",
            "0",
            "--max-drop-length",
            "9",
        ]
    )
    assert code == 0
    return path


def test_gen_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen-corpus", "--seed", "3", "--counts", "4,3,3", "--out", str(a)]) == 0
    assert main(["gen-corpus", "--seed", "3", "--counts", "4,3,3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_corpus_zero_counts(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert main(["gen-corpus", "--counts", "0,0,0", "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_gen_corpus_unwritable_path_is_runtime_error(capsys):
    assert main(["gen-corpus", "--out", "/nonexistent-dir/x.jsonl"]) == 2
    assert "valueprover:" in capsys.readouterr().err


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["train", "--corpus", "x", "--out", "y", "--gamma", "1.5"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["gen-corpus", "--counts", "1,2", "--out", "x"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["definitely-not-a-command"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["train", "--corpus", "x", "--out", "y", "--actors", "2"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "--checkpoint", "x", "--theorem", "|- Zero = Zero", "--budget", "-1"],
        ["prove", "--checkpoint", "x", "--theorem", "|- Zero = Zero", "--width", "0"],
        ["eval", "--checkpoint", "x", "--corpus", "y", "--out", "z", "--budget", "-5"],
        ["ablate", "--sweep", "width", "--corpus", "x", "--out", "y", "--budget", "-1"],
        ["oracle", "|- Zero = Zero", "--depth", "-1"],
    ],
    ids=["prove-budget", "prove-width", "eval-budget", "ablate-budget", "oracle-depth"],
)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert "must be at least" in capsys.readouterr().err


def test_training_options_default_to_the_trainer_config():
    args = cli.build_parser().parse_args(["train", "--corpus", "c", "--out", "m"])
    assert cli._config_from_args(args) == TrainerConfig()


def test_width_sweep_settings_are_distinct_top_n_widths():
    # top-n never ranks more than the templates, so a wider setting would
    # repeat width len(TEMPLATES)
    assert len(set(WIDTH_SWEEP)) == len(WIDTH_SWEEP)
    assert all(1 <= width <= len(TEMPLATES) for width in WIDTH_SWEEP)


def test_negative_rl_epochs_is_runtime_error(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    assert main(["train", "--corpus", str(tiny_corpus), "--out", str(out), "--rl-epochs", "-1"]) == 2
    assert "rl_epochs must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_takes_no_rl_epochs_and_is_train_without_them(tmp_path):
    corpus = str(tmp_path / "c.jsonl")
    assert main(["gen-corpus", "--seed", "13", "--counts", "4,3,3", "--out", corpus]) == 0
    flags = ["--corpus", corpus, "--seed", "1", "--pretrain-epochs", "60"]
    refused = tmp_path / "refused.ckpt"
    with pytest.raises(SystemExit) as err:
        main(["pretrain", *flags, "--out", str(refused), "--rl-epochs", "3"])
    assert err.value.code == 1
    assert not refused.exists()
    pretrained, trained = tmp_path / "pretrain.ckpt", tmp_path / "train.ckpt"
    assert main(["pretrain", *flags, "--out", str(pretrained)]) == 0
    assert main(["train", *flags, "--out", str(trained), "--rl-epochs", "0"]) == 0
    assert pretrained.read_bytes() == trained.read_bytes()
    assert Path(f"{pretrained}.report.json").read_bytes() == Path(f"{trained}.report.json").read_bytes()


def test_an_empty_task_list_names_the_filters_and_the_failing_sweep_setting(tmp_path, capsys):
    # generated whole-theorem proofs take 2 or 7 tactics, and the default
    # band keeps only demos longer than 2 and shorter than 6
    corpus = str(tmp_path / "c.jsonl")
    assert main(["gen-corpus", "--seed", "13", "--counts", "4,3,3", "--out", corpus]) == 0
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    assert main(["train", "--corpus", corpus, "--out", str(out), "--no-subproof-tasks"]) == 2
    message = (
        "no training tasks survive the filters: a demo longer than min_drop_length 2 and shorter than"
        " max_drop_length 6, reproducible under the top-5 predictions, with sub-proof tasks off"
    )
    assert capsys.readouterr().err == f"valueprover: {message}\n"
    assert not out.exists()
    sweep = ["ablate", "--sweep", "obligation-training", "--corpus", corpus, "--out", str(tmp_path / "sweep")]
    assert main([*sweep, "--pretrain-epochs", "60", "--rl-epochs", "0"]) == 2
    assert capsys.readouterr().err == f"valueprover: obligation-training=off: {message}\n"
    assert not (tmp_path / "sweep").exists()
    # the scorer sweep trains one model for its two strategies, and a
    # failing training names both
    banded = ["--min-drop-length", "9", "--max-drop-length", "10"]
    assert main(["ablate", "--sweep", "scorer", "--corpus", corpus, "--out", str(tmp_path / "sweep"), *banded]) == 2
    message = (
        "no training tasks survive the filters: a demo longer than min_drop_length 9 and shorter than"
        " max_drop_length 10, reproducible under the top-5 predictions, with sub-proof tasks on"
    )
    assert capsys.readouterr().err == f"valueprover: scorer=value_model,probability_product: {message}\n"
    assert not (tmp_path / "sweep").exists()


def test_ablate_reads_the_corpus_once(tmp_path, monkeypatch):
    corpus = str(tmp_path / "c.jsonl")
    assert main(["gen-corpus", "--seed", "13", "--counts", "4,3,3", "--out", corpus]) == 0
    loads = []
    load_corpus = cli.load_corpus
    monkeypatch.setattr(cli, "load_corpus", lambda path: loads.append(path) or load_corpus(path))
    sweep = ["ablate", "--sweep", "width", "--corpus", corpus, "--out", str(tmp_path / "sweep")]
    assert main([*sweep, "--pretrain-epochs", "20", "--rl-epochs", "0", "--budget", "16"]) == 0
    assert loads == [corpus]
    assert len(json.loads((tmp_path / "sweep" / "sweep.json").read_text())["settings"]) == len(WIDTH_SWEEP)


def test_oracle_command(capsys):
    assert main(["oracle", "|- Plus(Zero,Zero) = Zero", "--depth", "6"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["provable"] is True
    assert record["shortest_length"] == 2
    assert record["shortest_script"] == "simpl; reflexivity"
    assert record["optimal_value"] == pytest.approx(0.81)


def test_oracle_unprovable(capsys):
    assert main(["oracle", "|- Zero = Succ(Zero)", "--depth", "5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["provable"] is False and record["optimal_value"] == 0.0


@pytest.mark.parametrize(
    "obligation, depth, gamma",
    [("|- Plus(Zero,Zero) = Zero", 6, 0.9), ("|- Zero = Succ(Zero)", 5, 0.5), ("forall n, |- Zero = Zero", 1, 0.7)],
)
def test_oracle_runs_one_breadth_first_search(monkeypatch, capsys, obligation, depth, gamma):
    # optimal_value is gamma to the shortest length, so the command takes it
    # from the search it has run instead of running another one
    calls = []
    shortest_proof = oracle.shortest_proof

    def counted(*args):
        calls.append(args)
        return shortest_proof(*args)

    expected = oracle.shortest_proof(Hyperstate((parse_obligation(obligation),)), depth).value(gamma)
    monkeypatch.setattr(cli, "shortest_proof", counted)
    monkeypatch.setattr(oracle, "shortest_proof", counted)
    assert main(["oracle", obligation, "--depth", str(depth), "--gamma", str(gamma)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["optimal_value"] == expected


def test_prove_trivial_theorem(tiny_checkpoint, capsys):
    code = main(
        [
            "prove",
            "--checkpoint",
            str(tiny_checkpoint),
            "--theorem",
            "|- Plus(Succ(Zero),Succ(Zero)) = Succ(Succ(Zero))",
            "--strategy",
            "greedy",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    record = json.loads(out[0])
    assert record["status"] == "proved" and record["proof_length"] == 2
    assert out[1] == "simpl; reflexivity"


@pytest.mark.parametrize("strategy", ["bestfirst_prob", "greedy_prob"])
def test_prove_with_a_probability_scored_strategy(tiny_checkpoint, capsys, strategy):
    statement = "|- Plus(Succ(Zero),Succ(Zero)) = Succ(Succ(Zero))"
    code = main(["prove", "--checkpoint", str(tiny_checkpoint), "--theorem", statement, "--strategy", strategy])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    record = json.loads(out[0])
    assert record["strategy"] == strategy and record["status"] == "proved"
    assert script_is_valid(Theorem("goal", parse_obligation(statement)), parse_script(out[1]))


def _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) -> int:
    payload = json.loads(tiny_checkpoint.read_text())
    edit(payload)
    path = tmp_path / "edited.ckpt"
    path.write_text(json.dumps(payload))
    return main(["prove", "--checkpoint", str(path), "--theorem", "|- Zero = Zero"])


@pytest.mark.parametrize("name", ["w_hidden", "b_hidden", "w_out"])
def test_checkpoint_value_model_shape_is_checked(tiny_checkpoint, tmp_path, capsys, name):
    def edit(payload):
        net = payload["value_model"]
        if name == "w_hidden":
            net[name] = [row[:-1] for row in net[name]]  # one input column short
        else:
            net[name] = net[name][:-1]

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert f"value_model.{name} has shape" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, name, bad", [("value_model", "w_hidden", math.nan), ("predictor", "bias", math.inf)]
)
def test_checkpoint_weights_must_be_finite(tiny_checkpoint, tmp_path, capsys, section, name, bad):
    def edit(payload):
        values = payload[section][name]
        if isinstance(values[0], list):
            values = values[0]
        values[0] = bad

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert f"{section}.{name} is not finite" in capsys.readouterr().err


def test_checkpoint_predictor_shape_is_checked(tiny_checkpoint, tmp_path, capsys):
    def edit(payload):
        payload["predictor"]["weights"] = [row + [0.0] for row in payload["predictor"]["weights"]]

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert "predictor.weights has shape" in capsys.readouterr().err


def test_checkpoint_encoder_dim_must_match_the_value_model(tiny_checkpoint, tmp_path, capsys, monkeypatch):
    # the class constant gives the dimension; w_hidden must have that many
    # columns, so a checkpoint saved under another encoder_dim is refused
    hidden, dim = TrainerConfig.hidden_dim, TrainerConfig.encoder_dim
    monkeypatch.setattr(TrainerConfig, "encoder_dim", dim + 1)
    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, lambda payload: None) == 2
    expected = f"value_model.w_hidden has shape ({hidden}, {dim}), expected ({hidden}, {dim + 1})"
    assert expected in capsys.readouterr().err


def test_checkpoint_with_an_unknown_config_key_is_runtime_error(tiny_checkpoint, tmp_path, capsys):
    def edit(payload):
        payload["config"]["actor_threads"] = 2

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert "unknown trainer config keys: actor_threads" in capsys.readouterr().err


def test_checkpoint_trained_with_two_actors_still_loads(tiny_checkpoint, tmp_path, capsys):
    # prove and eval read no actor_count, so a config that records 2 still loads
    def edit(payload):
        payload["config"]["actor_count"] = 2

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["status"] == "proved"


def test_checkpoint_config_is_validated(tiny_checkpoint, tmp_path, capsys):
    def edit(payload):
        payload["config"]["rl_epochs"] = -1

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert "rl_epochs must be at least 0" in capsys.readouterr().err


def test_checkpoint_config_with_nan_is_refused(tiny_checkpoint, tmp_path, capsys):
    # json writes and reads NaN; a NaN fails every comparison, so the
    # range checks must be written to reject it
    def edit(payload):
        payload["config"]["gamma"] = math.nan

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert "gamma must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("width", 2.5, "width must be an integer"),
        ("width", True, "width must be a number"),
        ("gamma", "0.9", "gamma must be a number"),
        ("seed", -4, "seed must be at least 0"),
    ],
)
def test_checkpoint_config_types_are_checked(tiny_checkpoint, tmp_path, capsys, name, bad, message):
    def edit(payload):
        payload["config"][name] = bad

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert message in capsys.readouterr().err


def _without(mapping, key):
    return {name: value for name, value in mapping.items() if name != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: [payload], "is not a JSON object"),
        (lambda payload: {**payload, "config": [payload["config"]]}, "has no 'config' object"),
        (lambda payload: {**payload, "predictor": None}, "has no 'predictor' object"),
        (
            lambda payload: {**payload, "value_model": _without(payload["value_model"], "w_out")},
            "has no key 'w_out' in its 'value_model' section",
        ),
        (
            lambda payload: {**payload, "predictor": _without(payload["predictor"], "bias")},
            "has no key 'bias' in its 'predictor' section",
        ),
    ],
    ids=["not-an-object", "config-not-an-object", "predictor-null", "no-w_out", "no-bias"],
)
def test_checkpoint_sections_are_checked(tiny_checkpoint, tmp_path, capsys, edit, message):
    path = tmp_path / "edited.ckpt"
    path.write_text(json.dumps(edit(json.loads(tiny_checkpoint.read_text()))))
    assert main(["prove", "--checkpoint", str(path), "--theorem", "|- Zero = Zero"]) == 2
    assert f"valueprover: checkpoint {path} {message}" in capsys.readouterr().err


def _set(section, key, value):
    def edit(payload):
        payload[section][key] = value
        return payload

    return edit


def _map(section, key, change):
    def edit(payload):
        payload[section][key] = change(payload[section][key])
        return payload

    return edit


def _set_leaf(section, key, index, value):
    def edit(payload):
        row = payload[section][key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
        return payload

    return edit


# The settings that the version-2 config recorded and that version 3 fixes
# as TrainerConfig class constants; encoder_salt, always 0,
# negative_fraction, always 0.25, and epsilon_decay_episodes, always None,
# are gone.
_FIXED_SINCE_VERSION_3 = (
    "epsilon_start",
    "epsilon_end",
    "episode_budget",
    "episodes_per_prefix",
    "updates_per_episode",
    "batch_size",
    "replay_fraction",
    "true_fraction",
    "replay_capacity",
    "learning_rate",
    "pretrain_learning_rate",
    "validation_tasks",
    "encoder_dim",
    "hidden_dim",
    "predictor_epochs",
    "predictor_learning_rate",
)


def _version_2(payload):
    """The payload in the version-2 layout, whose config also recorded the
    fixed settings and epsilon_decay_episodes."""
    fixed = {name: getattr(TrainerConfig, name) for name in _FIXED_SINCE_VERSION_3}
    config = {
        **payload["config"],
        **fixed,
        "encoder_salt": 0,
        "negative_fraction": 0.25,
        "epsilon_decay_episodes": None,
    }
    return {**payload, "version": 2, "config": config}


def _version_1(payload):
    """The payload in the version-1 layout, which recorded the encoder
    settings, gamma and hidden_dim a second time and the feature schema."""
    config = _version_2(payload)["config"]
    return {
        "version": 1,
        "config": {**config, "sync_interval": 16},
        "encoder": {"mode": "hashed", "dim": config["encoder_dim"], "salt": 0},
        "predictor": {**payload["predictor"], "feature_schema": 1},
        "value_model": {
            **payload["value_model"],
            "input_dim": config["encoder_dim"],
            "hidden_dim": config["hidden_dim"],
            "gamma": config["gamma"],
        },
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: json.dumps(payload)[:-1], "Expecting"),
        (lambda payload: "[" * 5000, "maximum recursion depth exceeded"),
        (lambda payload: {**payload, "version": 0}, "incompatible checkpoint version 0"),
        (_version_1, "incompatible checkpoint version 1"),
        (_set("config", "rl_epochs", -1), "rl_epochs must be at least 0"),
        (_set("value_model", "b_out", [0.0]), "value_model.b_out has shape"),
        (_set("value_model", "w_out", {}), "value_model.w_out is not an array of numbers"),
        (_set("value_model", "w_hidden", [[0.0], [0.0, 0.0]]), "value_model.w_hidden is not an array of numbers"),
        (_set("value_model", "b_out", "0.25"), "value_model.b_out is not an array of numbers"),
        (_set_leaf("value_model", "w_out", (0,), True), "value_model.w_out is not an array of numbers"),
        (_set_leaf("value_model", "w_hidden", (0, 0), None), "value_model.w_hidden is not an array of numbers"),
        (_set("predictor", "bias", [math.nan] * 6), "predictor.bias is not finite"),
        (
            _map("value_model", "w_hidden", lambda rows: [row + [0.0] for row in rows]),
            "value_model.w_hidden has shape (32, 65), expected (32, 64)",
        ),
        (
            _map("value_model", "w_hidden", lambda rows: rows + rows[:1]),
            "value_model.w_hidden has shape (33, 64), expected (32, 64)",
        ),
    ],
    ids=[
        "malformed-json",
        "nested-too-deep",
        "version",
        "version-1",
        "config-range",
        "shape",
        "parameter-object",
        "parameter-ragged",
        "parameter-string",
        "parameter-bool",
        "parameter-null",
        "not-finite",
        "encoder-dim",
        "config-vs-section",
    ],
)
def test_every_checkpoint_error_names_the_file(tiny_checkpoint, tmp_path, capsys, edit, message):
    path = tmp_path / "named.ckpt"
    edited = edit(json.loads(tiny_checkpoint.read_text()))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    assert main(["prove", "--checkpoint", str(path), "--theorem", "|- Zero = Zero"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"valueprover: checkpoint {path}: ") and message in err


def test_checkpoint_config_with_a_missing_key_is_refused(tiny_checkpoint, tmp_path, capsys):
    def edit(payload):
        del payload["config"]["pretrain_epochs"]

    assert _prove_with_edited_checkpoint(tiny_checkpoint, tmp_path, edit) == 2
    assert "missing trainer config keys: pretrain_epochs" in capsys.readouterr().err


def test_eval_refuses_a_version_2_checkpoint_and_writes_nothing(tiny_checkpoint, tiny_corpus, tmp_path, capsys):
    # a version-2 config also holds the settings that are class constants now
    path = tmp_path / "v2.ckpt"
    path.write_text(json.dumps(_version_2(json.loads(tiny_checkpoint.read_text()))))
    report = tmp_path / "report"
    assert main(["eval", "--checkpoint", str(path), "--corpus", str(tiny_corpus), "--out", str(report)]) == 2
    assert f"valueprover: checkpoint {path}: incompatible checkpoint version 2" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["v2.ckpt"]


def test_train_negative_seed_is_refused_before_loading_the_corpus(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(["train", "--corpus", str(missing), "--out", str(tmp_path / "m.ckpt"), "--seed", "-1"]) == 2
    assert "seed must be at least 0" in capsys.readouterr().err


def test_prove_budget_zero(tiny_checkpoint, capsys):
    code = main(
        [
            "prove",
            "--checkpoint",
            str(tiny_checkpoint),
            "--theorem",
            "|- Zero = Zero",
            "--budget",
            "0",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "budget_exceeded"


def test_prove_malformed_theorem_is_runtime_error(tiny_checkpoint):
    assert main(["prove", "--checkpoint", str(tiny_checkpoint), "--theorem", "garbage"]) == 2


def test_eval_writes_report(tiny_checkpoint, tiny_corpus, tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(
        [
            "eval",
            "--checkpoint",
            str(tiny_checkpoint),
            "--corpus",
            str(tiny_corpus),
            "--strategies",
            "astar,dfs",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    rows = rows_from_tsv((out_dir / "rows.tsv").read_text())
    summary = json.loads((out_dir / "summary.json").read_text())
    strategies = {row["strategy"] for row in rows}
    assert strategies == {"astar", "dfs"}
    assert "astar_vs_dfs" in summary["matched_pairs"]
    # aggregates recompute exactly from rows
    from valueprover.reports import build_summary

    assert build_summary(rows, ["astar", "dfs"]) == summary
    assert "wall_ms" not in rows[0]


def test_eval_empty_test_set(tiny_checkpoint, tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    assert main(["gen-corpus", "--counts", "0,0,0", "--out", str(corpus)]) == 0
    out_dir = tmp_path / "report"
    code = main(
        [
            "eval",
            "--checkpoint",
            str(tiny_checkpoint),
            "--corpus",
            str(corpus),
            "--strategies",
            "astar",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert rows_from_tsv((out_dir / "rows.tsv").read_text()) == []


def test_eval_unknown_strategy_is_runtime_error(tiny_checkpoint, tiny_corpus, tmp_path):
    code = main(
        [
            "eval",
            "--checkpoint",
            str(tiny_checkpoint),
            "--corpus",
            str(tiny_corpus),
            "--strategies",
            "quantum",
            "--out",
            str(tmp_path / "r"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "strategies, message",
    [(",", "no strategy given"), ("astar,astar", "strategy 'astar' is given more than once")],
)
def test_eval_empty_or_repeated_strategies_are_runtime_errors(
    tiny_checkpoint, tiny_corpus, tmp_path, capsys, strategies, message
):
    out = tmp_path / "r"
    argv = ["eval", "--checkpoint", str(tiny_checkpoint), "--corpus", str(tiny_corpus), "--strategies", strategies]
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_corpus_is_runtime_error(tmp_path):
    code = main(["train", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m")])
    assert code == 2


def test_corpus_with_a_proof_that_does_not_replay_is_runtime_error(tiny_corpus, tmp_path, capsys):
    lines = tiny_corpus.read_text().splitlines()
    record = json.loads(lines[0])
    record.update(proof="simpl", proof_length=1)
    lines[0] = json.dumps(record, sort_keys=True)
    corpus = tmp_path / "cut.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    assert f"valueprover: corpus {corpus}: line 1: " in capsys.readouterr().err


_PIPELINE = """
import sys
from valueprover.cli import main

out = sys.argv[1]
commands = (
    ["gen-corpus", "--seed", "4", "--counts", "4,3,3", "--out", out + "/c.jsonl"],
    ["train", "--corpus", out + "/c.jsonl", "--out", out + "/m.ckpt", "--seed", "1",
     "--pretrain-epochs", "60", "--min-drop-length", "0", "--max-drop-length", "9"],
    ["eval", "--checkpoint", out + "/m.ckpt", "--corpus", out + "/c.jsonl",
     "--strategies", "astar,bestfirst,bestfirst_prob,dfs,greedy,greedy_prob", "--out", out + "/report"],
)
for command in commands:
    if main(command) != 0:
        sys.exit(f"{command[0]} failed")
"""


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # obligations hash through their canonical text, so any output that
    # followed hash order would change with PYTHONHASHSEED
    source_root = str(Path(valueprover.__file__).resolve().parents[1])
    outputs = ("c.jsonl", "m.ckpt", "m.ckpt.report.json", "report/rows.tsv", "report/summary.json")
    blobs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (source_root, env.get("PYTHONPATH"))))
        subprocess.run([sys.executable, "-c", _PIPELINE, str(out)], env=env, check=True, capture_output=True)
        blobs.append([(out / name).read_bytes() for name in outputs])
    assert blobs[0] == blobs[1]


# sha256 of the checkpoint, its report and the test split's rows.tsv from the
# seeded chain `gen-corpus --seed 0 --counts 26,14,10`, `train --seed 0
# --min-drop-length 0 --max-drop-length 9` and a six-strategy `eval`. A change
# that only makes training or search faster must leave them as they are; the
# checkpoint and report catch float drift in the weights that leaves the eval
# rows unchanged. The float bits, and so these hashes, depend on the numpy
# build and its BLAS: they were taken with numpy 2.4.6. The checkpoint and
# report pins were re-taken for checkpoint version 3, whose config holds only
# the settings a caller sets; every weight kept its JSON text, and the
# checkpoint and report changed only in the version and the config keys.
BASELINE_CHECKPOINT_SHA256 = "71979414906b2ea3e7fb303a5650ccff730bd3dbba7a8811e936fbd66cafdbba"
BASELINE_REPORT_SHA256 = "ad80f570ee46f70185e65fc1a0964c6db9a0335030821573204f51203b3cd2f2"
BASELINE_EVAL_ROWS_SHA256 = "fede3b61ccdbf792e5393f4d8b31d744bd949b8994f765d8a3a46a4ed379bf85"


def test_baseline_eval_rows_are_pinned(tmp_path):
    corpus, checkpoint, report = (str(tmp_path / name) for name in ("c.jsonl", "m.ckpt", "report"))
    assert main(["gen-corpus", "--seed", "0", "--counts", "26,14,10", "--out", corpus]) == 0
    train = ["train", "--corpus", corpus, "--out", checkpoint, "--seed", "0"]
    assert main(train + ["--min-drop-length", "0", "--max-drop-length", "9"]) == 0
    strategies = ",".join(EVAL_STRATEGIES)
    assert main(["eval", "--checkpoint", checkpoint, "--corpus", corpus, "--strategies", strategies, "--out", report]) == 0

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert sha256(tmp_path / "m.ckpt") == BASELINE_CHECKPOINT_SHA256
    assert sha256(tmp_path / "m.ckpt.report.json") == BASELINE_REPORT_SHA256
    assert sha256(tmp_path / "report" / "rows.tsv") == BASELINE_EVAL_ROWS_SHA256


@pytest.fixture(scope="module")
def baseline_checkpoint(tmp_path_factory):
    """The checkpoint of the seeded baseline chain that the pins above hash."""
    root = tmp_path_factory.mktemp("baseline")
    corpus, checkpoint = str(root / "c.jsonl"), str(root / "m.ckpt")
    assert main(["gen-corpus", "--seed", "0", "--counts", "26,14,10", "--out", corpus]) == 0
    train = ["train", "--corpus", corpus, "--out", checkpoint, "--seed", "0"]
    assert main(train + ["--min-drop-length", "0", "--max-drop-length", "9"]) == 0
    return checkpoint


# (status, proof_length, nodes_expanded, tactic_executions) per strategy, in
# EVAL_STRATEGIES order, of `prove` on the baseline checkpoint. On the test
# split every strategy proves each theorem in the fewest nodes, so the rows
# pin cannot tell the strategies' node orders apart; these statements can.
_SEPARATING_SEARCHES = {
    "forall n, |- Plus(Zero,Var(n)) = Var(n)": [
        ("proved", 6, 6, 27),
        ("proved", 6, 6, 27),
        ("proved", 3, 4, 18),
        ("proved", 3, 3, 14),
        ("proved", 6, 6, 27),
        ("proved", 3, 3, 14),
    ],
    "forall c b a, |- Plus(Plus(Var(a),Var(b)),Var(c)) = Plus(Var(a),Plus(Var(b),Var(c)))": [
        ("exhausted", None, 21, 100),
        ("exhausted", None, 21, 100),
        ("exhausted", None, 21, 100),
        ("exhausted", None, 17, 80),
        ("exhausted", None, 12, 57),
        ("exhausted", None, 12, 57),
    ],
    "forall n m, |- Plus(Var(n),Var(m)) = Plus(Var(m),Var(n))": [
        ("exhausted", None, 101, 500),
        ("exhausted", None, 101, 500),
        ("exhausted", None, 101, 500),
        ("exhausted", None, 19, 90),
        ("exhausted", None, 7, 33),
        ("exhausted", None, 12, 57),
    ],
}


@pytest.mark.parametrize("statement", list(_SEPARATING_SEARCHES))
def test_baseline_searches_that_separate_the_strategies_are_pinned(baseline_checkpoint, capsys, statement):
    found = []
    for strategy in EVAL_STRATEGIES:
        assert main(["prove", "--checkpoint", baseline_checkpoint, "--theorem", statement, "--strategy", strategy]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        found.append((record["status"], record["proof_length"], record["nodes_expanded"], record["tactic_executions"]))
    assert EVAL_STRATEGIES == ("astar", "bestfirst", "bestfirst_prob", "dfs", "greedy", "greedy_prob")
    assert found == _SEPARATING_SEARCHES[statement]
