"""The benchmark's tracer replaces package functions by name, at the module
or class they are called through; every such name must still exist, and the
package must still call through it. The caches whose hit rates it reports
must still be LRU caches."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # defines the tracer; installs nothing
    return layers


def test_every_traced_name_resolves():
    layers = _layers()
    assert layers._WRAPPED
    for owner, attribute, span in layers._WRAPPED:
        assert callable(getattr(owner, attribute, None)), f"{owner.__name__}.{attribute} ({span}) is gone"


def test_the_benchmark_reads_the_strategy_table_through_cli():
    # bench/worker.py and bench/layers.py read cli.EVAL_STRATEGIES and call
    # cli.run_strategy; BENCHMARK.json names one search.<strategy>.* block
    # per strategy, in table order
    from valueprover import cli, search

    assert cli.run_strategy is search.run_strategy
    assert cli.EVAL_STRATEGIES == search.EVAL_STRATEGIES
    names = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    benchmarked = dict.fromkeys(name.split(".")[1] for name in names if name.startswith("search."))
    assert cli.EVAL_STRATEGIES == tuple(benchmarked)


def test_every_strategy_expands_through_the_priority_loop(monkeypatch, trained_predictor):
    # the priority loop is the one place a tracer instruments search
    from valueprover import search, trainer
    from valueprover.env import Theorem, parse_obligation, parse_script
    from valueprover.value_model import ValueModel

    calls = []
    priority_search = search._priority_search

    def counted(*args, **kwargs):
        calls.append(args)
        return priority_search(*args, **kwargs)

    monkeypatch.setattr(search, "_priority_search", counted)
    theorem = Theorem("two", parse_obligation("|- Plus(Succ(Zero),Zero) = Succ(Zero)"))
    model = ValueModel(64, gamma=0.9, seed=0)
    for strategy in search.EVAL_STRATEGIES:
        assert search.run_strategy(strategy, theorem, model, trained_predictor, 5, 64).proved, strategy
    assert len(calls) == len(search.EVAL_STRATEGIES) == 6
    # training validation searches through the same loop, once per task
    task = trainer.TrainingTask(theorem.statement, parse_script("simpl; reflexivity"))
    config = trainer.TrainerConfig(seed=0)
    assert trainer._validation_success(model, trained_predictor, [task, task], config) == 1.0
    assert len(calls) == 8


def test_every_traced_cache_reports_its_hits():
    # the tracer reads LRU hit rates through cache_info()
    caches = _layers()._LRU_CACHES
    assert caches
    for name, cache in caches.items():
        assert callable(getattr(cache, "cache_info", None)), f"{name} has no cache_info()"


def test_train_runs_each_episode_through_the_module_name(monkeypatch):
    # bench/worker.py times episodes by rebinding trainer.run_episode and
    # checks one timing per reported episode
    from test_trainer import NO_F_EQUAL, _fast_config, _tiny_split
    from valueprover import trainer

    played = []
    run_episode = trainer.run_episode

    def counted(task, *rest):
        played.append(task)
        return run_episode(task, *rest)

    monkeypatch.setattr(trainer, "run_episode", counted)
    _, report = trainer.train(_tiny_split(), NO_F_EQUAL, _fast_config(monkeypatch, rl_epochs=2))
    assert report.episodes > 0 and len(played) == report.episodes


def test_train_runs_each_update_through_the_traced_names(monkeypatch):
    # bench/layers.py counts value_model.bellman_target and
    # value_model.update_batch by rebinding trainer.bellman_target and
    # ValueModel.update_batch; an update that reached either another way
    # would read as zero calls in traced runs
    from test_trainer import NO_F_EQUAL, _fast_config, _tiny_split
    from valueprover import trainer, value_model

    calls = {"bellman_target": 0, "update_batch": 0}
    bellman_target = trainer.bellman_target
    update_batch = value_model.ValueModel.update_batch

    def counted_target(*args):
        calls["bellman_target"] += 1
        return bellman_target(*args)

    def counted_update(*args):
        calls["update_batch"] += 1
        return update_batch(*args)

    monkeypatch.setattr(trainer, "bellman_target", counted_target)
    monkeypatch.setattr(value_model.ValueModel, "update_batch", counted_update)
    _, report = trainer.train(_tiny_split(), NO_F_EQUAL, _fast_config(monkeypatch, rl_epochs=2))
    assert report.updates > 0
    assert calls == {"bellman_target": report.updates, "update_batch": report.updates}


def test_every_tracer_only_import_names_a_traced_row():
    # an import kept only so that bench/layers.py can rebind it must name a
    # row of _WRAPPED, so that the import leaves when its row does
    import re

    rows = {(owner.__name__, attribute) for owner, attribute, _ in _layers()._WRAPPED}
    pattern = re.compile(r"# noqa: F401 - bench/layers\.py traces (\w+)\.(\w+)")
    found = []
    for path in sorted((ROOT / "src" / "valueprover").glob("*.py")):
        for line in path.read_text().splitlines():
            if "noqa: F401" in line:
                match = pattern.search(line)
                assert match, f"{path.name}: {line.strip()}"
                module, name = match.groups()
                assert module == path.stem, f"{path.name} names module {module}"
                assert (f"valueprover.{module}", name) in rows, f"no _WRAPPED row for {module}.{name}"
                found.append((module, name))
    assert found


def test_each_module_imports_only_the_layers_below_it():
    # the oracle is the ground truth, so it reads the environment alone; the
    # predictor owns the action space over the environment and the terms;
    # the value model reads no module that drives it
    import ast

    def imported(module):
        tree = ast.parse((ROOT / "src" / "valueprover" / f"{module}.py").read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module else [alias.name for alias in node.names])
        return names

    assert imported("oracle") == {"env"}
    assert imported("predictor") == {"env", "terms"}
    assert not imported("value_model") & {"oracle", "search", "trainer"}


def test_every_checkpoint_parameter_is_an_attribute_of_its_owner(monkeypatch):
    # save_checkpoint and load_checkpoint move each parameter of
    # trainer._PARAMETERS by its name, so each row must name an attribute of
    # a freshly built owner, with the row's shape under the owner's config,
    # and an array the owner gains is saved only once it has a row
    import numpy as np

    from valueprover import trainer
    from valueprover.env import TEMPLATES
    from valueprover.predictor import FEATURE_NAMES, Predictor
    from valueprover.value_model import ValueModel

    monkeypatch.setattr(trainer.TrainerConfig, "encoder_dim", 16)
    monkeypatch.setattr(trainer.TrainerConfig, "hidden_dim", 8)
    config = trainer.TrainerConfig()
    owners = {
        "value_model": ValueModel(config.encoder_dim, config.gamma, config.hidden_dim, config.seed),
        "predictor": Predictor(np.zeros((len(TEMPLATES), len(FEATURE_NAMES))), np.zeros(len(TEMPLATES))),
    }
    rows = {section: set() for section in owners}
    for section, name, shape in trainer._PARAMETERS:
        owner = owners[section]
        assert hasattr(owner, name), f"{section}.{name}"
        assert np.shape(getattr(owner, name)) == shape(config), f"{section}.{name}"
        rows[section].add(name)
    for section, owner in owners.items():
        arrays = {name for name, value in vars(owner).items() if isinstance(value, np.ndarray)}
        assert arrays <= rows[section], f"{section} arrays with no row: {sorted(arrays - rows[section])}"


def test_the_value_model_encodes_through_the_module_name(monkeypatch):
    # bench/layers.py traces encoder.encode_hashed by rebinding it on the
    # module, so ValueModel must look it up there on every encoding
    from valueprover import encoder
    from valueprover.env import parse_obligation
    from valueprover.value_model import ValueModel

    calls = []
    encode_hashed = encoder.encode_hashed

    def counted(ob, dim):
        calls.append(dim)
        return encode_hashed(ob, dim)

    monkeypatch.setattr(encoder, "encode_hashed", counted)
    model = ValueModel(16, seed=0)
    ob = parse_obligation("|- Plus(Zero,Zero) = Zero")
    assert model.encode(ob).tobytes() == encode_hashed(ob, 16).tobytes()
    model.v_value(ob)
    assert calls == [16]


def test_every_exported_name_resolves():
    # a function deleted from a module must leave its __all__ too
    import importlib
    import pkgutil

    import valueprover

    modules = [info.name for info in pkgutil.iter_modules(valueprover.__path__)]
    assert "search" in modules
    for name in modules:
        module = importlib.import_module(f"valueprover.{name}")
        assert hasattr(module, "__all__"), f"valueprover.{name} has no __all__"
        missing = [export for export in module.__all__ if not hasattr(module, export)]
        assert not missing, f"valueprover.{name}.__all__ names {missing}"


def test_every_frozen_value_class_is_slotted():
    # the caches keep every term, obligation and tactic a search meets for
    # the life of a process, so none of them may carry a per-instance dict
    import dataclasses
    import importlib
    import pkgutil

    import valueprover
    from valueprover.search import SearchNode

    classes = {SearchNode}
    for info in pkgutil.iter_modules(valueprover.__path__):
        module = importlib.import_module(f"valueprover.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                classes.add(value)
    names = {cls.__name__ for cls in classes}
    assert {"Term", "Succ", "Obligation", "Tactic", "SearchNode"} <= names
    for cls in classes:
        name = f"{cls.__module__}.{cls.__name__}"
        assert "__slots__" in vars(cls), f"{name} defines no __slots__"
        assert not hasattr(object.__new__(cls), "__dict__"), f"{name} instances have a __dict__"


def test_every_trainer_config_field_is_set_by_a_caller(monkeypatch):
    # a setting that no caller sets is a TrainerConfig class constant, not a
    # field: the fields are what cli._config_from_args passes, plus the
    # actor_count that bench/worker.py still passes
    import dataclasses

    from valueprover import cli, trainer

    # the parser reads its defaults from TrainerConfig, so it is built first
    args = cli.build_parser().parse_args(["train", "--corpus", "c", "--out", "m"])
    passed = []
    monkeypatch.setattr(cli, "TrainerConfig", lambda **settings: passed.append(set(settings)))
    cli._config_from_args(args)
    fields = {f.name for f in dataclasses.fields(trainer.TrainerConfig)}
    assert fields == passed[0] | {"actor_count"}
    # the sweeps of ablate vary fields
    assert {field for rows in cli._SWEEPS.values() for change, _ in rows for field in change} <= fields


def test_every_trainer_config_constant_is_read():
    # a TrainerConfig class constant that no package code reads changes
    # nothing when it is set, so it is deleted
    import ast

    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "valueprover").glob("*.py"))]
    (config,) = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "TrainerConfig"
    ]
    constants = {
        node.target.id
        for node in config.body
        if isinstance(node, ast.AnnAssign) and "ClassVar" in ast.unparse(node.annotation)
    }
    inside = {id(node) for node in ast.walk(config)}
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }
    assert "batch_size" in constants
    assert sorted(constants - read) == []


def _worker_counts(workload, tmp_path):
    """The deterministic counts of one benchmark pass per mode, run as
    bench/run.py starts them: the worker must still run on the package as it
    is, so every name it reads untraced must still exist."""
    import subprocess
    import sys

    outputs = {}
    for mode in ("pass", "traced"):
        command = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", "1"]
        command += ["--mode", mode, "--workdir", str(tmp_path)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        outputs[mode] = json.loads(done.stdout.strip().splitlines()[-1])
        assert outputs[mode]["errors"] == []
    assert "layers" in outputs["traced"] and "layers" not in outputs["pass"]
    return {mode: out["counts"] for mode, out in outputs.items()}


def test_the_benchmark_worker_runs_an_oracle_pass_with_and_without_the_tracer(tmp_path):
    # the tracer must change no result
    counts = _worker_counts("oracle", tmp_path)
    compared = ["provable", "length_sum"] + [name for name in counts["pass"] if name.startswith("corpus.")]
    assert len(compared) == 5
    assert [counts["traced"][name] for name in compared] == [counts["pass"][name] for name in compared]


def test_the_benchmark_worker_runs_search_and_train_passes_with_and_without_the_tracer(tmp_path):
    from valueprover.cli import EVAL_STRATEGIES

    counts = _worker_counts("search", tmp_path)
    quantities = ("nodes_expanded", "tactic_executions", "proved")
    compared = [(strategy, quantity) for strategy in EVAL_STRATEGIES for quantity in quantities]
    assert [counts["traced"][s][q] for s, q in compared] == [counts["pass"][s][q] for s, q in compared]
    assert all(counts["pass"][strategy]["proved"] > 0 for strategy in EVAL_STRATEGIES)

    counts = _worker_counts("train", tmp_path)
    compared = ["tasks", "episodes", "updates", "update_loss_sum", "replay", "true_target", "negative"]
    assert [counts["traced"][name] for name in compared] == [counts["pass"][name] for name in compared]


# The package functions that no CLI command enters, each with why it stays:
# an error path, public API, or the ROADMAP item that wires it in or removes it.
NOT_ENTERED_BY_THE_CLI = {
    "terms.parse_term": "public API: the inverse of format_term",
    "value_model.explore_obligation_graph": "pending item 4: calibrate wires it in",
    "value_model.tabular_value_iteration": "pending item 4: calibrate wires it in",
}

# Runs every subcommand, and one failing run per error path, under a
# profiler in a fresh process, so that no cache warmed by an earlier test
# skips a function; prints the package functions entered as a JSON list.
_REACH = r"""
import json
import sys
from pathlib import Path

out = sys.argv[1]
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import valueprover
from valueprover.cli import EVAL_STRATEGIES, main


def run(expected, *command):
    try:
        code = main(list(command))
    except SystemExit as exit:
        code = exit.code
    if code != expected:
        sys.exit(f"{' '.join(command)}: exit {code}, expected {expected}")


corpus, checkpoint = out + "/c.jsonl", out + "/m.ckpt"
training = ["--gamma", "0.9", "--width", "5", "--seed", "0", "--test-ratio", "0.25", "--pretrain-epochs", "20",
            "--min-drop-length", "0", "--max-drop-length", "9"]
run(0, "gen-corpus", "--seed", "0", "--counts", "6,4,3", "--out", corpus)
run(0, "pretrain", "--corpus", corpus, "--out", out + "/p.ckpt", *training)
run(0, "train", "--corpus", corpus, "--out", checkpoint, "--rl-epochs", "1", *training)
run(0, "eval", "--checkpoint", checkpoint, "--corpus", corpus, "--split", "test",
    "--strategies", ",".join(EVAL_STRATEGIES), "--budget", "64", "--out", out + "/report")
run(0, "prove", "--checkpoint", checkpoint, "--theorem", "|- Plus(Zero,Zero) = Zero", "--strategy", "astar",
    "--budget", "64", "--width", "5")
run(0, "oracle", "|- Plus(Zero,Zero) = Zero", "--depth", "6", "--gamma", "0.9")
for sweep in ("width", "gamma", "scorer", "obligation-training"):
    run(0, "ablate", "--sweep", sweep, "--corpus", corpus, "--out", out + "/" + sweep, "--rl-epochs", "1",
        "--budget", "64", *training)
run(2, "oracle", "|- Zero =", "--depth", "6", "--gamma", "0.9")
run(1, "prove", "--checkpoint", checkpoint, "--theorem", "|- Zero = Zero", "--budget", "-1")
with open(corpus, encoding="utf-8") as fh:
    lines = fh.read().splitlines()
record = json.loads(lines[0])
# one step past the closed goal, so replay raises
record.update(proof=record["proof"] + "; reflexivity", proof_length=record["proof_length"] + 1)
lines[0] = json.dumps(record, sort_keys=True)
with open(out + "/cut.jsonl", "w", encoding="utf-8") as fh:
    fh.write("\n".join(lines) + "\n")
run(2, "eval", "--checkpoint", checkpoint, "--corpus", out + "/cut.jsonl", "--budget", "64", "--out", out + "/cut")
sys.setprofile(None)
package = Path(valueprover.__file__).resolve().parent
paths = {code: Path(code.co_filename).resolve() for code in entered}
print(json.dumps(sorted(f"{path.stem}.{code.co_qualname}" for code, path in paths.items() if path.parent == package)))
"""


def _package_functions(package):
    """Every def and lambda in the package, as module.qualname."""
    import inspect
    import types

    found = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # class bodies are not optimized, and comprehensions are
                # named <listcomp>, <genexpr> and the like
                name = const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED and (name == "<lambda>" or not name.startswith("<")):
                    found.add(f"{module}.{const.co_qualname}")
                walk(const, module)

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def test_the_cli_enters_every_package_function_but_the_listed_ones(tmp_path):
    # code that only tests reach is either wired into a command or removed,
    # so a function nothing calls fails here, and so does a stale entry
    import os
    import subprocess
    import sys

    import valueprover

    package = Path(valueprover.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(package.parent), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _REACH, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    entered = set(json.loads(done.stdout.strip().splitlines()[-1]))
    never_entered = _package_functions(package) - entered
    assert never_entered == set(NOT_ENTERED_BY_THE_CLI)
