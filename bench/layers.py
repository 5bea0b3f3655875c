"""Per-layer tracing for the benchmark's traced runs.

The tracer never edits the package: it replaces functions at the module
(or class) through which they are called, for example `trainer.bellman_target`
or `Obligation.canonical`, with a wrapper that counts calls, busy seconds and
`TacticError` raises. Busy seconds are inclusive: a span contains the spans
of the functions it calls. Counters live in per-thread tables, so the actor
threads of the distributed trainer never lose an update; they are merged
when the metrics are read. LRU hit rates come from `cache_info()`.
"""

from __future__ import annotations

import threading
import time

from valueprover import corpus, encoder, env, oracle, predictor, search, trainer, value_model
from valueprover.cli import EVAL_STRATEGIES

# The LRU caches whose hit rates are reported, captured before any wrapping.
_LRU_CACHES = {"apply_tactic": env.apply_tactic, "encode_hashed": encoder._hashed_vector}

# Every per-layer metric, in BENCHMARK.json order. A workload that does not
# reach a layer reports 0 for it.
LAYER_METRICS = (
    [
        "value_model.bellman_target.calls",
        "value_model.bellman_target.s",
        "value_model.bellman_target.share",
        "value_model.update_batch.calls",
        "value_model.update_batch.s",
        "value_model.pretrain.s",
        "value_model.v_value.calls",
        "value_model.v_value.hit_rate",
        "value_model.encoding_cache.size",
        "predictor.predict_top_n.calls",
        "predictor.predict_top_n.s",
        "predictor.featurize.calls",
        "predictor.featurize.s",
        "predictor.train_predictor.s",
        "env.canonical.calls",
        "env.canonical.s",
        "env.canonical_key.calls",
        "env.canonical_key.s",
        "env.apply_tactic.calls",
        "env.apply_tactic.s",
        "env.apply_tactic.hit_rate",
        "env.apply_tactic.errors",
        "env.step_hyperstate.calls",
        "env.step_hyperstate.s",
        "terms.normalize.calls",
        "terms.normalize.s",
        "terms.format_term.calls",
        "terms.format_term.s",
        "encoder.encode_hashed.calls",
        "encoder.encode_hashed.s",
        "encoder.encode_hashed.hit_rate",
    ]
    + [
        f"search.{strategy}.{quantity}"
        for strategy in EVAL_STRATEGIES
        for quantity in ("calls", "s", "nodes_expanded", "tactic_executions", "failed")
    ]
    + [
        "oracle.shortest_proof.calls",
        "oracle.shortest_proof.s",
        "oracle.reproducible_under_predictor.calls",
        "oracle.reproducible_under_predictor.s",
        "corpus.generate_corpus.s",
        "corpus.discarded",
        "trainer.prepare_tasks.s",
        "trainer.run_episode.calls",
        "trainer.run_episode.s",
        "trainer.validation.s",
        "trainer.episodes",
        "trainer.updates",
        "trainer.tasks",
        "trainer.buffer.replay",
        "trainer.buffer.true_target",
        "trainer.buffer.negative",
        "trainer.learner.busy_s",
        "trainer.actor.busy_s",
        "trainer.snapshots",
        "bench.setup.s",
        "bench.pass.s",
        "trace.overhead_s",
        "trace.overhead_frac",
    ]
)

# (owner, attribute, span name): every place a traced function is called from.
_WRAPPED = (
    (trainer, "bellman_target", "value_model.bellman_target"),
    (value_model.ValueModel, "update_batch", "value_model.update_batch"),
    (trainer, "pretrain", "value_model.pretrain"),
    (search, "predict_top_n", "predictor.predict_top_n"),
    (trainer, "predict_top_n", "predictor.predict_top_n"),
    (value_model, "predict_top_n", "predictor.predict_top_n"),
    (predictor, "predict_top_n", "predictor.predict_top_n"),  # oracle imports it per call
    (predictor, "featurize", "predictor.featurize"),
    (predictor, "train_predictor", "predictor.train_predictor"),
    (env.Obligation, "canonical", "env.canonical"),
    (env.Hyperstate, "canonical_key", "env.canonical_key"),
    (env, "apply_tactic", "env.apply_tactic"),
    (trainer, "apply_tactic", "env.apply_tactic"),
    (value_model, "apply_tactic", "env.apply_tactic"),
    (search, "step_hyperstate", "env.step_hyperstate"),
    (oracle, "step_hyperstate", "env.step_hyperstate"),
    (env, "step_hyperstate", "env.step_hyperstate"),
    (env, "normalize", "terms.normalize"),
    (env, "format_term", "terms.format_term"),
    (encoder, "encode_hashed", "encoder.encode_hashed"),
    (oracle, "shortest_proof", "oracle.shortest_proof"),
    (corpus, "shortest_proof", "oracle.shortest_proof"),
    (trainer, "reproducible_under_predictor", "oracle.reproducible_under_predictor"),
    (corpus, "generate_corpus", "corpus.generate_corpus"),
    (trainer, "prepare_tasks", "trainer.prepare_tasks"),
    (trainer, "run_episode", "trainer.run_episode"),
    (trainer, "_validation_success", "trainer.validation"),
    (trainer._Learner, "update_once", "trainer.learner"),
    (trainer._Learner, "ingest", "trainer.learner"),
)


class Tracer:
    """Counts calls, busy seconds and TacticErrors per span name."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._cache_start = {}
        self._params_set: dict[int, int] = {}
        self._frozen: dict[str, float] | None = None

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def add(self, name: str, seconds: float, error: bool = False) -> None:
        row = self._table().setdefault(name, [0, 0.0, 0])
        row[0] += 1
        row[1] += seconds
        if error:
            row[2] += 1

    def totals(self) -> dict[str, list]:
        merged: dict[str, list] = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, seconds, errors) in table.items():
                    row = merged.setdefault(name, [0, 0.0, 0])
                    row[0] += calls
                    row[1] += seconds
                    row[2] += errors
        return merged

    def _wrap(self, function, name: str):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            started = clock()
            error = False
            try:
                return function(*args, **kwargs)
            except env.TacticError:
                error = True
                raise
            finally:
                tracer.add(name, clock() - started, error)

        return traced

    def install(self) -> None:
        """Wrap every traced call site and snapshot the LRU counters."""
        for owner, attribute, name in _WRAPPED:
            setattr(owner, attribute, self._wrap(getattr(owner, attribute), name))
        self._patch_value_model()
        self._cache_start = {key: cache.cache_info() for key, cache in _LRU_CACHES.items()}

    def _patch_value_model(self) -> None:
        # v_value: a call that adds a cache entry ran a forward pass.
        # set_flat_params: counted per model, to find actor snapshot adoptions.
        model_class = value_model.ValueModel
        v_value = model_class.v_value
        set_flat_params = model_class.set_flat_params
        traced_v_value = self._wrap(v_value, "value_model.v_value")
        tracer = self

        def counted_v_value(model, ob):
            before = len(model._value_cache)
            value = traced_v_value(model, ob)
            if len(model._value_cache) == before:
                tracer.add("value_model.v_value.hit", 0.0)
            return value

        def counted_set_flat_params(model, flat):
            with tracer._lock:
                tracer._params_set[id(model)] = tracer._params_set.get(id(model), 0) + 1
            return set_flat_params(model, flat)

        model_class.v_value = counted_v_value
        model_class.set_flat_params = counted_set_flat_params

    def _cache_hit_rate(self, key: str) -> float:
        start = self._cache_start[key]
        info = _LRU_CACHES[key].cache_info()
        hits = info.hits - start.hits
        misses = info.misses - start.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def snapshot_adoptions(self, learner_model) -> int:
        """Parameter snapshots adopted by actor-local models; each model's
        first set_flat_params call is its initial copy, not a snapshot."""
        with self._lock:
            return sum(
                count - 1 for model_id, count in self._params_set.items() if model_id != id(learner_model)
            )

    def stop(self) -> None:
        """Freeze the metrics at the end of the timed pass, so that the
        benchmark's own checks after it are not counted."""
        self._frozen = self.metrics()

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry this tracer measures; the caller fills in
        the workload-level counts."""
        if self._frozen is not None:
            return dict(self._frozen)
        totals = self.totals()
        out = {name: 0 for name in LAYER_METRICS}
        for name, (calls, seconds, errors) in totals.items():
            if name == "trainer.learner":
                out["trainer.learner.busy_s"] = seconds
                continue
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = calls
            if f"{name}.s" in out:
                out[f"{name}.s"] = seconds
            if f"{name}.errors" in out:
                out[f"{name}.errors"] = errors
        out["trainer.actor.busy_s"] = out["trainer.run_episode.s"]
        v_calls = out["value_model.v_value.calls"]
        v_hits = totals.get("value_model.v_value.hit", [0])[0]
        out["value_model.v_value.hit_rate"] = v_hits / v_calls if v_calls else 0.0
        out["env.apply_tactic.hit_rate"] = self._cache_hit_rate("apply_tactic")
        out["encoder.encode_hashed.hit_rate"] = self._cache_hit_rate("encode_hashed")
        return out
