"""The benchmark's metric catalogue and the layer boundaries it traces.

Layers carry the ``src/repro`` package names. Each per-layer metric names
the end-to-end metric it should move and the workloads it is mapped to; a
workload not named should see no change. Timings are *self* time (a span's
duration minus its children's) unless the metric is a container, which
reports the whole duration.

:func:`install` wraps every traced entry point; :func:`reduce` turns spans
plus obs-registry counters into the per-layer values.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from tracer import Tracer, self_times


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    maps_to: str = ""
    workloads: tuple[str, ...] = ()
    #: the value must be > 0 on every mapped workload (a timing, or a count
    #: that real work always moves); other metrics need only be measured.
    positive: bool = True
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.15),
    Metric("items_per_s", "1/s", "higher", bound=0.25),
    Metric("latency_p50_ms", "ms", "lower", bound=0.25),
    Metric("latency_tail_ms", "ms", "lower", bound=0.25),
    Metric("quality", "ratio", "higher", bound=0.1),
)

_ALL = ("audit", "serve", "scale")

PER_LAYER: tuple[Metric, ...] = (
    Metric("datasets.generate_s", "s", "lower",
           "items_per_s on scale; setup_s on serve", _ALL),
    Metric("datasets.records", "count", "higher",
           "items_per_s on scale; setup_s on serve", _ALL),
    Metric("blocking.build_s", "s", "lower", "setup_s on serve", ("serve",)),
    Metric("blocking.search_s", "s", "lower",
           "latency_p50_ms, latency_tail_ms on serve", ("serve",)),
    Metric("blocking.insert_s", "s", "lower",
           "latency_tail_ms on serve", ("serve",)),
    Metric("blocking.inserts", "count", "higher",
           "latency_tail_ms on serve", ("serve",)),
    Metric("blocking.candidates_s", "s", "lower",
           "items_per_s, quality on scale", ("scale",)),
    Metric("blocking.candidates", "count", "lower",
           "items_per_s, quality on scale", ("scale",)),
    Metric("blocking.pairs_examined", "count", "lower",
           "items_per_s, quality on scale", ("scale",)),
    Metric("blocking.pc", "ratio", "higher",
           "items_per_s, quality on scale", ("scale",)),
    Metric("blocking.pq", "ratio", "higher",
           "items_per_s, quality on scale", ("scale",)),
    Metric("blocking.index_builds", "count", "lower",
           "setup_s on serve (must stay 1)", ("serve",)),
    Metric("text.extract_s", "s", "lower",
           "items_per_s on audit, scale; latency_p50_ms on serve", _ALL),
    Metric("text.kernel_pairs", "count", "lower",
           "items_per_s on audit, scale; latency_p50_ms on serve", _ALL),
    Metric("text.minhash_s", "s", "lower", "items_per_s on scale", ("scale",)),
    Metric("text.incidence_rebuilds", "count", "lower",
           "latency on serve (must stay 0 while serving)", ("serve",),
           positive=False),
    Metric("matchers.fit_s.dl", "s", "lower",
           "items_per_s, latency_* on audit", ("audit",)),
    Metric("matchers.fit_s.ml", "s", "lower",
           "items_per_s, latency_* on audit", ("audit",)),
    Metric("matchers.fit_s.linear", "s", "lower",
           "items_per_s, latency_* on audit", ("audit",)),
    Metric("matchers.predict_s", "s", "lower",
           "items_per_s on scale; latency_p50_ms on serve", ("scale", "serve")),
    Metric("matchers.pairs_predicted", "count", "lower",
           "items_per_s on scale; latency_p50_ms on serve", ("scale", "serve")),
    Metric("matchers.degraded", "count", "lower",
           "quality on audit (failed matchers)", ("audit",), positive=False),
    Metric("ml.fit_s", "s", "lower", "items_per_s on audit", ("audit",)),
    Metric("embeddings.embed_s", "s", "lower", "items_per_s on audit",
           ("audit",)),
    Metric("core.linearity_s", "s", "lower", "items_per_s on audit",
           ("audit",)),
    Metric("core.complexity_s", "s", "lower", "items_per_s on audit",
           ("audit",)),
    Metric("runtime.envelope_write_s", "s", "lower",
           "items_per_s on audit (cold); serve snapshots", ("audit", "serve")),
    Metric("runtime.envelope_writes", "count", "lower",
           "items_per_s on audit (cold); serve snapshots", ("audit", "serve")),
    Metric("runtime.journal_append_s", "s", "lower",
           "items_per_s on scale; latency_tail_ms on serve",
           ("scale", "serve")),
    Metric("runtime.journal_appends", "count", "lower",
           "items_per_s on scale; latency_tail_ms on serve",
           ("scale", "serve")),
    Metric("runtime.guard_checkpoint_s", "s", "lower", "items_per_s on scale",
           ("scale",)),
    Metric("runtime.retries", "count", "lower", "failed operations", _ALL,
           positive=False),
    Metric("runtime.failures", "count", "lower", "failed operations", _ALL,
           positive=False),
    Metric("serve.batch_s", "s", "lower",
           "latency_tail_ms, items_per_s on serve (container)", ("serve",)),
    Metric("serve.batch_size", "probes/call", "higher",
           "latency_tail_ms, items_per_s on serve (coalescing)", ("serve",)),
    Metric("serve.add_s", "s", "lower",
           "latency_tail_ms, items_per_s on serve", ("serve",)),
    Metric("serve.queue_wait_ms", "ms", "lower",
           "latency_tail_ms, items_per_s on serve", ("serve",)),
    Metric("serve.shed", "count", "lower",
           "latency_tail_ms, items_per_s on serve", ("serve",),
           positive=False),
    Metric("serve.deadline_exceeded", "count", "lower",
           "latency_tail_ms, items_per_s on serve", ("serve",),
           positive=False),
    Metric("serve.unloaded_p50_ms", "ms", "lower",
           "latency_tail_ms, items_per_s on serve", ("serve",)),
    Metric("scale.fit_s", "s", "lower", "items_per_s on scale (container)",
           ("scale",)),
    Metric("scale.shard_s", "s", "lower", "items_per_s on scale (container)",
           ("scale",)),
    Metric("loadgen.lateness_p99_ms", "ms", "lower",
           "none: a late generator, not a slow server", ("serve",),
           positive=False),
    Metric("obs.trace_overhead_pct", "%", "lower",
           "traced headline against untraced, per workload", _ALL,
           positive=False),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}

#: Per-layer metrics whose span time is reported whole (containers).
CONTAINERS = ("serve.batch_s", "scale.fit_s", "scale.shard_s")

#: obs-registry counters read into per-layer counts.
COUNTERS = {
    "text.kernel_pairs": "kernel.pairs",
    "blocking.pairs_examined": "blocking.ann.pairs_examined",
    "blocking.index_builds": "blocking.ann.index_builds",
    "text.incidence_rebuilds": "features.incidence_rebuilds",
    "runtime.retries": "policy.retry",
    "runtime.failures": "policy.failure",
}


def _records(_args, _kwargs, result) -> dict:
    left = getattr(result, "left", None)
    right = getattr(result, "right", None)
    if left is None or right is None:
        return {}
    return {"records": len(left) + len(right)}


def _count_arg(key: str, position: int):
    def describe(args, kwargs, _result) -> dict:
        value = args[position] if len(args) > position else None
        try:
            return {key: len(value)}
        except TypeError:
            return {}

    return describe


def _count_result(key: str):
    def describe(_args, _kwargs, result) -> dict:
        return {key: len(result)} if result is not None else {}

    return describe


def _blocking_eval(args, kwargs, result) -> dict:
    if result is None:
        return {}
    sources = args[1] if len(args) > 1 else kwargs["sources"]
    return {
        "matching": result.n_matching_candidates,
        "evaluated": result.n_candidates,
        "truth": sources.n_matches,
    }


def _fit_family(args, _kwargs, _result) -> dict:
    from repro.experiments.matcher_suite import family_of

    return {"family": family_of(args[0].name)}


def _probe_ids(args, kwargs):
    records = args[1] if len(args) > 1 else kwargs.get("records")
    return tuple(record.record_id for record in records)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    for module in (
        "repro.experiments.cli",
        "repro.experiments.runner",
        "repro.serve.frontend",
        "repro.scale.sweep",
        "repro.embeddings.provider",
        "repro.matchers.magellan",
        "repro.matchers.zeroer",
        "repro.matchers.deep",
        "repro.blocking.deepblocker",
        "repro.blocking.autoencoder",
    ):
        importlib.import_module(module)

    from repro.blocking.ann import AnnBlocker, GraphIndex, LshIndex
    from repro.blocking.qgram import QGramBlocker
    from repro.blocking.sorted_neighborhood import SortedNeighborhoodBlocker
    from repro.blocking.token import TokenBlocker
    from repro.embeddings.contextual import ContextualEmbedder
    from repro.embeddings.sentence import SentenceEmbedder
    from repro.embeddings.static import StaticEmbedder
    from repro.experiments.runner import ExperimentRunner
    from repro.matchers.base import Matcher
    from repro.ml.forest import RandomForest
    from repro.ml.gmm import GaussianMixture
    from repro.ml.knn import KNeighborsClassifier
    from repro.ml.logistic import LogisticRegression
    from repro.ml.mlp import MLPClassifier
    from repro.ml.scaling import MinMaxScaler, StandardScaler
    from repro.ml.svm import LinearSVM
    from repro.ml.tree import DecisionTree
    from repro.runtime.guard import ResourceGuard
    from repro.runtime.journal import CheckpointJournal
    from repro.scale.sweep import ShardedSweep
    from repro.serve.session import MatcherSession
    from repro.text.feature_store import FeatureStore

    fn = tracer.wrap_function
    method = tracer.wrap_method

    # datasets
    for module, attr in (
        ("repro.datasets.generator", "generate_shard"),
        ("repro.datasets.established", "build_established_task"),
        ("repro.datasets.sources", "build_source_pair"),
    ):
        fn(module, attr, "datasets.generate_s", _records)
    fn("repro.datasets.generator", "build_task_from_sources",
       "datasets.generate_s")

    # blocking
    fn("repro.blocking.factory", "make_index", "blocking.build_s")
    for index_class in (GraphIndex, LshIndex):
        method(index_class, "search", "blocking.search_s")
        method(index_class, "insert", "blocking.insert_s",
               _count_arg("inserts", 1))
    for blocker in (AnnBlocker, QGramBlocker, TokenBlocker,
                    SortedNeighborhoodBlocker):
        method(blocker, "candidates", "blocking.candidates_s",
               _count_result("candidates"))
    fn("repro.blocking.base", "evaluate_blocking", "blocking.candidates_s",
       _blocking_eval)

    # text
    for attr in ("matrix", "rows", "set_similarities",
                 "set_similarities_indexed"):
        method(FeatureStore, attr, "text.extract_s")
    for attr in ("set_similarity_matrix", "set_similarity_matrix_packed",
                 "set_similarity_matrix_indexed"):
        fn("repro.text.kernels", attr, "text.extract_s")
    fn("repro.text.kernels", "minhash_signatures", "text.minhash_s")

    # matchers, ml, embeddings
    method(Matcher, "fit", lambda attrs: f"matchers.fit_s.{attrs['family']}",
           _fit_family)
    method(Matcher, "predict", "matchers.predict_s", _count_arg("pairs", 1))
    for estimator in (RandomForest, GaussianMixture, KNeighborsClassifier,
                      LogisticRegression, MLPClassifier, LinearSVM,
                      DecisionTree, StandardScaler, MinMaxScaler):
        method(estimator, "fit", "ml.fit_s")
    for attr in ("language_model_for_task", "static_embedder_for_task",
                 "contextual_embedder_for_task", "sentence_embedder_for_task"):
        fn("repro.embeddings.provider", attr, "embeddings.embed_s")
    for embedder, attrs in (
        (StaticEmbedder, ("embed_tokens", "embed_text", "embed_attribute",
                          "embed_record")),
        (ContextualEmbedder, ("embed_sequence", "embed_text",
                              "embed_attribute", "embed_record")),
        (SentenceEmbedder, ("fit", "embed_text", "embed_attribute",
                            "embed_record")),
    ):
        for attr in attrs:
            method(embedder, attr, "embeddings.embed_s")

    # core
    fn("repro.core.linearity", "linearity_profile", "core.linearity_s")
    fn("repro.core.complexity.profile", "complexity_profile",
       "core.complexity_s")

    # runtime
    fn("repro.runtime.cache", "write_envelope", "runtime.envelope_write_s")
    method(CheckpointJournal, "mark_done", "runtime.journal_append_s")
    method(ResourceGuard, "checkpoint", "runtime.guard_checkpoint_s")

    # serve
    method(MatcherSession, "query_batch", "serve.batch_s",
           _count_arg("batch_size", 1), rid=_probe_ids)
    method(MatcherSession, "add_records", "serve.add_s")

    # experiments: no metric of their own; they give each audited
    # dataset's spans its request id.
    for attr in ("matcher_results", "assessment"):
        method(ExperimentRunner, attr, None,
               rid=lambda args, kwargs: args[1])

    # scale: the sweep's fit and per-shard phases have no public entry
    # point, so its two private phase methods are the boundary.
    method(ShardedSweep, "_fitted_payload", "scale.fit_s")
    method(ShardedSweep, "_run_shard", "scale.shard_s",
           rid=lambda args, kwargs: f"shard-{args[1]}")


def reduce(spans: list, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer values from spans and obs counters (client extras added later)."""
    own = self_times(spans)
    values: dict[str, float] = {}
    totals: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        totals[key] = totals.get(key, 0.0) + amount

    names = {span[0]: span[2] for span in spans}
    batch_sizes: list[int] = []
    for span in spans:
        span_id, _name, metric, start, end, parent, _rid, attrs = span
        if metric is None:
            continue
        seconds = end - start if metric in CONTAINERS else own[span_id]
        add(metric, seconds)
        outermost = names.get(parent) != metric
        if "records" in attrs and outermost:
            add("datasets.records", attrs["records"])
        if "inserts" in attrs:
            add("blocking.inserts", attrs["inserts"])
        if "candidates" in attrs:
            add("blocking.candidates", attrs["candidates"])
        if "matching" in attrs:
            add("_matching", attrs["matching"])
            add("_evaluated", attrs["evaluated"])
            add("_truth", attrs["truth"])
        if "pairs" in attrs and outermost:
            add("matchers.pairs_predicted", attrs["pairs"])
        if "batch_size" in attrs:
            batch_sizes.append(attrs["batch_size"])
        if metric == "runtime.envelope_write_s":
            add("runtime.envelope_writes", 1)
        if metric == "runtime.journal_append_s":
            add("runtime.journal_appends", 1)

    for metric in PER_LAYER:
        if metric.name in totals:
            values[metric.name] = totals[metric.name]
    if totals.get("_truth"):
        values["blocking.pc"] = totals["_matching"] / totals["_truth"]
    if totals.get("_evaluated"):
        values["blocking.pq"] = totals["_matching"] / totals["_evaluated"]
    if batch_sizes:
        values["serve.batch_size"] = sum(batch_sizes) / len(batch_sizes)
    for name, counter in COUNTERS.items():
        values[name] = float(counters.get(counter, 0.0))
    return values
