"""Per-layer metrics from the spans of one traced cycle (set-up plus one
online pass). ``.calls`` is a count and ``.s`` is self time, unless the
name says otherwise; layers a workload does not run read 0."""
from __future__ import annotations

from perfbench.tracing import Span, descendants_by_root, self_times, span_self_times

#: metric → (span name, field, unit)
SPAN_METRICS = {
    "engine.simulate.calls": ("engine.simulate", "calls", "count"),
    "engine.simulate.s": ("engine.simulate", "self_s", "s"),
    "engine.epoch_latencies.s": ("engine.epoch_latencies", "self_s", "s"),
    "bottleneck.label_operators.calls": ("bottleneck.label_operators", "calls", "count"),
    "bottleneck.label_operators.s": ("bottleneck.label_operators", "self_s", "s"),
    # Spark runs the deployments in worker processes, out of the tracer's
    # sight, so the sweep is reported whole on both executors.
    "history.generate.s": ("history.generate", "total_s", "s"),
    "features.encode_dag.calls": ("features.encode_dag", "calls", "count"),
    "features.encode_dag.s": ("features.encode_dag", "self_s", "s"),
    "gnn.fit.s": ("gnn.fit", "self_s", "s"),
    "gnn.embed.calls": ("gnn.embed", "calls", "count"),
    "gnn.embed.s": ("gnn.embed", "self_s", "s"),
    "graphs.ged.calls": ("graphs.ged", "calls", "count"),
    "graphs.ged.s": ("graphs.ged", "self_s", "s"),
    "graphs.kmeans_ged.s": ("graphs.kmeans_ged", "self_s", "s"),
    "graphs.similarity_center.s": ("graphs.similarity_center", "self_s", "s"),
    "graphs.nearest_center.calls": ("graphs.nearest_center", "calls", "count"),
    "graphs.nearest_center.s": ("graphs.nearest_center", "self_s", "s"),
    "pretrain.pretrain.s": ("pretrain.pretrain", "self_s", "s"),
    "pretrain.warmup_dataset.calls": ("pretrain.warmup_dataset", "calls", "count"),
    "pretrain.warmup_dataset.s": ("pretrain.warmup_dataset", "self_s", "s"),
    "pretrain.op_vectors.calls": ("pretrain.op_vectors", "calls", "count"),
    "pretrain.op_vectors.s": ("pretrain.op_vectors", "self_s", "s"),
    "monotonic.gbdt_fit.calls": ("monotonic.gbdt_fit", "calls", "count"),
    "monotonic.gbdt_fit.s": ("monotonic.gbdt_fit", "self_s", "s"),
    "monotonic.svm_fit.calls": ("monotonic.svm_fit", "calls", "count"),
    "monotonic.svm_fit.s": ("monotonic.svm_fit", "self_s", "s"),
    "monotonic.min_safe_parallelism.calls": ("monotonic.min_safe_parallelism", "calls", "count"),
    "monotonic.min_safe_parallelism.s": ("monotonic.min_safe_parallelism", "self_s", "s"),
    "tuner.streamtune.init.s": ("tuner.streamtune.init", "self_s", "s"),
    "tuner.streamtune.tune.calls": ("tuner.streamtune.tune", "calls", "count"),
    "tuner.streamtune.tune.s": ("tuner.streamtune.tune", "self_s", "s"),
    "tuner.streamtune.tune.total_s": ("tuner.streamtune.tune", "total_s", "s"),
    "baselines.ds2.tune.calls": ("baselines.ds2.tune", "calls", "count"),
    "baselines.ds2.tune.s": ("baselines.ds2.tune", "self_s", "s"),
    "baselines.conttune.tune.calls": ("baselines.conttune.tune", "calls", "count"),
    "baselines.conttune.tune.s": ("baselines.conttune.tune", "self_s", "s"),
    "baselines.zerotune.tune.calls": ("baselines.zerotune.tune", "calls", "count"),
    "baselines.zerotune.tune.s": ("baselines.zerotune.tune", "self_s", "s"),
    "baselines.zerotune.fit.s": ("baselines.zerotune.fit", "self_s", "s"),
}

#: Metrics computed from counters, results and run facts: name → unit.
DERIVED_UNITS = {
    "history.deployments": "count",
    "history.deployments_per_s": "1/s",
    "history.local_reference.s": "s",
    "history.spark_session_start_s": "s",
    "gnn.fit.samples": "count",
    "gnn.train_acc": "ratio",
    "graphs.clusters": "count",
    "monotonic.fit_rows_mean": "rows",
    "monotonic.predict_proba.calls": "count",
    "monotonic.probes_per_search": "count",
    "tuner.streamtune.deploys_per_process": "count",
    "tuner.streamtune.fits_per_process": "ratio",
    "tuner.streamtune.decision_ms_p75": "ms",
    "result.failed_share": "ratio",
    "trace.overhead_s": "s",
    "host.contention": "ratio",
}

METHODS = ("DS2", "ContTune", "ZeroTune", "StreamTune")
CELL_UNITS = {
    "backpressure_events": "count",
    "parallelism_at_10x": "slots",
    "reconfigs_per_process": "count",
    "unconverged": "count",
}
#: Fig. 8's latency is simulated time, not a measured wall time.
EPOCH_LATENCY = ("result.StreamTune.epoch_latency_p99", "sim_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
    units |= DERIVED_UNITS
    for method in METHODS:
        for cell, unit in CELL_UNITS.items():
            units[f"result.{method}.{cell}"] = unit
    units[EPOCH_LATENCY[0]] = EPOCH_LATENCY[1]
    return units


def _sum_attr(spans: list[Span], name: str, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def layer_values(spans: list[Span], facts: dict[str, float], cells: dict[str, dict]) -> dict[str, float]:
    """Values for :func:`metric_units`. ``facts`` carries what spans do not
    see: history size, Spark start-up, local reference time, clusters,
    encoder accuracy, StreamTune's p75 decision time, failed share, tracing
    overhead and the host's contention during the pass."""
    agg = self_times(spans)
    values: dict[str, float] = {}
    for name, (span, fld, _) in SPAN_METRICS.items():
        values[name] = agg.get(span, {}).get(fld, 0)

    def calls(name: str) -> int:
        return int(agg.get(name, {}).get("calls", 0))

    gen_s = values["history.generate.s"]
    values["history.deployments"] = facts["history_records"]
    values["history.deployments_per_s"] = facts["history_records"] / gen_s if gen_s else 0.0
    values["history.local_reference.s"] = facts.get("local_reference_s", 0.0)
    values["history.spark_session_start_s"] = facts.get("spark_start_s", 0.0)
    values["gnn.fit.samples"] = _sum_attr(spans, "gnn.fit", "samples")
    values["gnn.train_acc"] = facts["train_acc"]
    values["graphs.clusters"] = facts["clusters"]
    fits = calls("monotonic.gbdt_fit") + calls("monotonic.svm_fit")
    rows = _sum_attr(spans, "monotonic.gbdt_fit", "rows") + _sum_attr(spans, "monotonic.svm_fit", "rows")
    values["monotonic.fit_rows_mean"] = rows / fits if fits else 0.0
    values["monotonic.predict_proba.calls"] = sum(s.attrs.get("predict_proba", 0) for s in spans)
    searches = calls("monotonic.min_safe_parallelism")
    probes = _sum_attr(spans, "monotonic.min_safe_parallelism", "predict_proba")
    values["monotonic.probes_per_search"] = probes / searches if searches else 0.0

    inside = descendants_by_root(spans, "tuner.streamtune.tune")
    n_tune = len(inside)
    nested = [spans[i].name for kids in inside.values() for i in kids]
    values["tuner.streamtune.deploys_per_process"] = nested.count("engine.simulate") / n_tune if n_tune else 0.0
    values["tuner.streamtune.fits_per_process"] = (
        (nested.count("monotonic.gbdt_fit") + nested.count("monotonic.svm_fit")) / n_tune if n_tune else 0.0
    )
    values["tuner.streamtune.decision_ms_p75"] = facts["decision_ms_p75"]
    values["result.failed_share"] = facts["failed_share"]
    values["trace.overhead_s"] = facts["overhead_s"]
    values["host.contention"] = facts["contention"]
    for method in METHODS:
        for cell in CELL_UNITS:
            values[f"result.{method}.{cell}"] = cells.get(method, {}).get(cell, 0)
    values[EPOCH_LATENCY[0]] = cells.get("StreamTune", {}).get("epoch_latency_p99_s", 0.0)
    return values


def streamtune_accounting(spans: list[Span]) -> dict[str, float]:
    """Where StreamTune's online time went: self time per span name over
    its tuning processes (the tune span's own self time is the tuner's
    remainder), and ``total``, their summed duration."""
    own = span_self_times(spans)
    out: dict[str, float] = {}
    inside = descendants_by_root(spans, "tuner.streamtune.tune")
    for root, kids in inside.items():
        for i in (root, *kids):
            out[spans[i].name] = out.get(spans[i].name, 0.0) + own[i]
    out["total"] = sum(spans[root].duration for root in inside)
    return out
