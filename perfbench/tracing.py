"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: the program's
modules import their collaborators by name, so :func:`instrument` wraps
each function where it is *used* (for example ``simulate`` inside
``repro.core.tuner``) and restores the originals on exit. Spans live in
memory and are written out once the run ends.

A span's self time is its duration minus the durations of its direct
children (calls nest on one thread, so children never overlap).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span
    process: int | None = None  # tuning-process id shared by its spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; ``process=True`` opens a new tuning-process
    id that every span nested inside it shares."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._processes = 0

    def open(self, name: str, *, process: bool = False, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        if process:
            self._processes += 1
            pid = self._processes
        else:
            pid = self.spans[parent].process if parent is not None else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, process=pid, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, *, process: bool = False, **attrs):
        idx = self.open(name, process=process, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to a counter on the innermost open span."""
        if self._stack:
            attrs = self.spans[self._stack[-1]].attrs
            attrs[key] = attrs.get(key, 0) + n

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullRecorder:
    """The untraced run's recorder: spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name: str, *, process: bool = False, **attrs):
        yield None


def span_self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s``."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, span_self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        agg["total_s"] += s.duration
    return out


def descendants_by_root(spans: list[Span], root_name: str) -> dict[int, list[int]]:
    """Map each span named ``root_name`` to the indices of every span
    nested (at any depth) inside it."""
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        j = s.parent
        while j is not None:
            if spans[j].name == root_name:
                out.setdefault(j, []).append(i)
                break
            j = spans[j].parent
    for i, s in enumerate(spans):
        if s.name == root_name:
            out.setdefault(i, [])
    return out


# -- instrumentation ----------------------------------------------------------

#: (module, attribute, span name): functions wrapped where they are used.
FUNCTION_SITES = [
    ("repro.core.tuner", "simulate", "engine.simulate"),
    ("repro.history", "simulate", "engine.simulate"),
    ("repro.baselines.ds2", "simulate", "engine.simulate"),
    ("repro.baselines.conttune", "simulate", "engine.simulate"),
    ("repro.baselines.zerotune", "simulate", "engine.simulate"),
    ("repro.core.tuner", "label_operators", "bottleneck.label_operators"),
    ("repro.history", "label_operators", "bottleneck.label_operators"),
    ("repro.core.tuner", "min_safe_parallelism", "monotonic.min_safe_parallelism"),
    ("repro.core.tuner", "op_vectors", "pretrain.op_vectors"),
    ("repro.core.pretrain", "pretrain", "pretrain.pretrain"),
    ("repro.core.pretrain", "kmeans_ged", "graphs.kmeans_ged"),
    ("repro.core.pretrain", "nearest_center", "graphs.nearest_center"),
    ("repro.graphs.clustering", "similarity_center", "graphs.similarity_center"),
    ("repro.graphs.similarity", "ged", "graphs.ged"),
    ("repro.graphs.similarity", "ged_within", "graphs.ged"),
    ("repro.graphs.ged", "ged", "graphs.ged"),
    ("repro.graphs.ged", "ged_within", "graphs.ged"),
]

#: (module, class, method, span name); ``process`` marks one tuning process.
METHOD_SITES = [
    ("repro.core.features", "FeatureEncoder", "encode_dag", "features.encode_dag", False),
    ("repro.core.gnn", "GNN", "embed", "gnn.embed", False),
    ("repro.core.pretrain", "PretrainedBundle", "warmup_dataset", "pretrain.warmup_dataset", False),
    ("repro.core.monotonic", "MonotoneGBDT", "fit", "monotonic.gbdt_fit", False),
    ("repro.core.monotonic", "MonotoneSVM", "fit", "monotonic.svm_fit", False),
    ("repro.core.tuner", "StreamTuneTuner", "__init__", "tuner.streamtune.init", False),
    ("repro.core.tuner", "StreamTuneTuner", "tune", "tuner.streamtune.tune", True),
    ("repro.baselines.ds2", "DS2Tuner", "tune", "baselines.ds2.tune", True),
    ("repro.baselines.conttune", "ContTuneTuner", "tune", "baselines.conttune.tune", True),
    ("repro.baselines.zerotune", "ZeroTuneTuner", "tune", "baselines.zerotune.tune", True),
]

#: Methods only counted on the innermost open span (too many for spans).
COUNTED_SITES = [
    ("repro.core.monotonic", "MonotoneGBDT", "predict_proba", "predict_proba"),
    ("repro.core.monotonic", "MonotoneSVM", "predict_proba", "predict_proba"),
]


def _spanned(rec: Recorder, fn, name, process: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name(args) if callable(name) else name, process=process)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _counted(rec: Recorder, fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _gnn_fit_name(args) -> str:
    # ZeroTune's cost model is the only graph-level regression GNN.
    return "baselines.zerotune.fit" if args[0].head == "graph_reg" else "gnn.fit"


def _count_len(rec: Recorder, fn, key: str, pos: int):
    """Add the length of positional argument ``pos`` to ``key`` on the
    innermost open span (rows of an M_f fit, samples of a GNN fit)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(key, len(args[pos]))
        return fn(*args, **kwargs)

    return wrapper


def per_call_overhead(n: int = 20000) -> tuple[float, float]:
    """Seconds that one spanned call and one counted call add over a bare
    call, measured on a no-op function with a scratch recorder."""

    def noop():
        return None

    rec = Recorder()

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    bare = per_call(noop)
    span_cost = per_call(_spanned(rec, noop, "x", False)) - bare
    with rec.span("outer"):
        count_cost = per_call(_counted(rec, noop, "x")) - bare
    return span_cost, count_cost


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap every site above for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod, attr, name in FUNCTION_SITES:
            owner = importlib.import_module(mod)
            patch(owner, attr, _spanned(rec, getattr(owner, attr), name, False))
        for mod, cls_name, meth, key in COUNTED_SITES:
            cls = getattr(importlib.import_module(mod), cls_name)
            patch(cls, meth, _counted(rec, getattr(cls, meth), key))
        for mod, cls_name, meth, name, process in METHOD_SITES:
            cls = getattr(importlib.import_module(mod), cls_name)
            fn = getattr(cls, meth)
            if meth == "fit" and cls_name.startswith("Monotone"):
                fn = _count_len(rec, fn, "rows", 3)  # fit(self, h, p, y): inside the span
            patch(cls, meth, _spanned(rec, fn, name, process))
        gnn_cls = importlib.import_module("repro.core.gnn").GNN
        patch(gnn_cls, "fit", _spanned(rec, _count_len(rec, gnn_cls.fit, "samples", 1), _gnn_fit_name, False))
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
