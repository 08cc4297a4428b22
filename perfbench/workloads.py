"""The benchmark's two workloads, built from the public harness only:
``repro.history``, ``repro.core.pretrain``, the four tuners,
``repro.core.tuner.run_pattern`` and ``repro.tables``.

Every workload is a closed loop over the paper's periodic source-rate
pattern: ``run_pattern`` issues the next rate change only after the
previous tuning process returns, and each tuner carries its deployed
parallelism forward (§V-A). An input seed (``input_seed``, drawn from the
workload seed) seeds the rate pattern and the history configurations;
tuners and pre-training keep the harness's fixed seeds, so one seed always
gives the same results.
"""
from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from perfbench.checks import parallelism_errors

#: The harness's tuner seed (``EvalConfig.seed``) and pre-training seed.
TUNER_SEED = 3
PRETRAIN_SEED = 0


def input_seed(seed: int, i: int) -> int:
    """The seed of the ``i``-th set-up and online pass of a run with
    workload seed ``seed``: distinct for every (seed, i) with i < 1000."""
    return 1000 * seed + i


@dataclass(frozen=True)
class Config:
    """One system's part of a workload: its history, pre-training, M_f
    and the jobs tuned online."""

    name: str
    system: str
    jobs: tuple[str, ...]  # tuned online, in this order
    history_jobs: tuple[str, ...] | None  # None: the whole catalogue
    history_per_job: int
    epochs: int  # GNN encoder and ZeroTune cost-model epochs
    model_kind: str  # StreamTune's M_f: "xgboost" (GBDT) or "svm"
    k: int  # 1: one global encoder; more: GED clusters, one encoder each
    methods: tuple[str, ...]
    spark: bool = False
    fig8_epochs: int = 0  # Timely per-epoch latencies at 10·W_u (Fig. 8)


@dataclass(frozen=True)
class Workload:
    """What one invocation runs: its parts are set up, then tuned, one
    after another, and timed together."""

    name: str
    parts: tuple[Config, ...]
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    #: The first ``passes`` set-ups are each followed by an online pass.
    passes: int

    @property
    def spark(self) -> bool:
        return any(part.spark for part in self.parts)


FLINK_ONLINE = Config(
    name="flink",
    system="flink",
    jobs=("pqp_3way_0",),
    history_jobs=("nexmark_q8", "pqp_3way_0"),
    history_per_job=40,
    epochs=10,
    model_kind="xgboost",
    k=1,
    methods=("DS2", "ContTune", "ZeroTune", "StreamTune"),
)
TIMELY_ONLINE = Config(
    name="timely",
    system="timely",
    jobs=("nexmark_q5",),
    history_jobs=("nexmark_q3", "nexmark_q5", "nexmark_q8"),
    history_per_job=40,
    epochs=10,
    model_kind="xgboost",
    k=1,
    methods=("DS2", "ContTune", "StreamTune"),
    fig8_epochs=200,
)
FLINK_OFFLINE = Config(
    name="flink",
    system="flink",
    jobs=("pqp_2way_0", "pqp_linear_0", "pqp_3way_5"),
    history_jobs=None,
    history_per_job=4,
    epochs=5,
    model_kind="svm",
    k=2,
    methods=("DS2", "ContTune", "ZeroTune", "StreamTune"),
    spark=True,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("online", (FLINK_ONLINE, TIMELY_ONLINE), setups=5, passes=1),
        Workload("offline", (FLINK_OFFLINE,), setups=2, passes=2),
    )
}


@dataclass
class Prepared:
    """Everything one part's set-up hands to the online phase."""

    cfg: Config
    catalogue: dict
    history: list
    bundle: object
    zerotune_model: object | None
    tuners: dict[str, dict[str, object]]  # method → job → tuner
    phases: dict[str, float]  # phase → wall seconds
    warmup_rows: dict[str, int]  # job → StreamTune's warm-up dataset size


@dataclass
class Online:
    """One online pass: every tuning process of every method."""

    seconds: float = 0.0
    decisions: list[float] = field(default_factory=list)  # StreamTune tune() seconds
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: method → cell → value (Table III events, Fig. 6 slots, Fig. 7a).
    cells: dict[str, dict[str, float]] = field(default_factory=dict)


@contextlib.contextmanager
def _phase(rec, seconds: dict[str, float], name: str):
    """Wall time of one set-up phase, also a span when traced."""
    with rec.span(f"phase.setup.{name}"):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds[name] = time.perf_counter() - t0


def history_workloads(cfg: Config, catalogue: dict) -> list:
    names = cfg.history_jobs if cfg.history_jobs is not None else list(catalogue)
    return [catalogue[n] for n in names]


def setup(cfg: Config, seed: int, rec, spark=None) -> Prepared:
    """Catalogue, history, pre-training, the ZeroTune fit and tuner
    construction — everything before the first tuning process."""
    from repro import history as history_mod
    from repro.baselines.zerotune import ZeroTuneCostModel
    from repro.core import pretrain as pretrain_mod
    from repro.sim.workloads import P_MAX, full_catalogue

    phases: dict[str, float] = {}

    def phase(name: str):
        return _phase(rec, phases, name)

    with phase("catalogue"):
        cat = full_catalogue(cfg.system)
        wls = history_workloads(cfg, cat)
    with phase("history"), rec.span("history.generate"):
        if spark is not None:
            history = history_mod.generate_history(spark, wls, n_per_workload=cfg.history_per_job, seed=seed)
        else:
            history = history_mod.generate_history_local(wls, n_per_workload=cfg.history_per_job, seed=seed)
    with phase("pretrain"):
        if cfg.k == 1:
            bundle = pretrain_mod.pretrain_global(
                history, epochs=cfg.epochs, seed=PRETRAIN_SEED, p_max=P_MAX[cfg.system], system=cfg.system
            )
        else:
            bundle = pretrain_mod.pretrain(
                history, k=cfg.k, epochs=cfg.epochs, seed=PRETRAIN_SEED,
                p_max=P_MAX[cfg.system], system=cfg.system, spark=spark,
            )
    zt_model = None
    if "ZeroTune" in cfg.methods:
        with phase("zerotune_fit"):
            pqp_hist = [r for r in history if r.job.startswith("pqp")]
            zt_model = ZeroTuneCostModel(bundle.feature_encoder, seed=PRETRAIN_SEED).fit(
                pqp_hist, epochs=cfg.epochs, seed=PRETRAIN_SEED
            )
    with phase("tuners"):
        tuners = build_tuners(cfg, cat, bundle, zt_model)
    warmup_rows = {job: t.dataset_size for job, t in tuners.get("StreamTune", {}).items()}
    return Prepared(cfg, cat, history, bundle, zt_model, tuners, phases, warmup_rows)


def build_tuners(cfg: Config, cat: dict, bundle, zt_model) -> dict[str, dict[str, object]]:
    """A fresh tuner of every method for every job: method → job → tuner."""
    from repro.baselines.conttune import ContTuneTuner
    from repro.baselines.ds2 import DS2Tuner
    from repro.baselines.zerotune import ZeroTuneTuner
    from repro.core.tuner import StreamTuneTuner

    makers = {
        "DS2": lambda wl: DS2Tuner(wl, seed=TUNER_SEED),
        "ContTune": lambda wl: ContTuneTuner(wl, seed=TUNER_SEED),
        # ZeroTune is evaluated on PQP jobs only, as in the paper.
        "ZeroTune": lambda wl: ZeroTuneTuner(wl, zt_model, seed=TUNER_SEED) if wl.group != "nexmark" else None,
        # The tuner's default warm-up size: these histories hold fewer
        # labelled points than the 1800 of ``run_flink_evaluation``.
        "StreamTune": lambda wl: StreamTuneTuner(bundle, wl, model_kind=cfg.model_kind, seed=TUNER_SEED),
    }
    tuners: dict[str, dict[str, object]] = {}
    for method in cfg.methods:
        built = {job: makers[method](cat[job]) for job in cfg.jobs}
        tuners[method] = {job: t for job, t in built.items() if t is not None}
    return tuners


def setup_all(workload: Workload, seed: int, rec, spark=None) -> tuple[list[Prepared], dict[str, float]]:
    """Every part's set-up, and their phases as ``<part>.<phase>`` → s."""
    preps = [setup(part, seed, rec, spark=spark if part.spark else None) for part in workload.parts]
    phases = {f"{prep.cfg.name}.{name}": s for prep in preps for name, s in prep.phases.items()}
    return preps, phases


class _Probe:
    """Stands in for a tuner inside ``run_pattern``: times each tuning
    process, checks its output, and turns a crash into a recorded failure
    that keeps the current parallelism, so the closed loop goes on.

    A process that ends with ``converged=False`` (StreamTune gave up after
    ``max_iters`` deployments under backpressure) still deploys a valid
    configuration; it is counted as a result, like backpressure events,
    not as a failed operation."""

    def __init__(self, tuner, wl, out: Online, *, timed: bool) -> None:
        self.tuner, self.wl, self.out, self.timed = tuner, wl, out, timed
        self.unconverged = 0

    def tune(self, current, rates):
        from repro.core.tuner import TuneProcessResult

        self.out.attempted += 1
        t0 = time.perf_counter()
        try:
            res = self.tuner.tune(current, rates)
        except Exception:
            self.out.failures.append(f"{self.wl.name}: tune raised\n{traceback.format_exc()}")
            return TuneProcessResult(dict(current), 0, 0, 0, 0.0, converged=False)
        if self.timed:
            self.out.decisions.append(time.perf_counter() - t0)
        errors = parallelism_errors(res.final_parallelism, self.wl.dag.tunable_operators(), self.wl.p_max)
        if not res.converged:
            self.unconverged += 1
        if errors:
            self.out.failures.append(f"{self.wl.name}: {'; '.join(errors)}")
        return res


def online(preps: list[Prepared], seed: int, rec) -> Online:
    """Drive every method through the pattern on every job of every part;
    on Timely, add Fig. 8's per-epoch latencies at 10·W_u as the harness
    does. A method's cells are summed over all its jobs."""
    from repro import tables
    from repro.core.tuner import run_pattern
    from repro.sim import timely as timely_adapter
    from repro.sim.engine import epoch_latencies
    from repro.sim.source_rates import periodic_pattern

    out = Online()
    totals: dict[str, dict[str, float]] = {}
    p99: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    with rec.span("phase.online"):
        pattern = periodic_pattern(n_permutations=1, seed=seed)
        for prep in preps:
            cfg = prep.cfg
            for method, per_job in prep.tuners.items():
                t = totals.setdefault(method, dict.fromkeys(
                    ("backpressure_events", "parallelism_at_10x", "reconfigs", "unconverged", "processes"), 0
                ))
                for job, tuner in per_job.items():
                    wl = prep.catalogue[job]
                    probe = _Probe(tuner, wl, out, timed=method == "StreamTune")
                    st = run_pattern(probe, wl, pattern, method_name=method)
                    t["unconverged"] += probe.unconverged
                    t["backpressure_events"] += st.total_backpressure
                    t["parallelism_at_10x"] += st.final_parallelism_at[10]
                    t["reconfigs"] += st.total_reconfigs
                    t["processes"] += st.n_processes
                    if cfg.fig8_epochs:
                        with rec.span("harness.fig8_replay"):
                            vec = tables._final_parallelism_at_10(
                                wl, method, st, prep.bundle, cfg.model_kind, TUNER_SEED
                            )
                        errors = parallelism_errors(vec, wl.dag.tunable_operators(), wl.p_max)
                        if errors:
                            out.failures.append(f"{job} Fig. 8 replay: {'; '.join(errors)}")
                        with rec.span("engine.epoch_latencies"):
                            lat = epoch_latencies(
                                wl.dag, vec, wl.rates(10), n_epochs=cfg.fig8_epochs, seed=TUNER_SEED
                            )
                        p99.setdefault(method, []).append(timely_adapter.latency_percentiles(lat)["p99"])
    out.seconds = time.perf_counter() - t0
    for method, t in totals.items():
        reconfigs = t.pop("reconfigs")
        out.cells[method] = t | {"reconfigs_per_process": reconfigs / max(1, t["processes"])}
        if method in p99:
            out.cells[method]["epoch_latency_p99_s"] = max(p99[method])
    return out


def warm_up(preps: list[Prepared], seed: int, changes: int) -> None:
    """Run fresh tuners of every method, built from the set-ups' models,
    through the first ``changes`` rate changes of the pattern, untimed,
    so that the timed passes do not pay the process's first-use costs
    (the first pass of a run read 10–35 % slower than the next). The
    set-ups' own tuners are left untouched."""
    from repro.core.tuner import run_pattern
    from repro.sim.source_rates import periodic_pattern

    pattern = periodic_pattern(n_permutations=1, seed=seed)[:changes]
    scratch = Online()
    for prep in preps:
        tuners = build_tuners(prep.cfg, prep.catalogue, prep.bundle, prep.zerotune_model)
        for method, per_job in tuners.items():
            for job, tuner in per_job.items():
                wl = prep.catalogue[job]
                run_pattern(_Probe(tuner, wl, scratch, timed=False), wl, pattern, method_name=method)


def local_reference(prep: Prepared, seed: int) -> tuple[float, int]:
    """Re-run the same history configurations single-process; returns its
    wall time and how many records differ from the Spark history."""
    from repro import history as history_mod

    from perfbench.checks import history_mismatch

    t0 = time.perf_counter()
    local = history_mod.generate_history_local(
        history_workloads(prep.cfg, prep.catalogue), n_per_workload=prep.cfg.history_per_job, seed=seed
    )
    return time.perf_counter() - t0, history_mismatch(prep.history, local)


def manifest_config(workload: Workload) -> dict:
    return {
        "setups": workload.setups,
        "passes": workload.passes,
        "pattern_changes": 20,
        "parts": {
            cfg.name: {
                "system": cfg.system,
                "jobs": list(cfg.jobs),
                "history_jobs": "catalogue" if cfg.history_jobs is None else list(cfg.history_jobs),
                "history_per_job": cfg.history_per_job,
                "epochs": cfg.epochs,
                "mf_kind": cfg.model_kind,
                "k": cfg.k,
                "methods": list(cfg.methods),
                "fig8_epochs": cfg.fig8_epochs,
                "spark": cfg.spark,
            }
            for cfg in workload.parts
        },
    }


def bundle_info(preps: list[Prepared]) -> dict:
    """Facts of each part's set-up, and their totals: history records and
    encoders summed, encoder training accuracy averaged."""
    parts = {}
    for prep in preps:
        acc = [a for a in prep.bundle.train_acc if np.isfinite(a)]
        parts[prep.cfg.name] = {
            "history_records": len(prep.history),
            "clusters": len(prep.bundle.centers),
            "train_acc": float(np.mean(acc)) if acc else 0.0,
            "streamtune_clusters": sorted(
                {t.cluster for t in prep.tuners.get("StreamTune", {}).values()}
            ),
            "streamtune_warmup_rows": prep.warmup_rows,
        }
    return {
        "history_records": sum(p["history_records"] for p in parts.values()),
        "clusters": sum(p["clusters"] for p in parts.values()),
        "train_acc": float(np.mean([p["train_acc"] for p in parts.values()])),
        "parts": parts,
    }
