"""StreamTune benchmark: one workload per invocation.

    python3 perfbench/run.py --workload online --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. With ``--trace 0`` it reports the
end-to-end metrics of a fixed amount of work (the workload's ``setups``
set-ups and ``passes`` online passes, each on inputs of its own drawn from
``--seed``, sized to take about ``run_seconds`` of ``BENCHMARK.json``;
``--seconds`` is only recorded), with ``--trace 1`` the per-layer metrics of
one traced set-up and online pass on the first of those inputs. Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (manifest, passes, spans) is written to ``perfbench/results/``.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# An untraced run does its workload's ``setups`` set-ups, with Spark up
# where the workload uses it, then stops Spark, warms up untimed and runs
# the first ``passes`` set-ups' online passes. ``setup_s`` is the median of
# the set-ups and ``tune_ref_s`` the median of the passes, both at the
# reference host speed (``perfbench/contention.py``). Set-up ``i`` and its
# pass take the inputs of ``workloads.input_seed(seed, i)``, so the passes of
# a run tune different rate patterns with different histories: how much
# tuning work one input needs (how many M_f refits, how many deployments) is
# averaged over the passes instead of moving the whole run.

#: Rate changes of the untimed warm-up run before the first timed pass.
WARM_UP_CHANGES = 3

#: The highest decision-time percentile with at least ten samples beyond it
#: in the traced run's one pass: two jobs × 20 rate changes (40 samples).
#: Printed and recorded with every run, and a per-layer metric; not gated.
DECISION_PERCENTILE = 75

#: End-to-end metrics and units, in report order (as in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "tune_ref_s": "s",
    "peak_rss_mb": "MB",
}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def set_up(workload, seed: int, spark, rec, count: int):
    """``count`` set-ups, set-up ``i`` on the inputs of
    ``workloads.input_seed(seed, i)``, each timed with the host's speed
    alongside it; wrapped in the tracer when ``rec`` records. Returns each
    set-up's parts (``None`` past the workload's passes, so their models
    are freed at once), their phases and host records, the first set-up's
    facts and, with Spark, the local reference of its history."""
    from perfbench import workloads
    from perfbench.contention import Sampler
    from perfbench.tracing import Recorder, instrument

    wrap = (lambda: instrument(rec)) if isinstance(rec, Recorder) else contextlib.nullcontext
    kept, setups, hosts = [], [], []
    info = local_ref = None
    for i in range(count):
        inputs = workloads.input_seed(seed, i)
        with wrap(), Sampler() as host:
            preps, phases = workloads.setup_all(workload, inputs, rec, spark=spark)
        setups.append(phases)
        hosts.append(host.record())
        if i == 0:
            info = workloads.bundle_info(preps)
            spark_parts = [prep for prep in preps if prep.cfg.spark]
            if spark_parts:
                local_ref = workloads.local_reference(spark_parts[0], inputs)
        kept.append(preps if i < workload.passes else None)
        _log(f"set-up {i + 1}: {host.wall_s:.2f} s wall, {host.own_s:.2f} s own, "
             f"reference kernel {1e6 * hosts[-1]['kernel_mean_s']:.0f} µs mean")
    return kept, setups, hosts, info, local_ref


def tune(workload, seed: int, kept: list, rec, count: int):
    """An untimed warm-up, then ``count`` online passes, pass ``i`` on
    set-up ``i``'s models and inputs, each timed with the host's speed
    alongside it; each set-up is freed after its pass."""
    from perfbench import workloads
    from perfbench.contention import Sampler
    from perfbench.tracing import Recorder, instrument

    wrap = (lambda: instrument(rec)) if isinstance(rec, Recorder) else contextlib.nullcontext
    workloads.warm_up(kept[0], workloads.input_seed(seed, 0), WARM_UP_CHANGES)
    passes, hosts = [], []
    for i in range(count):
        with wrap(), Sampler() as host:
            passes.append(workloads.online(kept[i], workloads.input_seed(seed, i), rec))
        kept[i] = None
        hosts.append(host.record())
        _log(f"online pass {i + 1}: {host.wall_s:.2f} s wall, {host.own_s:.2f} s own, "
             f"reference kernel {1e6 * hosts[-1]['kernel_mean_s']:.0f} µs mean, "
             f"{1e6 * hosts[-1]['kernel_min_s']:.0f} µs fastest")
    return passes, hosts


def _failures(passes, local_ref) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every tuning process and check."""
    attempted = sum(p.attempted for p in passes)
    messages = [m for p in passes for m in p.failures]
    if local_ref is not None:
        attempted += 1
        if local_ref[1]:
            messages.append(f"Spark history differs from the local one in {local_ref[1]} records")
    return attempted, len(messages), messages


def _determinism_defects(manifest: dict, out_dir: Path) -> list[str]:
    """Result cells of the first pass that differ from those of the other
    trace mode's record of the same workload, seed, commit and config in
    ``out_dir``, if there is one: both runs tune the first pass's inputs, so
    their cells must agree."""
    other = out_dir / f"{manifest['workload']}-seed{manifest['seed']}-trace{1 - manifest['trace']}.json"
    try:
        theirs = json.loads(other.read_text())
    except (OSError, ValueError):
        return []
    if any(theirs.get(k) != manifest[k] for k in ("git_sha", "config")) or not theirs.get("cells_per_pass"):
        return []
    mine, cells = manifest["cells_per_pass"][0], theirs["cells_per_pass"][0]
    return [
        f"{method}: {mine.get(method)} here, {cells.get(method)} in {other.name}"
        for method in sorted(set(mine) | set(cells))
        if mine.get(method) != cells.get(method)
    ]


def end_to_end(setup_hosts, passes, hosts) -> tuple[dict[str, float], dict]:
    from perfbench.contention import at_reference_speed
    from perfbench.stats import percentile, samples_beyond, supported

    decisions_ms = [1000.0 * d for p in passes for d in p.decisions]
    if not supported(len(decisions_ms), DECISION_PERCENTILE):
        _log(f"only {len(decisions_ms)} StreamTune decisions: p{DECISION_PERCENTILE} has fewer than ten beyond it")
    values = {
        "setup_s": median(at_reference_speed(setup_hosts)),
        "tune_ref_s": median(at_reference_speed(hosts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(decisions_ms)
    samples = {
        "setup_s": len(setup_hosts),
        "tune_ref_s": len(passes),
        "setup_wall_s": median([h["wall_s"] for h in setup_hosts]),
        "tune_wall_s": median([h["wall_s"] for h in hosts]),
        "decisions": n,
        "decisions_beyond_p75": samples_beyond(n, DECISION_PERCENTILE),
        "decision_ms_p75": percentile(decisions_ms, DECISION_PERCENTILE),
        "decision_median_ms": percentile(decisions_ms, 50),
        "decisions_ms": decisions_ms,
    }
    return values, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        _log(f"no program to benchmark: {SRC / 'repro'} is missing; run from a full checkout")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    TMP.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)  # Python and Spark scratch stay in the checkout

    from perfbench import layers, sparkenv, tracing, workloads
    from perfbench.contention import REFERENCE_KERNEL_S
    from perfbench.stats import percentile, valid_metric_name

    if args.workload not in workloads.WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cores = min(4, os.cpu_count() or 1)
    rec = tracing.Recorder() if args.trace else tracing.NullRecorder()
    n_setups, n_passes = (1, 1) if args.trace else (workload.setups, workload.passes)
    spark, spark_start_s = None, 0.0
    t_run = time.perf_counter()
    try:
        if workload.spark:
            spark, spark_start_s = sparkenv.start(SRC, TMP, cores)
        kept, setups, setup_hosts, info, local_ref = set_up(workload, args.seed, spark, rec, n_setups)
    finally:
        # Stopped before any pass is timed: the JVM and its workers take no
        # part in the online phase.
        if spark is not None:
            sparkenv.stop(spark)
    passes, hosts = tune(workload, args.seed, kept, rec, n_passes)
    run_s = time.perf_counter() - t_run

    attempted, failed, messages = _failures(passes, local_ref)
    for m in messages:
        _log(f"FAILED: {m}")
    manifest = {
        "workload": workload.name,
        "git_sha": _git_sha(),
        "seed": args.seed,
        "input_seeds": [workloads.input_seed(args.seed, i) for i in range(len(setups))],
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "spark_master": f"local[{cores}]" if workload.spark else None,
        "config": workloads.manifest_config(workload),
        "bundle": info,
        "phases_s": setups,
        "setup_host": setup_hosts,
        "online_s": [p.seconds for p in passes],
        "online_host": hosts,
        "run_s": run_s,
        "spark_session_start_s": spark_start_s,
        "local_reference": local_ref,
        "cells": passes[0].cells,
        "cells_per_pass": [p.cells for p in passes],
        "failures": messages,
    }
    if args.trace:
        out = passes[0]
        # Traced minus untraced wall time of one cycle is dominated by
        # run-to-run noise (-10 s to +3 s seen), so the tracer's cost is
        # taken from its own per-call cost times the calls it wrapped.
        span_cost, count_cost = tracing.per_call_overhead()
        counted = sum(s.attrs.get("predict_proba", 0) for s in rec.spans)
        overhead_s = span_cost * len(rec.spans) + count_cost * counted
        cells = out.cells
        facts = {
            "history_records": info["history_records"],
            "spark_start_s": spark_start_s,
            "local_reference_s": local_ref[0] if local_ref else 0.0,
            "train_acc": info["train_acc"],
            "clusters": info["clusters"],
            "failed_share": failed / attempted,
            "decision_ms_p75": percentile([1000.0 * d for d in out.decisions], DECISION_PERCENTILE),
            "overhead_s": overhead_s,
            "contention": hosts[0]["kernel_mean_s"] / REFERENCE_KERNEL_S,
        }
        values = layers.layer_values(rec.spans, facts, cells)
        units = layers.metric_units()
        manifest["streamtune_accounting_s"] = layers.streamtune_accounting(rec.spans)
        manifest["spans"] = rec.to_json()
    else:
        values, manifest["samples"] = end_to_end(setup_hosts, passes, hosts)
        units = END_TO_END
    bad = [n for n in units if not valid_metric_name(n)]
    if bad:
        raise ValueError(f"invalid metric names {bad}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    manifest["metrics"] = metrics
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    manifest["determinism_defects"] = _determinism_defects(manifest, out_dir)
    for d in manifest["determinism_defects"]:
        _log(f"DETERMINISM DEFECT: {d}")
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(manifest, indent=1, default=float))

    print(f"workload {workload.name}  seed {args.seed}  git {manifest['git_sha'][:12]}  nproc {manifest['nproc']}"
          f"  spark {manifest['spark_master']}  run {run_s:.1f} s")
    print(f"config {json.dumps(manifest['config'])}")
    for method, cell in manifest["cells"].items():
        print(f"cells {method:<10} {json.dumps(cell)}")
    if args.trace:
        acct = manifest["streamtune_accounting_s"]
        print(f"StreamTune self time by layer in the {out.seconds:.2f} s traced online pass (s): "
              + ", ".join(f"{k}={v:.3f}" for k, v in sorted(acct.items(), key=lambda kv: -kv[1])))
    else:
        s = manifest["samples"]
        print(f"samples: setup {s['setup_s']}, online passes {s['tune_ref_s']}, "
              f"StreamTune decisions {s['decisions']}: p75 {s['decision_ms_p75']:.1f} ms "
              f"({s['decisions_beyond_p75']} beyond), median {s['decision_median_ms']:.1f} ms")
        print(f"wall time as measured, medians: set-up {s['setup_wall_s']:.6g} s, online pass {s['tune_wall_s']:.6g} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
