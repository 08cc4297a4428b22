import json
from pathlib import Path

from perfbench.layers import metric_units
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_report():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_report():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


def test_every_listed_workload_is_defined():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
