import json

from perfbench.run import _determinism_defects


def _manifest(trace, cells, sha="abc", config=None):
    return {
        "workload": "online",
        "seed": 3,
        "trace": trace,
        "git_sha": sha,
        "config": config or {"passes": 1},
        "cells_per_pass": [cells],
    }


def test_cells_agreeing_with_the_other_trace_mode_are_no_defect(tmp_path):
    cells = {"StreamTune": {"backpressure_events": 2}}
    (tmp_path / "online-seed3-trace1.json").write_text(json.dumps(_manifest(1, cells)))
    assert _determinism_defects(_manifest(0, cells), tmp_path) == []


def test_cells_differing_from_the_other_trace_mode_are_reported(tmp_path):
    theirs = {"StreamTune": {"backpressure_events": 2}, "DS2": {"backpressure_events": 0}}
    mine = {"StreamTune": {"backpressure_events": 3}, "DS2": {"backpressure_events": 0}}
    (tmp_path / "online-seed3-trace0.json").write_text(json.dumps(_manifest(0, theirs)))
    defects = _determinism_defects(_manifest(1, mine), tmp_path)
    assert len(defects) == 1 and defects[0].startswith("StreamTune:")


def test_records_of_another_commit_or_config_are_not_compared(tmp_path):
    other = tmp_path / "online-seed3-trace1.json"
    other.write_text(json.dumps(_manifest(1, {"DS2": {}}, sha="def")))
    assert _determinism_defects(_manifest(0, {"DS2": {"x": 1}}), tmp_path) == []
    other.write_text(json.dumps(_manifest(1, {"DS2": {}}, config={"passes": 2})))
    assert _determinism_defects(_manifest(0, {"DS2": {"x": 1}}), tmp_path) == []
    assert _determinism_defects(_manifest(0, {"DS2": {"x": 1}}), tmp_path / "missing") == []
