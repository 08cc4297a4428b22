import pytest

from perfbench.tracing import Recorder, Span, descendants_by_root, self_times, span_self_times


def _tree():
    # tune [0, 10] ─┬─ fit [1, 5] ── predict [2, 3]
    #               └─ simulate [6, 8]
    # other [11, 12]
    return [
        Span("tune", 0.0, 10.0, parent=None, process=1),
        Span("fit", 1.0, 5.0, parent=0, process=1),
        Span("predict", 2.0, 3.0, parent=1, process=1),
        Span("simulate", 6.0, 8.0, parent=0, process=1),
        Span("simulate", 11.0, 12.0, parent=None),
    ]


def test_self_time_subtracts_direct_children_only():
    assert span_self_times(_tree()) == [4.0, 3.0, 1.0, 2.0, 1.0]


def test_self_times_by_name():
    agg = self_times(_tree())
    assert agg["simulate"] == {"calls": 2, "self_s": 3.0, "total_s": 3.0}
    assert agg["tune"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    # Self times of a tree add up to the root's duration.
    assert sum(span_self_times(_tree())[:4]) == 10.0


def test_descendants_by_root():
    assert descendants_by_root(_tree(), "tune") == {0: [1, 2, 3]}


def test_recorder_nesting_and_process_ids():
    rec = Recorder()
    with rec.span("setup"):
        with rec.span("fit"):
            rec.count("rows", 5)
    with rec.span("tune", process=True):
        with rec.span("simulate"):
            pass
    with rec.span("tune", process=True):
        pass
    names = [(s.name, s.parent, s.process) for s in rec.spans]
    assert names == [("setup", None, None), ("fit", 0, None), ("tune", None, 1), ("simulate", 2, 1), ("tune", None, 2)]
    assert rec.spans[1].attrs == {"rows": 5}
    assert all(s.end >= s.start for s in rec.spans)


def test_recorder_rejects_out_of_order_close():
    rec = Recorder()
    a = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_instrument_records_where_used_and_restores():
    import numpy as np
    from repro.core import monotonic, tuner

    from perfbench.tracing import instrument

    fit, simulate = monotonic.MonotoneGBDT.fit, tuner.simulate
    rec = Recorder()
    with instrument(rec):
        assert tuner.simulate is not simulate
        p = np.linspace(0.0, 1.0, 20)
        h = np.random.default_rng(0).normal(size=(20, 3))
        model = monotonic.MonotoneGBDT(n_rounds=2, seed=0).fit(h, p, (p < 0.5).astype(int))
        with rec.span("search"):
            model.predict_proba(h[:1], p[:1])
            model.predict_proba(h[:1], p[:1])
    assert monotonic.MonotoneGBDT.fit is fit and tuner.simulate is simulate
    assert [s.name for s in rec.spans] == ["monotonic.gbdt_fit", "search"]
    assert rec.spans[0].attrs == {"rows": 20}
    assert rec.spans[1].attrs == {"predict_proba": 2}
