from repro.history import generate_history_local
from repro.sim.workloads import full_catalogue

from perfbench.checks import history_mismatch, parallelism_errors

OPS = ["a", "b", "c"]


def test_accepts_complete_in_range_vector():
    assert parallelism_errors({"a": 1, "b": 50, "c": 100}, OPS, 100) == []


def test_rejects_out_of_range_values():
    assert parallelism_errors({"a": 0, "b": 1, "c": 1}, OPS, 100) == ["a=0 outside [1, 100]"]
    assert parallelism_errors({"a": 1, "b": 13, "c": 1}, OPS, 12) == ["b=13 outside [1, 12]"]
    assert parallelism_errors({"a": 1.5, "b": 1, "c": 1}, OPS, 12) == ["a=1.5 outside [1, 12]"]


def test_rejects_incomplete_or_extra_vector():
    assert parallelism_errors({"a": 1, "b": 1}, OPS, 100) == ["missing operators ['c']"]
    assert parallelism_errors({"a": 1, "b": 1, "c": 1, "src": 1}, OPS, 100) == ["unexpected operators ['src']"]


def test_history_mismatch_ignores_order_but_not_content():
    wls = [full_catalogue("flink")["nexmark_q5"]]
    hist = generate_history_local(wls, n_per_workload=6, seed=1)
    assert history_mismatch(hist, list(reversed(hist))) == 0
    assert history_mismatch(hist, hist[:-1]) == 1
    assert history_mismatch(hist, hist[:-1] + hist[:1]) == 2


class _Fixed:
    """A tuner that always answers with one result."""

    def __init__(self, result=None, error=None):
        self.result, self.error = result, error

    def tune(self, current, rates):
        if self.error:
            raise self.error
        return self.result


def _probe_once(tuner):
    from repro.core.tuner import run_pattern

    from perfbench.workloads import Online, _Probe

    wl = full_catalogue("flink")["nexmark_q5"]
    out = Online()
    probe = _Probe(tuner, wl, out, timed=True)
    run_pattern(probe, wl, [3], method_name="t")
    return wl, out, probe


def test_probe_fails_out_of_range_and_incomplete_vectors():
    from repro.core.tuner import TuneProcessResult

    wl = full_catalogue("flink")["nexmark_q5"]
    ops = wl.dag.tunable_operators()
    for vec in ({o: 0 for o in ops}, {o: 1 for o in ops[1:]}):
        _, out, _ = _probe_once(_Fixed(TuneProcessResult(vec, 0, 0, 1, 0.0)))
        assert out.attempted == 1 and len(out.failures) == 1


def test_probe_counts_a_crash_as_failed_and_keeps_going():
    _, out, _ = _probe_once(_Fixed(error=RuntimeError("boom")))
    assert out.attempted == 1 and len(out.failures) == 1 and "boom" in out.failures[0]
    assert out.decisions == []


def test_probe_counts_unconverged_as_a_result_not_a_failure():
    from repro.core.tuner import TuneProcessResult

    wl = full_catalogue("flink")["nexmark_q5"]
    vec = {o: 5 for o in wl.dag.tunable_operators()}
    _, out, probe = _probe_once(_Fixed(TuneProcessResult(vec, 1, 1, 8, 10.0, converged=False)))
    assert out.failures == [] and probe.unconverged == 1 and len(out.decisions) == 1
