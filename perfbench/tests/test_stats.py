import pytest

from perfbench.run import DECISION_PERCENTILE, END_TO_END
from perfbench.layers import metric_units
from perfbench.stats import percentile, samples_beyond, supported, valid_metric_name
from perfbench.workloads import WORKLOADS, input_seed


def test_percentile_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert percentile(xs, 50) == 50.0
    assert percentile(xs, 90) == 90.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ten_samples_beyond_the_percentile():
    assert samples_beyond(100, 90) == 10
    assert supported(100, 90)
    assert samples_beyond(99, 90) == 9
    assert not supported(99, 90)
    assert not supported(60, 90)
    assert supported(20, 50)


def test_reported_decision_percentile_is_supported_by_the_traced_pass():
    # 20 rate changes per job, each timed once; the traced run has one pass.
    n = min(20 * sum(len(part.jobs) for part in w.parts) for w in WORKLOADS.values())
    assert samples_beyond(n, DECISION_PERCENTILE) == 10
    assert supported(n, DECISION_PERCENTILE)


@pytest.mark.parametrize("name", ["setup_s", "engine.simulate.calls", "result.DS2.parallelism_at_10x", "a-b_c.9"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_every_reported_name_is_valid():
    for name in [*END_TO_END, *metric_units()]:
        assert valid_metric_name(name), name


def test_every_pass_has_a_set_up_of_its_own():
    assert all(1 <= w.passes <= w.setups for w in WORKLOADS.values())


def test_every_set_up_of_a_run_has_inputs_of_its_own():
    seeds = [input_seed(seed, i) for seed in range(1, 11) for i in range(max(w.setups for w in WORKLOADS.values()))]
    assert len(set(seeds)) == len(seeds)
