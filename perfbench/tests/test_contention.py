import time

import pytest

from perfbench.contention import INTERVAL_S, REFERENCE_KERNEL_S, Sampler, at_reference_speed


def test_sampler_times_the_kernel_through_the_block():
    with Sampler() as host:
        t_end = time.perf_counter() + 12 * INTERVAL_S
        while time.perf_counter() < t_end:
            sum(i * i for i in range(1000))
    rec = host.record()
    assert rec["kernel_samples"] >= 8
    assert 0 < rec["kernel_min_s"] <= rec["kernel_mean_s"]
    assert rec["own_s"] == pytest.approx(rec["wall_s"] - sum(host.samples))
    assert 0 < rec["own_s"] < rec["wall_s"]


def test_reference_speed_scales_own_time_by_the_kernel_mean():
    blocks = [
        {"own_s": 10.0, "kernel_mean_s": 2 * REFERENCE_KERNEL_S},
        {"own_s": 6.0, "kernel_mean_s": REFERENCE_KERNEL_S},
    ]
    assert at_reference_speed(blocks) == pytest.approx([5.0, 6.0])
