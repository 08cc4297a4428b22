"""How fast the host ran while a block of the program was timed.

The benchmark runs on a few cores of a shared host whose speed drifts with
other tenants' load: on a 4-core cloud VM, twenty identical StreamTune passes
(one bundle, one rate pattern) read 8.7–15.9 s of wall time within four
minutes, a quartile spread of 0.24 of their median. CPU time drifts with it
(the slowdown is inside the core, not time spent descheduled), so neither
clock alone can tell a slower program from a busier host.

:class:`Sampler` measures the host alongside the program: while the block
runs, a timer signal runs a small fixed reference kernel every
``INTERVAL_S`` seconds in the program's own thread and times it. The
kernel's mean time over the block says how fast the host ran; the program's
own time scaled by ``REFERENCE_KERNEL_S`` over that mean is the time the
block would have taken on a host running the kernel in
``REFERENCE_KERNEL_S``. Over the same twenty passes that figure spread
0.065 instead of 0.24. The kernel takes 0.1–0.25 ms, so it adds under
0.5 % to the block, which is subtracted from its wall time.

The kernel's fastest time in a run is not used as the reference: it moved
by 10–20 % from run to run (115–155 µs), as the host stayed busy through
whole passes.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05

#: The reference host's kernel time: about the kernel's fastest time on the
#: 4-core VM the benchmark was built on. A fixed constant of the benchmark,
#: so that figures of different runs and commits compare.
REFERENCE_KERNEL_S = 120e-6

_rng = np.random.default_rng(0)
_X = _rng.random((500, 2))
_G = _rng.random(500)


def kernel() -> float:
    """Fixed work of the program's kind: masks and masked sums over
    500-element arrays, as in a tree split search, and an interpreter loop."""
    acc = 0.0
    for f in range(_X.shape[1]):
        col = _X[:, f]
        for thr in (0.2, 0.4, 0.6, 0.8):
            mask = col <= thr
            acc += _G[mask].sum() - _G[~mask].sum()
    s = 0
    for i in range(600):
        s += i * i
    return acc + s


class Sampler:
    """Times the reference kernel every ``INTERVAL_S`` seconds of the
    ``with`` block (main thread only). ``samples`` are the kernel's times,
    ``wall_s`` the block's wall time and ``own_s`` that minus the kernel's."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def own_s(self) -> float:
        return self.wall_s - sum(self.samples)

    def record(self) -> dict[str, float]:
        """What the end-to-end metric needs from one block."""
        return {
            "wall_s": self.wall_s,
            "own_s": self.own_s,
            "kernel_mean_s": sum(self.samples) / len(self.samples),
            "kernel_min_s": min(self.samples),
            "kernel_samples": len(self.samples),
        }


def at_reference_speed(blocks: list[dict[str, float]]) -> list[float]:
    """Each block's own time on the reference host: its own time times
    ``REFERENCE_KERNEL_S`` over the kernel's mean time in that block."""
    return [b["own_s"] * REFERENCE_KERNEL_S / b["kernel_mean_s"] for b in blocks]
