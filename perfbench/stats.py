"""Small statistics and naming rules shared by the benchmark and its tests."""
from __future__ import annotations

import re

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with a
#: letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by the nearest-rank rule: the
    smallest sample with at least q % of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    rank = max(1, -(-len(xs) * q // 100))  # ceil(n * q / 100)
    return xs[int(rank) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile."""
    rank = max(1, -(-n * q // 100))
    return int(n - rank)


#: A percentile is resolved only with at least this many samples beyond it.
MIN_BEYOND = 10


def supported(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_BEYOND
