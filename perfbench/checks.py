"""Output checks: what a correct run of the program must produce."""
from __future__ import annotations

import json
from collections import Counter


def parallelism_errors(vec: dict[str, int], tunable: list[str], p_max: int) -> list[str]:
    """Problems with a final parallelism vector: it must cover exactly the
    job's tunable operators, each with an integer degree in [1, p_max]."""
    errors: list[str] = []
    missing = sorted(set(tunable) - set(vec))
    extra = sorted(set(vec) - set(tunable))
    if missing:
        errors.append(f"missing operators {missing}")
    if extra:
        errors.append(f"unexpected operators {extra}")
    for op in sorted(set(vec) & set(tunable)):
        p = vec[op]
        if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= p_max:
            errors.append(f"{op}={p!r} outside [1, {p_max}]")
    return errors


def history_multiset(records) -> Counter:
    """History records as a multiset of canonical rows (order-free)."""
    return Counter(json.dumps(r.to_row(), sort_keys=True) for r in records)


def history_mismatch(got, want) -> int:
    """Number of records in either history without a partner in the other."""
    a, b = history_multiset(got), history_multiset(want)
    return sum(((a - b) + (b - a)).values())
