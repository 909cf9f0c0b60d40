"""Summary arithmetic: percentiles, failure counts and span self time.

Kept free of coagchain imports so the tests can exercise it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Tail percentiles tried from the highest down; the first one with at
# least TAIL_MIN_BEYOND samples strictly beyond its rank is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def tail(samples) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) of the highest percentile in
    TAIL_PERCENTILES that has at least TAIL_MIN_BEYOND samples beyond it,
    or None when there are too few samples for any of them."""
    values = sorted(samples)
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = _rank(pct, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, values[rank - 1], n
    return None


@dataclass
class OpOutcome:
    """What one operation did, classified outside the timed region.

    ``raised`` holds the exception of a call that raised, ``error_point``
    the error a sweep recorded in place of a value, ``failed_checks`` the
    FAIL verdicts of the verification battery, and ``check_errors`` the
    benchmark's own output checks that rejected a returned value.
    ``events`` counts simulator events, for simulation runs.
    """

    slot: str
    seconds: float
    raised: str | None = None
    error_point: str | None = None
    failed_checks: tuple[str, ...] = ()
    check_errors: tuple[str, ...] = ()
    events: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.raised or self.error_point or self.failed_checks
                    or self.check_errors)


def failure_counts(outcomes) -> tuple[int, int]:
    """(attempted, failed) over a list of OpOutcome."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for o in outcomes if o.failed)


def failed_frac(outcomes) -> float:
    attempted, failed = failure_counts(outcomes)
    return failed / attempted if attempted else 0.0


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    direct children cover, with children clipped to the parent and
    overlaps between children counted once.

    ``spans`` is a sequence of objects with ``start``, ``end`` and
    ``parent`` (index into the same sequence, or None).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(i, ())]
        out.append((span.end - span.start) - covered_length(clipped))
    return out
