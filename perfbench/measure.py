"""Pure helpers for the benchmark's statistics: no Spark, no I/O.

Kept apart from the runner so ``test_measure.py`` can check them without
starting a session.
"""
from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field

#: Metric names as the result JSON carries them.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def valid_metric_name(name: str) -> bool:
    """True when ``name`` is 1-64 of ``[A-Za-z0-9_.-]`` starting alphanumeric."""
    return bool(METRIC_NAME.fullmatch(name)) and name[0].isalnum()


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ``beyond`` samples above it.

    Over ``n`` sorted samples the value at 1-based rank ``n - beyond`` has
    exactly ``beyond`` samples after it, so it is the ``100 * (n - beyond) / n``
    percentile. With ``n <= beyond`` no percentile qualifies and the maximum
    is returned as the 100th percentile; callers state the sample count.
    """
    if not values:
        raise ValueError("tail of no samples")
    s = sorted(values)
    n = len(s)
    if n <= beyond:
        return 100.0, float(s[-1])
    rank = n - beyond
    return 100.0 * rank / n, float(s[rank - 1])


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Span duration minus the part of ``[start, end]`` its children cover.

    Child intervals are clipped to the parent and merged first, so overlap
    between children is not subtracted twice.
    """
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


@dataclass
class Tally:
    """Attempted / failed call counts; a failed check or an exception fails a call."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else math.nan
