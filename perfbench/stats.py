"""Order statistics and the two-sided comparison of benchmark results."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of a sample.

    Nearest rank, not interpolation: a view workload's latencies are
    bimodal (one view in 16 takes most of the time), and interpolating
    across that gap would make p95 depend on the sample count.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def pairs_won(base: Sequence[float], head: Sequence[float], better: str) -> tuple[int, int]:
    """``(won, pairs)``: runs of ``head`` better than the ``base`` run they pair with.

    Runs pair up in the order they were made (the i-th of each side), which
    is the alternating order the comparison protocol asks for; ties count
    for neither side.
    """
    won = 0
    for old, new in zip(base, head):
        if (new < old) if better == "lower" else (new > old):
            won += 1
    return won, min(len(base), len(head))


def verdict(base: Sequence[float], head: Sequence[float], better: str, bound: float) -> str:
    """``improved``/``worse``/``unchanged``/``unresolved`` for one metric.

    * improved: ``head`` wins at least nine tenths of the pairs and the
      medians differ, in its favour, by more than ``base``'s interquartile
      distance;
    * worse: ``head``'s median is worse than ``base``'s by more than
      ``bound`` times ``base``'s median;
    * unresolved: either side's spread exceeds ``bound`` and ``head`` does
      not read better on every run than ``base`` on every run;
    * unchanged: otherwise.
    """
    q1, base_median, q3 = quartiles(base)
    _, head_median, _ = quartiles(head)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (head_median - base_median)
    won, pairs = pairs_won(base, head, better)
    if pairs and won >= 0.9 * pairs and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(base_median):
        return "worse"
    every_run_better = (
        max(head) < min(base) if better == "lower" else min(head) > max(base)
    )
    if max(spread(base), spread(head)) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"
