"""The statistic rules of the pipeline benchmark (see README.md).

A run is cut into rounds.  A rate is the **median over the rounds**; a
latency percentile is the median over the rounds of each round's own
percentile when every round has at least ``ROUND_SAMPLES`` samples, and
is otherwise taken over the pooled samples of the run.  The per-round
values and their p25/p75 are reported beside each value, with the sample
count and which of the two methods applied.
"""

from __future__ import annotations

import statistics
from typing import Any, Optional, Sequence

#: A round's own percentile is used only with this many samples in it.
ROUND_SAMPLES = 1_000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted ``values`` (q in 0..100)."""
    if not values:
        return 0.0
    rank = max(0, min(len(values) - 1,
                      int(-(-q * len(values) // 100)) - 1))
    return values[rank]


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def stat(value: float, unit: str, per_round: Sequence[float],
         samples: int, method: str) -> dict[str, Any]:
    p25, p75 = quartiles(per_round)
    return {"value": value, "unit": unit, "p25": p25, "p75": p75,
            "samples": samples, "method": method,
            "rounds": list(per_round)}


def rate_stat(rates: Sequence[float], unit: str,
              samples: int) -> dict[str, Any]:
    return stat(statistics.median(rates), unit, rates, samples,
                "median-of-rounds")


def timing_stat(rounds: Sequence[Sequence[float]], q: float, unit: str,
                scale: float) -> Optional[dict[str, Any]]:
    """Percentile ``q`` of a run.  ``rounds`` holds each round's samples
    in ns; ``scale`` converts to ``unit``.  None when there is no sample."""
    pooled = sorted(value for samples in rounds for value in samples)
    if not pooled:
        return None
    per_round = [percentile(sorted(samples), q) / scale
                 for samples in rounds if samples]
    if min(len(samples) for samples in rounds) >= ROUND_SAMPLES:
        return stat(statistics.median(per_round), unit, per_round,
                    len(pooled), "median-of-rounds")
    return stat(percentile(pooled, q) / scale, unit, per_round, len(pooled),
                "pooled")


def plain(value: float, unit: str) -> dict[str, Any]:
    """A metric with no per-round spread (counts, ratios, one-shot times)."""
    return stat(float(value), unit, [float(value)], 1, "single")
