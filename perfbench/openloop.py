"""Open-loop load: arrival schedules, step verdicts and the SLO ladder.

A *step* offers one rate for a while: requests are due on a seeded
schedule whether or not earlier ones have finished, and each
latency is timed from its due time, so a stall also charges the wait
it imposes on later requests. The transports (threads over HTTP,
asyncio tasks in-process) live with their workloads; this module holds
what they share: the ladder of offered rates, the per-step verdict and
the search for the highest step that meets the SLO.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import percentile, tail

#: A step meets the SLO only with at most this share of failures.
MAX_FAILED_SHARE = 0.01


def ladder(spec: Dict[str, Any]) -> List[float]:
    """The fixed ladder of offered rates (geometric, ``ratio`` apart)."""
    return [spec["low_rps"] * spec["ratio"] ** k
            for k in range(int(spec["steps"]))]


def nearest_index(rates: List[float], rate: float) -> int:
    return int(np.argmin([abs(math.log(r / rate)) for r in rates]))


@dataclass
class StepOutcome:
    """What one open-loop step measured.

    ``latencies`` holds seconds from due time to completion of every
    successful request; ``failures`` counts non-200 answers, sheds,
    errors and requests cut off by an aborted step.
    """

    rate: float
    planned: int
    latencies: List[float] = field(default_factory=list)
    failures: int = 0
    lags: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    aborted: bool = False
    elapsed: float = 0.0

    def verdict(self, limit_s: float) -> Dict[str, Any]:
        """Latency quantiles and whether the step meets the SLO."""
        lat = self.latencies
        q, p99, beyond = tail(lat) if lat else (99.0, math.inf, 0)
        failed_share = self.failures / max(self.planned, 1)
        growing = self.aborted or backlog_growing(self.backlog)
        meets = (not self.aborted and bool(lat) and p99 <= limit_s
                 and failed_share <= MAX_FAILED_SHARE and not growing)
        return {"rate": self.rate, "planned": self.planned,
                "elapsed_s": self.elapsed,
                "completed": len(lat),
                "p50_ms": 1e3 * percentile(lat, 50) if lat else math.inf,
                "p99_ms": 1e3 * p99, "p99_quantile": q,
                "p99_beyond": beyond, "failed_share": failed_share,
                "backlog_max": max(self.backlog) if self.backlog else 0,
                "lag_p99_ms": (1e3 * percentile(self.lags, 99)
                               if self.lags else 0.0),
                "growing_backlog": growing, "aborted": self.aborted,
                "meets": meets}


def backlog_growing(backlog: List[int]) -> bool:
    """Whether the outstanding-request count trends upward: over the
    last third of the arrivals it averages more than twice the first
    third's, plus ten. (Invalidation storms make the backlog saw-tooth
    around a stable level; an overloaded step climbs steadily.)"""
    if len(backlog) < 9:
        return False
    third = len(backlog) // 3
    first = float(np.mean(backlog[:third]))
    last = float(np.mean(backlog[-third:]))
    return last > 2.0 * first + 10.0


class LateCounter:
    """Early abort for hopeless steps: once more than 1% of the step's
    planned requests are already later than the p99 limit, the step
    cannot meet it, so the remaining load is not worth offering."""

    def __init__(self, planned: int, limit_s: float) -> None:
        self.allowed = max(1, int(MAX_FAILED_SHARE * planned))
        self.limit_s = limit_s
        self.late = 0

    def record(self, latency: float) -> None:
        if latency > self.limit_s:
            self.late += 1

    def hopeless(self, extra_late: int = 0) -> bool:
        return self.late + extra_late > self.allowed


class LadderSearch:
    """Bisection of the ladder for the highest step that meets the SLO.

    ``start`` is the nominal step, already measured. Steps are assumed
    monotone (a step that fails implies every higher step fails). The
    caller runs each probe :meth:`next_probe` proposes and
    :meth:`record` s its verdict; probing stops when the boundary is
    bracketed between adjacent steps or the next probe would overrun
    ``budget_s``. :attr:`best_rate` is the highest step seen to pass.
    """

    def __init__(self, rates: List[float], start: int, start_meets: bool,
                 budget_s: float, min_s: float, min_samples: int) -> None:
        self.rates = rates
        self.lo = start if start_meets else -1
        self.hi = len(rates) if start_meets else start
        self.deadline = time.perf_counter() + budget_s
        self.min_s = min_s
        self.min_samples = min_samples
        self.probes: List[Dict[str, Any]] = []

    def next_probe(self) -> Optional[Tuple[int, float]]:
        """``(step index, seconds)`` of the next probe, or ``None``."""
        if self.hi - self.lo <= 1:
            return None
        index = (self.lo + self.hi) // 2
        rate = self.rates[index]
        seconds = max(self.min_s, self.min_samples / rate)
        if self.probes and time.perf_counter() + seconds > self.deadline:
            return None
        return index, seconds

    def record(self, index: int, verdict: Dict[str, Any]) -> None:
        self.probes.append(verdict)
        if verdict["meets"]:
            self.lo = index
        else:
            self.hi = index

    @property
    def best_rate(self) -> float:
        """The SLO rate (0 when not even the lowest step passed)."""
        return self.rates[self.lo] if self.lo >= 0 else 0.0
