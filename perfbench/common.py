"""Shared helpers of the benchmark: paths, configuration, statistics.

Every figure the benchmark reports is computed here from exact
per-request (or per-call) samples, never from histogram buckets.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Sequence, Tuple

import numpy as np

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for the benchmark's own files (inside the checkout).
WORK = ROOT / ".perfbench"

WORKLOADS = ("hot-http", "churn", "sweep", "leader")


def config() -> Dict[str, Any]:
    """The fixed workload settings (rates, ladders, limits, sizes)."""
    with open(BENCH_DIR / "config.json", encoding="utf-8") as fh:
        return dict(json.load(fh))


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[kind]}


def program_available() -> bool:
    """Whether the program's sources are present in this checkout."""
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> Dict[str, str]:
    """Environment of a program process: the checkout's sources first
    on the import path, one BLAS thread (the host has two cores and the
    load generator needs one)."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def use_program_path() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of exact samples."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(quantile, value, beyond)`` of the reported tail latency.

    The p99 when at least ten samples lie beyond it (1000 or more
    samples); otherwise the highest percentile that still leaves ten
    samples beyond it, and the largest sample when there are fewer
    than eleven.
    """
    n = len(samples)
    if n == 0:
        return 99.0, float("nan"), 0
    if n >= 1000:
        q = 99.0
    elif n >= 11:
        q = 100.0 * (1.0 - 10.0 / n)
    else:
        return 100.0, float(max(samples)), 0
    value = percentile(samples, q)
    beyond = int(np.sum(np.asarray(samples) > value))
    return q, value, beyond


def median(values: Iterable[float]) -> float:
    vals = list(values)
    return float(np.median(vals)) if vals else 0.0


def zipf_weights(count: int, a: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-a)
    return np.asarray(weights / max(float(weights.sum()), 1e-300))


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def peak_rss_mb_self() -> float:
    """Peak resident set of this process in MB (Linux reports kB)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_s_of(pid: int) -> float:
    """User plus system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, Any]]) -> None:
    """Print the result line (always the last line of stdout)."""
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": metrics}), flush=True)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

