"""Per-layer metrics of a traced run, derived from its spans.

Names and units are those listed under ``per_layer`` in
``BENCHMARK.json``. Every metric is defined on every workload: a layer
that does not run on a workload reports 0 (no calls, no time).
Durations are medians
(``_us``/``_ms``/``_s`` suffixes) unless the name says ``p99``; shares
and per-request counts are measured over the traced window only.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from common import metric, metric_units, tail
from tracing import Aggregate


def _p50(values: List[float], scale: float) -> float:
    return float(np.median(values)) * scale if values else 0.0


def _p99(values: List[float], scale: float) -> float:
    return tail(values)[1] * scale if values else 0.0


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg: Aggregate, values: Dict[str, List[float]],
              ctx: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of one traced run.

    ``ctx`` carries what the spans cannot see: ``requests`` (traced
    requests, or scenarios for the closed loops), ``latency_p99_ms``
    (the untraced nominal step's tail, or the longest call),
    ``slo_rate_rps`` (open loops), ``client_p50_s``
    (hot-http client latency), ``evictions`` (during the traced
    window), ``lag_p99_ms`` and ``backlog_max`` (the generator) and
    ``overhead_share``.
    """
    d = agg.durations
    requests = ctx["requests"]
    leader_solves = agg.count("stackelberg.solve")
    groups = values.get("kernel.group_size", [])
    residual = 0.0
    if ctx.get("client_p50_s"):
        residual = 1e6 * (ctx["client_p50_s"]
                          - _p50(d.get("service.handle", []), 1.0)
                          - _p50(d.get("codec.decode_spec", []), 1.0)
                          - _p50(d.get("codec.encode_result", []), 1.0))
    out = {
        "codec.decode_spec_us": _p50(d.get("codec.decode_spec", []), 1e6),
        "codec.encode_result_us": _p50(d.get("codec.encode_result", []),
                                       1e6),
        "server.residual_us": residual,
        "service.handle_us_p50": _p50(d.get("service.handle", []), 1e6),
        "service.handle_us_p99": _p99(d.get("service.handle", []), 1e6),
        "service.inline_hit_share": _mean(values.get("service.inline_hit",
                                                     [])),
        "service.coalesced_share": _mean(values.get("service.coalesced",
                                                    [])),
        "admission.wait_ms_p99": _p99(d.get("admission.acquire", []), 1e3),
        "admission.shed_share": _mean(values.get("service.shed", [])),
        "keys.key_us": _p50(d.get("keys.key", []), 1e6),
        "keys.calls_per_request": _ratio(agg.count("keys.key"), requests),
        "cache.lookup_us": _p50(d.get("cache.lookup", []), 1e6),
        "cache.put_us": _p50(d.get("cache.put", []), 1e6),
        "cache.hit_ratio": _mean(values.get("cache.hit", [])),
        "cache.evictions_per_request": _ratio(ctx.get("evictions", 0),
                                              requests),
        "warmstart.adds_per_request": _ratio(agg.count("warmstart.add"),
                                             requests),
        "warmstart.add_us": _p50(d.get("warmstart.add", []), 1e6),
        "warmstart.suggest_us": _p50(d.get("warmstart.suggest", []), 1e6),
        "warmstart.warm_share": _mean(values.get("engine.warm", [])),
        "engine.serve_batch_self_us": _p50(
            agg.self_times.get("engine.serve_batch", []), 1e6),
        "engine.group_size": _mean(groups),
        "engine.fallback_share": _ratio(
            sum(values.get("kernel.fallbacks", [])), sum(groups)),
        "guard.degraded_share": _mean(values.get("engine.degraded", [])),
        "kernel.batch_solve_s": _p50(d.get("kernel.multiscenario", []), 1.0),
        "kernel.iterations_p50": _p50(values.get("kernel.iterations", []),
                                      1.0),
        "nep.solve_ms_p50": _p50(d.get("nep.solve", []), 1e3),
        "nep.solve_ms_p99": _p99(d.get("nep.solve", []), 1e3),
        "nep.iterations_p50": _p50(values.get("nep.iterations", []), 1.0),
        "gnep.solve_ms": _p50(d.get("gnep.solve", []), 1e3),
        "gnep.inner_solves_per_solve": _ratio(
            agg.count_under("nep.solve", "gnep.solve"),
            agg.count("gnep.solve")),
        "stackelberg.solve_s": _p50(d.get("stackelberg.solve", []), 1.0),
        "oracle.calls_per_leader_solve": _ratio(
            agg.count("oracle.equilibrium"), leader_solves),
        "oracle.solves_per_leader_solve": _ratio(
            agg.count_under("nep.solve", "oracle.equilibrium")
            + agg.count_under("gnep.solve", "oracle.equilibrium"),
            leader_solves),
        "oracle.memo_hit_ratio": _ratio(
            agg.count("oracle.equilibrium")
            - agg.count_under("nep.solve", "oracle.equilibrium")
            - agg.count_under("gnep.solve", "oracle.equilibrium"),
            agg.count("oracle.equilibrium")),
        "loadgen.latency_p99_ms": float(ctx["latency_p99_ms"]),
        "loadgen.slo_rate_rps": float(ctx.get("slo_rate_rps", 0.0)),
        "loadgen.lag_p99_ms": float(ctx.get("lag_p99_ms", 0.0)),
        "loadgen.backlog_max": float(ctx.get("backlog_max", 0)),
        "trace.overhead_share": float(ctx.get("overhead_share", 0.0)),
        "trace.uncovered_share": agg.uncovered_share(),
    }
    units = metric_units("per_layer")
    if set(units) != set(out):
        raise RuntimeError(f"per-layer metrics out of step with "
                           f"BENCHMARK.json: {set(units) ^ set(out)}")
    return {name: metric(out[name], unit) for name, unit in units.items()}
