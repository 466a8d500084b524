"""The program process of the in-process workloads (churn, sweep, leader).

Run by ``run.py``, one process per set-up measurement::

    python3 perfbench/program.py --workload churn --seed 1 --seconds 15 \
        --trace 0 --out .perfbench/churn.json [--setup-only]

The process imports the program, builds the workload's service or
engine and its seeded inputs, prints ``READY`` (the parent times set-up
from launch to that line), then runs the timed loop, checks every
result outside the timed windows and writes its measurements as JSON.
With ``--trace 1`` the layers are wrapped by :mod:`tracing` first.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import config, peak_rss_mb_self, use_program_path, zipf_weights

use_program_path()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import openloop  # noqa: E402
import tracing  # noqa: E402


def _decoded(payload: Dict[str, Any]) -> Any:
    from repro.serving.codec import decode_result
    return decode_result(payload["result"])


def _bits(payload: Dict[str, Any]) -> Tuple[Any, ...]:
    result = payload["result"]
    return (tuple(result["e"]), tuple(result["c"]))


# ---------------------------------------------------------------------- #
# churn: open-loop in-process service traffic with periodic invalidation
# ---------------------------------------------------------------------- #

class Churn:
    def __init__(self, seed: int, cfg: Dict[str, Any]) -> None:
        from repro.service import EquilibriumService, InProcessClient

        self.seed = seed
        self.cfg = cfg
        self.pool = inputs.churn_pool(seed, cfg["universe"],
                                      cfg["max_miners"],
                                      cfg["standalone_share"])
        self.probs = zipf_weights(len(self.pool), cfg["zipf_a"])
        # The configuration serve-online builds with its default flags.
        self.service = EquilibriumService(
            n_shards=8, maxsize=4096, ttl=None, cache_dir=None,
            max_inflight=8, max_queue=256, rate=None, burst=None,
            solver_threads=1)
        self.client = InProcessClient(self.service)
        self.limit_s = cfg["p99_limit_ms"] / 1e3

    async def step(self, step_no: int, rate: float, duration: float,
                   keep: Optional[List[Tuple[int, Dict[str, Any]]]] = None,
                   probe: bool = False) -> openloop.StepOutcome:
        """Offer ``rate`` for ``duration`` seconds, invalidating the
        cache at the start and every ``invalidate_period_s``; answers
        are appended to ``keep``. A ladder ``probe`` stops early once
        it cannot meet the SLO."""
        due, keys = inputs.arrivals(self.seed, step_no, rate, duration,
                                    self.probs)
        outcome = openloop.StepOutcome(rate=rate, planned=len(due))
        late = openloop.LateCounter(len(due), self.limit_s)
        outstanding: Dict[int, float] = {}
        tasks = []
        period = self.cfg["invalidate_period_s"]

        async def one(i: int, target: float) -> None:
            payload = await self.client.solve(self.pool[keys[i]])
            done = time.perf_counter()
            del outstanding[i]
            if payload["http_status"] != 200:
                outcome.failures += 1
                return
            latency = done - target
            outcome.latencies.append(latency)
            late.record(latency)
            if keep is not None:
                keep.append((int(keys[i]), payload))

        self.service.invalidate()
        t0 = time.perf_counter()
        next_invalidate = t0 + period
        sent = 0
        for i, offset in enumerate(due):
            target = t0 + float(offset)
            now = time.perf_counter()
            if target > now:
                await asyncio.sleep(target - now)
                now = time.perf_counter()
            while now >= next_invalidate:
                self.service.invalidate()
                next_invalidate += period
            outcome.lags.append(now - target)
            outcome.backlog.append(len(outstanding))
            outstanding[i] = target
            tasks.append(asyncio.create_task(one(i, target)))
            sent += 1
            if probe and i % 16 == 0:
                stale = now - self.limit_s
                overdue = sum(1 for t in outstanding.values() if t < stale)
                if late.hopeless(overdue):
                    outcome.aborted = True
                    break
        if outcome.aborted:
            for task in tasks:
                task.cancel()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        cancelled = sum(1 for r in results
                        if isinstance(r, BaseException))
        outcome.failures += cancelled + (len(due) - sent)
        outcome.elapsed = time.perf_counter() - t0
        await asyncio.sleep(0.2)  # let a cut-off solve finish
        return outcome

    async def run(self, seconds: float, traced: bool) -> Dict[str, Any]:
        """The untraced run offers the nominal rate for ``seconds``. The
        traced run offers it untraced and traced for half of
        ``nominal_share * seconds`` each, then searches the ladder with
        tracing off for the rest."""
        cfg = self.cfg
        rates = openloop.ladder(cfg["ladder"])
        nominal_idx = openloop.nearest_index(rates, cfg["nominal_rps"])
        nominal_rate = rates[nominal_idx]
        kept: List[Tuple[int, Dict[str, Any]]] = []
        out: Dict[str, Any] = {}
        # Warm-up traffic (untimed): the warm-start index and the cache
        # reach the steady state the timed steps measure.
        await self.step(-1, nominal_rate, cfg["warmup_s"])
        if traced:
            nominal_s = cfg["nominal_share"] * seconds
            plain = await self.step(0, nominal_rate, nominal_s / 2)
            cache = self.service.engine.cache
            evictions = cache.stats.evictions
            tracing.REC.enabled = True
            nominal = await self.step(0, nominal_rate, nominal_s / 2, kept)
            tracing.REC.enabled = False
            out["evictions"] = cache.stats.evictions - evictions
            out["untraced"] = plain.verdict(self.limit_s)
            search = openloop.LadderSearch(
                rates, nominal_idx, out["untraced"]["meets"],
                seconds - nominal_s, cfg["step_min_s"],
                cfg["step_min_samples"])
            while (probe := search.next_probe()) is not None:
                index, duration = probe
                outcome = await self.step(len(search.probes) + 1,
                                          rates[index], duration,
                                          probe=True)
                search.record(index, outcome.verdict(self.limit_s))
            out["slo_rate_rps"] = search.best_rate
            out["probes"] = search.probes
        else:
            busy = time.process_time()
            nominal = await self.step(0, nominal_rate, seconds, kept)
            out["busy_s"] = time.process_time() - busy
        out["nominal"] = nominal.verdict(self.limit_s)
        out["latencies"] = nominal.latencies
        out["attempted"] = nominal.planned
        out["failed_requests"] = nominal.failures
        out["kept"] = kept
        return out

    def check(self, kept: List[Tuple[int, Dict[str, Any]]]
              ) -> Tuple[int, List[str], int]:
        """Every served result, coalesced answers against the solve they
        joined, and a sample against a direct cold solve."""
        from repro.serving.engine import ServingEngine

        failures: List[str] = []
        failed = 0
        verdicts: Dict[Tuple[Any, ...], List[str]] = {}
        solved: Dict[str, set] = {}
        for _, payload in kept:
            if payload.get("source") == "solved":
                solved.setdefault(payload["key"], set()).add(
                    _bits(payload))
        sample: List[Tuple[int, Dict[str, Any]]] = []
        for idx, payload in kept:
            bits = _bits(payload)
            problems = verdicts.get(bits)
            if problems is None:
                problems = checks.check_miner(_decoded(payload))
                verdicts[bits] = problems
            problems = list(problems)
            if payload.get("coalesced") and \
                    bits not in solved.get(payload["key"], set()):
                problems.append("coalesced result differs from its solve")
            if payload.get("source") == "solved" and \
                    len(sample) < self.cfg["sample_checks"]:
                sample.append((idx, payload))
            if problems:
                failed += 1
                failures.append(problems[0])
        # Served solves warm-start from neighbours (the running kernel
        # then lands on the fixed point to tolerance, not bit for bit),
        # so the direct cold solve is compared within tolerance. Each
        # sample gets a fresh engine: no warm start from earlier ones.
        for idx, payload in sample:
            direct = ServingEngine().serve(self.pool[idx])
            if not direct.ok:
                failed += 1
                failures.append(f"direct solve failed: {direct.error}")
                continue
            served = _decoded(payload)
            scale = max(1.0, float(np.max(np.abs(direct.value.e))))
            dev = max(float(np.max(np.abs(direct.value.e - served.e))),
                      float(np.max(np.abs(direct.value.c - served.c))))
            if dev / scale > checks.RESIDUAL_TOL:
                failed += 1
                failures.append(f"direct solve deviates by {dev:.3e}")
        return failed, failures, len(sample)


def run_churn(args: argparse.Namespace, cfg: Dict[str, Any],
              ready: Any) -> Dict[str, Any]:
    from repro.telemetry import telemetry_session

    with telemetry_session():
        churn = Churn(args.seed, cfg["churn"])
        ready()
        out = asyncio.run(churn.run(args.seconds, bool(args.trace)))
        churn.service.close()
    kept = out.pop("kept")
    failed, failures, out["samples"] = churn.check(kept)
    out["failed_checks"] = failed
    out["failures"] = failures[:5]
    out["served"] = len(kept)
    return out


# ---------------------------------------------------------------------- #
# sweep and leader: closed loops through ServingEngine
# ---------------------------------------------------------------------- #

def calls_for(seconds: float, call_s: float) -> int:
    """How many calls a closed loop makes: ``seconds`` over the nominal
    cost of one call, at least one. The count comes from the run length,
    not the clock, so a slower host times the same inputs rather than
    fewer of them."""
    return max(1, round(seconds / call_s))


def run_sweep(args: argparse.Namespace, cfg: Dict[str, Any],
              ready: Any) -> Dict[str, Any]:
    from repro.core.nep import solve_connected_equilibrium
    from repro.serving.engine import ServingEngine

    c = cfg["sweep"]
    engine = ServingEngine()
    ready()
    calls: List[float] = []
    batches = []
    traced_calls: List[float] = []
    untraced_calls: List[float] = []
    # The traced run alternates untraced and traced batches, so it
    # needs two or more.
    for index in range(max(2, calls_for(args.seconds, c["call_s"]))):
        specs = inputs.sweep_batch(args.seed, index, c["miners"], c["grid"],
                                   c["p_c_low"], c["p_c_high"])
        if args.trace:
            tracing.REC.enabled = index % 2 == 1
        start = time.perf_counter()
        results = engine.serve_batch(specs)
        elapsed = time.perf_counter() - start
        tracing.REC.enabled = False
        calls.append(elapsed)
        (traced_calls if index % 2 == 1 else untraced_calls).append(
            elapsed)
        batches.append(results)
    failed = 0
    failures: List[str] = []
    for results in batches:
        for r in results:
            problems = ([r.error] if not r.ok
                        else checks.check_miner(r.value))
            if problems:
                failed += 1
                failures.append(str(problems[0]))
    # Bit identity: points of the first batch against solo direct
    # solves with the kernel the batch path stands in for.
    picks = np.linspace(0, c["grid"] - 1, c["sample_checks"]).astype(int)
    for k in picks:
        r = batches[0][int(k)]
        direct = solve_connected_equilibrium(
            r.spec.params, r.spec.prices, tol=r.spec.tol,
            kernel="vectorized")
        if not (r.ok and checks.same_bits(r.value, direct)):
            failed += 1
            failures.append(f"point {k}: not bit-identical to a direct "
                            "vectorized solve")
    scenarios = sum(len(r) for r in batches)
    return {"calls": calls, "scenarios": scenarios,
            "samples": len(picks), "failed_checks": failed,
            "failures": failures[:5], "attempted": scenarios,
            # An errored scenario is already one of failed_checks.
            "failed_requests": 0,
            "traced_calls": traced_calls, "untraced_calls": untraced_calls,
            "evictions": engine.cache.stats.evictions}


def run_leader(args: argparse.Namespace, cfg: Dict[str, Any],
               ready: Any) -> Dict[str, Any]:
    from repro.core.stackelberg import solve_stackelberg
    from repro.serving.engine import ServingEngine

    c = cfg["leader"]
    engine = ServingEngine()
    ready()
    calls: List[float] = []
    served = []
    # The first solves of the C_e walk: the same ones on every run.
    for index in range(min(calls_for(args.seconds, c["call_s"]),
                           len(c["edge_costs"]))):
        spec = inputs.leader_spec(args.seed, index, c["miners"],
                                  c["edge_costs"], c["cloud_cost"])
        # Leader solves differ in cost along the C_e sweep, so the
        # traced run traces every solve and estimates its overhead
        # from the measured cost of one span instead of alternating.
        tracing.REC.enabled = bool(args.trace)
        start = time.perf_counter()
        result = engine.serve(spec)
        elapsed = time.perf_counter() - start
        tracing.REC.enabled = False
        calls.append(elapsed)
        served.append(result)
    failed = 0
    failures: List[str] = []
    for r in served:
        problems = ([r.error] if not r.ok
                    else checks.check_leader(r.value, r.spec.kernel,
                                             r.spec.tol))
        if problems:
            failed += 1
            failures.append(str(problems[0]))
    # Bit identity: the run's first solve is cold, so it must equal a
    # direct leader-stage solve bit for bit.
    first = served[0]
    direct = solve_stackelberg(first.spec.params, demand_tol=first.spec.tol,
                               kernel=first.spec.kernel)
    if not (first.ok and checks.same_bits(first.value, direct)):
        failed += 1
        failures.append("first leader solve not bit-identical to a "
                        "direct solve")
    return {"calls": calls, "scenarios": len(served),
            "samples": 1, "failed_checks": failed,
            "failures": failures[:5], "attempted": len(served),
            # An errored solve is already one of failed_checks.
            "failed_requests": 0,
            "span_cost_s": tracing.span_cost() if args.trace else 0.0}


RUNNERS = {"churn": run_churn, "sweep": run_sweep, "leader": run_leader}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(RUNNERS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cfg = config()
    if args.trace:
        tracing.instrument()
        tracing.REC.enabled = False

    def ready() -> None:
        print("READY", flush=True)
        if args.setup_only:
            raise SystemExit(0)

    out = RUNNERS[args.workload](args, cfg, ready)
    out["peak_rss_mb"] = peak_rss_mb_self()
    if args.trace:
        trace_path = args.out.with_suffix(".trace.json")
        tracing.REC.dump(trace_path)
        out["trace_path"] = str(trace_path)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
