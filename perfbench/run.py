"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot-http --seed 1 --seconds 15 \
        --trace 0

Workloads: ``hot-http``, ``churn``, ``sweep``, ``leader`` (see
``perfbench/README.md``). With ``--trace 0`` the last stdout line is a
JSON object whose ``metrics`` are the end-to-end metrics; with
``--trace 1`` the layers are wrapped and the metrics are the per-layer
ones. The line before it is a human-readable summary. The exit code is
0 when every result passed the correctness gate, 1 when one failed and
2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (BENCH_DIR, ROOT, WORK, WORKLOADS, config, emit, log,
                    median, metric, metric_units, percentile,
                    program_available, program_env, tail, use_program_path)

#: A program process must finish within this many seconds.
CHILD_TIMEOUT_S = 170.0


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           out: Path, setup_only: bool) -> Tuple[subprocess.Popen, float]:
    """Start a program process; returns it once it printed ``READY``,
    with the seconds that took (its set-up time)."""
    cmd = [sys.executable, str(BENCH_DIR / "program.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} program did not start "
                           f"(exit {proc.returncode})")
    return proc, setup


def run_in_process(workload: str, seed: int, seconds: float, trace: int,
                   repeats: int) -> Dict[str, Any]:
    """Set up ``repeats`` program processes; the last one runs."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{workload}-{os.getpid()}.json"
    setups = []
    for k in range(repeats):
        proc, setup = _spawn(workload, seed, seconds, trace, out,
                             setup_only=k < repeats - 1)
        setups.append(setup)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} program timed out")
        finally:
            assert proc.stdout is not None
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} program exited "
                               f"{proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = dict(json.load(fh))
    out.unlink()
    result["setups"] = setups
    return result


def end_to_end(workload: str, r: Dict[str, Any]
               ) -> Tuple[Dict[str, Dict[str, Any]], str]:
    """The end-to-end metrics and a one-line summary."""
    results = r["scenarios" if "calls" in r else "served"]
    checked = results + r["samples"]
    verified = results * max(checked - r["failed_checks"], 0) / checked
    if "calls" in r:
        # Closed loop, one caller back to back over a fixed set of
        # calls: throughput over their summed wall time, which averages
        # the host's speed over the whole run.
        samples = r["calls"]
        elapsed = sum(samples)
    else:
        # Open loop: the offered rate fixes requests per wall second,
        # so throughput is taken per CPU second the program spent
        # serving the nominal step (its capacity on one core).
        samples = r["latencies"]
        elapsed = r["busy_s"]
    q, p99, beyond = tail(samples)
    values = {"setup_s": median(r["setups"]),
              "latency_p50_ms": 1e3 * percentile(samples, 50),
              "scenarios_per_s": verified / elapsed,
              "peak_rss_mb": r["peak_rss_mb"]}
    units = metric_units("end_to_end")
    if set(units) != set(values):
        raise RuntimeError(f"end-to-end metrics out of step with "
                           f"BENCHMARK.json: {set(units) ^ set(values)}")
    metrics = {name: metric(values[name], unit)
               for name, unit in units.items()}
    failed_share = ((r["failed_requests"] + r["failed_checks"])
                    / (r["attempted"] + r["samples"]))
    summary = (f"{workload}: {len(samples)} samples, latency "
               f"p{q:.2f}={1e3 * p99:.6g} ms with {beyond} beyond; "
               f"failed_share={failed_share:.4g} (unit fraction); "
               + ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                           for k, v in metrics.items()))
    return metrics, summary


def traced(workload: str, r: Dict[str, Any]
           ) -> Tuple[Dict[str, Dict[str, Any]], str]:
    """The per-layer metrics of a traced run."""
    import layers
    import tracing

    spans, values = tracing.load(Path(r["trace_path"]))
    Path(r["trace_path"]).unlink()
    agg = tracing.Aggregate(spans)
    ctx: Dict[str, Any] = {"evictions": r.get("evictions", 0)}
    if "calls" in r:
        ctx["requests"] = len(values.get("engine.results", []))
        ctx["latency_p99_ms"] = 1e3 * tail(r["calls"])[1]
        if r.get("span_cost_s"):
            busy = max(sum(r["calls"]), 1e-9)
            ctx["overhead_share"] = len(spans) * r["span_cost_s"] / busy
        else:
            ctx["overhead_share"] = (median(r["traced_calls"])
                                     / median(r["untraced_calls"]) - 1.0)
    else:
        ctx["requests"] = len(values.get("service.requests", [])) or \
            agg.count("server.route")
        untraced = r["untraced"]
        ctx["slo_rate_rps"] = r["slo_rate_rps"]
        ctx["overhead_share"] = (r["nominal"]["p50_ms"]
                                 / untraced["p50_ms"] - 1.0)
        ctx["latency_p99_ms"] = untraced["p99_ms"]
        ctx["lag_p99_ms"] = untraced["lag_p99_ms"]
        ctx["backlog_max"] = untraced["backlog_max"]
        if workload == "hot-http":
            ctx["client_p50_s"] = r["nominal"]["p50_ms"] / 1e3
    metrics = layers.per_layer(agg, values, ctx)
    summary = f"{workload} (traced): " + ", ".join(
        f"{k}={v['value']:.4g}" for k, v in metrics.items())
    return metrics, summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse
                                     .RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_available():
        log(f"no program sources under {ROOT / 'src'}; nothing to run")
        return 2
    cfg = config()
    repeats = int(cfg["setup_repeats"])
    if args.workload == "hot-http":
        use_program_path()
        import hot_http
        result = hot_http.run(args.seed, args.seconds, bool(args.trace),
                              cfg, repeats)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds,
                                args.trace, repeats)
    if args.trace:
        metrics, summary = traced(args.workload, result)
    else:
        metrics, summary = end_to_end(args.workload, result)
    for probe in [result.get("nominal")] + result.get("probes", []):
        if probe:
            log("step {rate:.1f} req/s: p50 {p50_ms:.3f} ms, p99 {p99_ms:.3f}"
                " ms, failed {failed_share:.3g}, backlog max {backlog_max},"
                " lag p99 {lag_p99_ms:.3f} ms, meets {meets}".format(**probe))
    for failure in result["failures"]:
        log(f"correctness: {failure}")
    print(summary, flush=True)
    # Attempts: the timed window's requests (or scenarios) plus the
    # sampled direct-solve comparisons, each of which can fail.
    attempted = result["attempted"] + result["samples"]
    failed = result["failed_requests"] + result["failed_checks"]
    correct = result["failed_checks"] == 0
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
