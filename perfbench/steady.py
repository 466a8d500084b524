"""Steadiness command: run workloads repeatedly and report each
end-to-end metric's spread against its bound.

    python3 perfbench/steady.py --workload sweep --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload all --runs 10

Each run uses the next seed. For every metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median`` next to the metric's ``bound`` from
``BENCHMARK.json``: ``steady`` when the spread is under a third of the
bound, ``ok`` when under the bound, ``UNSTEADY`` otherwise (``setup_s``
is reported but, as in the acceptance rule, not judged). Exit code 1
when a run fails or a judged metric is unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import BENCH_DIR, ROOT, WORK, WORKLOADS


def bounds() -> Dict[str, float]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: float(m["bound"]) for m in doc["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return dict(json.loads(lines[-1]))


def report(workload: str, runs: List[Dict[str, Any]],
           limits: Dict[str, float]) -> bool:
    steady = True
    print(f"{workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}")
    for name, bound in limits.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name == "setup_s":
            verdict = "(not judged)"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "ok"
        else:
            verdict = "UNSTEADY"
            steady = False
        print(f"  {name:18s} median {med:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {spread:6.3f}  bound {bound:5.3f}"
              f"  {verdict}")
    return steady


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse
                                     .RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = int(json.load(fh)["run_seconds"])
    limits = bounds()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        began = time.perf_counter()
        runs = [run_once(workload, args.first_seed + k, seconds)
                for k in range(args.runs)]
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / f"steady-{workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(runs, fh)
        ok = report(workload, runs, limits) and ok
        ok = ok and all(r["correct"] for r in runs)
        print(f"  ({time.perf_counter() - began:.0f} s)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
