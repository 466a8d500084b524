"""The hot-http workload: open-loop ``POST /solve`` over loopback.

The program is the ``serve-online`` server in its own process. The load
generator here uses two threads, each owning one keep-alive connection
(the host has two cores), and asks for full result bodies. Request
bytes are encoded once per key before timing; response bodies are kept
raw and decoded only after the timed window.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks
import inputs
import openloop
from common import (BENCH_DIR, ROOT, WORK, cpu_s_of, peak_rss_mb_of,
                    program_env, zipf_weights)

_PORT_LINE = re.compile(rb"serving on http://[^:]+:(\d+)")


class Connection:
    """One blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            rest += chunk
        self.buf = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        self.sock.close()


def request_bytes(payload: Dict[str, Any], path: str = "/solve") -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n").encode("latin-1")
    return head + body


class Server:
    """A ``serve-online`` process with default flags on a free port."""

    def __init__(self, traced: bool, tag: str) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = WORK / f"server-{tag}.log"
        self.trace_path = WORK / f"server-{tag}.trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "server.py"),
                   "--trace-out", str(self.trace_path), "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve-online",
                   "--port", "0"]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._log)
        self.port = self._wait_port(deadline=time.monotonic() + 60.0)

    def _wait_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("serve-online did not come up: "
                           + self.log_path.read_text(errors="replace"))

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def cpu_s(self) -> float:
        return cpu_s_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self.log_path.unlink(missing_ok=True)


class HotHttp:
    """Client side of the workload: pool, pre-warm, open-loop steps."""

    def __init__(self, seed: int, cfg: Dict[str, Any]) -> None:
        from repro.serving.codec import encode_spec

        self.seed = seed
        self.cfg = cfg
        self.pool = inputs.hot_pool(seed, cfg["keys"])
        self.probs = zipf_weights(len(self.pool), cfg["zipf_a"])
        self.requests = [request_bytes(encode_spec(s)) for s in self.pool]
        self.limit_s = cfg["p99_limit_ms"] / 1e3
        self.prewarmed: List[bytes] = []

    def prewarm(self, port: int) -> None:
        """Solve every pooled key once, serially, in pool order."""
        conn = Connection(port)
        try:
            self.prewarmed = []
            for req in self.requests:
                status, body = conn.exchange(req)
                if status != 200:
                    raise RuntimeError(f"pre-warm answered {status}")
                self.prewarmed.append(body)
        finally:
            conn.close()

    def evictions(self, port: int) -> int:
        """The server's lifetime cache evictions (``GET /stats``)."""
        conn = Connection(port)
        try:
            _, body = conn.exchange(b"GET /stats HTTP/1.1\r\n"
                                    b"Host: 127.0.0.1\r\n\r\n")
        finally:
            conn.close()
        return int(json.loads(body)["cache"]["stats"]["evictions"])

    def step(self, port: int, step_no: int, rate: float, duration: float,
             keep: Optional[List[Tuple[int, bytes]]] = None,
             probe: bool = False) -> openloop.StepOutcome:
        """Offer ``rate`` for ``duration`` seconds; answers are appended
        to ``keep``. A ladder ``probe`` stops early once it cannot meet
        the SLO."""
        due, keys = inputs.arrivals(self.seed, step_no, rate, duration,
                                    self.probs)
        n = len(due)
        outcome = openloop.StepOutcome(rate=rate, planned=n)
        late = openloop.LateCounter(n, self.limit_s)
        done = np.full(n, np.nan)
        bodies: List[Optional[bytes]] = [None] * n
        lock = threading.Lock()
        state = {"next": 0, "abort": False}
        conns = [Connection(port), Connection(port)]
        t0 = time.perf_counter() + 0.01

        def worker(conn: Connection) -> None:
            while True:
                with lock:
                    i = state["next"]
                    if i >= n or state["abort"]:
                        return
                    state["next"] = i + 1
                target = t0 + due[i]
                now = time.perf_counter()
                if target > now:
                    time.sleep(target - now)
                    now = time.perf_counter()
                outcome.lags.append(now - target)
                status, body = conn.exchange(self.requests[keys[i]])
                finished = time.perf_counter()
                done[i] = finished
                if status != 200:
                    with lock:
                        outcome.failures += 1
                    continue
                latency = finished - target
                bodies[i] = body
                with lock:
                    outcome.latencies.append(latency)
                    late.record(latency)
                    if probe and late.hopeless():
                        state["abort"] = True

        helper = threading.Thread(target=worker, args=(conns[1],))
        helper.start()
        try:
            worker(conns[0])
        finally:
            helper.join()
            for conn in conns:
                conn.close()
        outcome.elapsed = time.perf_counter() - t0
        sent = state["next"]
        outcome.aborted = bool(state["abort"])
        outcome.failures += n - min(sent, n)
        # Outstanding requests at each due time: due so far minus done.
        finished_at = np.sort(np.where(np.isnan(done), np.inf, done))
        absolute_due = t0 + due
        completed = np.searchsorted(finished_at, absolute_due, side="right")
        outcome.backlog = [int(v) for v in
                           (np.arange(1, n + 1) - completed)]
        if keep is not None:
            keep.extend((int(keys[i]), b) for i, b in enumerate(bodies)
                        if b is not None)
        return outcome

    def check(self, kept: List[Tuple[int, bytes]]) -> Tuple[int, List[str]]:
        """Every served body: identical to the key's pre-warm answer,
        and each distinct answer passes the miner and closed-form
        checks; a sample of pre-warm answers is bit-identical to an
        in-process engine replaying the same admission order."""
        from repro.serving.codec import decode_result

        failures: List[str] = []
        verdicts: Dict[int, List[str]] = {}
        reference = [json.loads(b)["result"] for b in self.prewarmed]
        for idx, ref in enumerate(reference):
            eq = decode_result(ref)
            verdicts[idx] = (checks.check_miner(eq)
                             + checks.check_homogeneous(eq))
        failed = 0
        for idx, body in kept:
            payload = json.loads(body)
            problems = list(verdicts[idx])
            result = payload.get("result")
            if payload.get("status") != "ok" or result is None:
                problems.append(f"bad payload {payload.get('status')}")
            elif (result["e"], result["c"]) != (reference[idx]["e"],
                                                reference[idx]["c"]):
                problems.append("served answer differs from pre-warm")
            if problems:
                failed += 1
                failures.append(problems[0])
        failed += self._replay(reference, failures)
        return failed, failures

    def _replay(self, reference: List[Dict[str, Any]],
                failures: List[str]) -> int:
        from repro.service.shards import ShardedScenarioCache
        from repro.serving.engine import ServingEngine

        engine = ServingEngine(cache=ShardedScenarioCache(n_shards=8,
                                                          maxsize=4096))
        replay = [engine.serve(spec) for spec in self.pool]
        picks = np.linspace(0, len(self.pool) - 1,
                            self.cfg["sample_checks"]).astype(int)
        failed = 0
        for k in picks:
            r = replay[int(k)]
            ref = reference[int(k)]
            if not (r.ok and list(r.value.e) == ref["e"]
                    and list(r.value.c) == ref["c"]):
                failed += 1
                failures.append(f"key {k}: served answer not bit-identical "
                                "to a direct engine solve")
        return failed


def launch(client: HotHttp, traced: bool, tag: str
           ) -> Tuple[Server, float]:
    """Start a server and pre-warm it; returns it with its set-up time."""
    start = time.perf_counter()
    server = Server(traced, tag)
    warmed = False
    try:
        client.prewarm(server.port)
        warmed = True
    finally:
        if not warmed:
            server.stop()
    return server, time.perf_counter() - start


def run(seed: int, seconds: float, traced: bool, cfg: Dict[str, Any],
        repeats: int) -> Dict[str, Any]:
    c = cfg["hot-http"]
    client = HotHttp(seed, c)
    setups = []
    server: Optional[Server] = None
    for k in range(repeats):
        if server is not None:  # a set-up measurement only
            server.stop()
            server.trace_path.unlink(missing_ok=True)
        server, setup = launch(client, traced, f"{os.getpid()}-{k}")
        setups.append(setup)
    assert server is not None
    rates = openloop.ladder(c["ladder"])
    nominal_idx = openloop.nearest_index(rates, c["nominal_rps"])
    kept: List[Tuple[int, bytes]] = []
    out: Dict[str, Any] = {"setups": setups}
    try:
        # As in the churn workload: the untraced run offers the nominal
        # rate for ``seconds``; the traced run splits the nominal step
        # into an untraced and a traced half, then searches the ladder
        # with tracing off.
        if traced:
            nominal_s = c["nominal_share"] * seconds
            plain = client.step(server.port, 0, rates[nominal_idx],
                                nominal_s / 2)
            evictions = client.evictions(server.port)
            server.signal(signal.SIGUSR1)
            time.sleep(0.05)
            nominal = client.step(server.port, 0, rates[nominal_idx],
                                  nominal_s / 2, kept)
            server.signal(signal.SIGUSR2)
            out["evictions"] = client.evictions(server.port) - evictions
            out["untraced"] = plain.verdict(client.limit_s)
            search = openloop.LadderSearch(
                rates, nominal_idx, out["untraced"]["meets"],
                seconds - nominal_s, c["step_min_s"],
                c["step_min_samples"])
            while (probe := search.next_probe()) is not None:
                index, duration = probe
                outcome = client.step(server.port, len(search.probes) + 1,
                                      rates[index], duration, probe=True)
                search.record(index, outcome.verdict(client.limit_s))
            out["slo_rate_rps"] = search.best_rate
            out["probes"] = search.probes
        else:
            busy = server.cpu_s()
            nominal = client.step(server.port, 0, rates[nominal_idx],
                                  seconds, kept)
            out["busy_s"] = server.cpu_s() - busy
        out["nominal"] = nominal.verdict(client.limit_s)
        out["peak_rss_mb"] = server.peak_rss_mb()
        out["latencies"] = nominal.latencies
        out["attempted"] = nominal.planned
        out["failed_requests"] = nominal.failures
    finally:
        server.stop()
    failed, failures = client.check(kept)
    out["samples"] = c["sample_checks"]
    out["failed_checks"] = failed
    out["failures"] = failures[:5]
    out["served"] = len(kept)
    out["trace_path"] = str(server.trace_path) if traced else None
    return out
