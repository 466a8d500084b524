"""Benchmark-owned tracing: spans around calls into each layer.

:func:`instrument` wraps the program's public entry points at class or
module level (nothing under ``src/`` changes). Every wrapped call
records a span ``(request id, span id, parent id, name, start, end)``
in memory; the request id is minted by the outermost span and inherited
through a :mod:`contextvars` stack, so spans stay correct across
``await``. Solves the service hands to its executor thread are linked
back to the request that submitted them. :meth:`Recorder.dump` writes
the spans out when the traced process ends, and :class:`Aggregate`
turns them into per-layer durations, self times (span minus children)
and counts.

Tracing is for the separate traced run only: the end-to-end figures
come from runs in which nothing is wrapped.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(request id, span id, parent span id, name, start, end)``.
Span = Tuple[int, int, int, str, float, float]

_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = \
    contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """In-memory span and value store of one traced process."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Span] = []
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._links: Dict[int, Tuple[int, int]] = {}

    def next_id(self) -> int:
        return next(self._ids)

    def link(self, obj: Any, ctx: Tuple[int, int]) -> None:
        """Make ``ctx`` the parent of spans opened on another thread
        for a call that receives ``obj`` (the first live link wins:
        concurrent duplicates of one request join its solve)."""
        self._links.setdefault(id(obj), ctx)

    def unlink(self, obj: Any, ctx: Tuple[int, int]) -> None:
        if self._links.get(id(obj)) == ctx:
            del self._links[id(obj)]

    def linked(self, args: Tuple[Any, ...]) -> Optional[Tuple[int, int]]:
        for arg in args:
            ctx = self._links.get(id(arg))
            if ctx is not None:
                return ctx
        return None

    def dump(self, path: Path) -> None:
        """Write every span and value (one JSON document)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "values": self.values}, fh)


REC = Recorder()

Observe = Callable[[Any, Tuple[Any, ...]], None]


def _open(args: Tuple[Any, ...]) -> Tuple[int, int, int]:
    parent = _CURRENT.get()
    if parent is None:
        parent = REC.linked(args)
    sid = REC.next_id()
    rid = parent[0] if parent is not None else sid
    return rid, sid, (parent[1] if parent is not None else 0)


def wrap(fn: Callable[..., Any], name: str,
         observe: Optional[Observe] = None,
         link_arg: Optional[int] = None) -> Callable[..., Any]:
    """A span-recording wrapper of ``fn`` (sync or async).

    ``observe(result, args)`` records values after each traced call;
    ``link_arg`` names a positional argument whose identity links
    calls made on other threads with it back to this span.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            if not REC.enabled:
                return await fn(*args, **kwargs)
            rid, sid, parent = _open(args)
            token = _CURRENT.set((rid, sid))
            if link_arg is not None:
                REC.link(args[link_arg], (rid, sid))
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                if link_arg is not None:
                    REC.unlink(args[link_arg], (rid, sid))
                REC.spans.append((rid, sid, parent, name, start, end))
            if observe is not None:
                observe(result, args)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not REC.enabled:
            return fn(*args, **kwargs)
        rid, sid, parent = _open(args)
        token = _CURRENT.set((rid, sid))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            REC.spans.append((rid, sid, parent, name, start, end))
        if observe is not None:
            observe(result, args)
        return result
    return wrapper


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call (a wrapped no-op timed
    against the bare no-op; the calibration spans are discarded)."""
    def noop() -> None:
        return None

    wrapped = wrap(noop, "calibration")
    enabled, mark = REC.enabled, len(REC.spans)
    REC.enabled = True
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    REC.enabled = enabled
    del REC.spans[mark:]
    return max(traced - bare, 0.0) / calls


def _patch_function(module: str, attr: str, name: str,
                    observe: Optional[Observe] = None) -> None:
    """Replace a module-level function in every ``repro`` module that
    imported it by name, so callers see the wrapper whichever way
    they reach it."""
    original = getattr(sys.modules[module], attr)
    wrapped = wrap(original, name, observe)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _patch_method(cls: type, attr: str, name: str,
                  observe: Optional[Observe] = None,
                  link_arg: Optional[int] = None) -> None:
    setattr(cls, attr, wrap(getattr(cls, attr), name, observe, link_arg))


def _iterations(value_name: str) -> Observe:
    def observe(result: Any, _args: Tuple[Any, ...]) -> None:
        report = getattr(result, "report", None)
        if report is not None:
            REC.values[value_name].append(float(report.iterations))
    return observe


def _multiscenario(result: Any, args: Tuple[Any, ...]) -> None:
    REC.values["kernel.group_size"].append(float(len(args[0])))
    solved = [r for r in result if r is not None]
    REC.values["kernel.fallbacks"].append(float(len(result) - len(solved)))
    for r in solved:
        REC.values["kernel.iterations"].append(float(r.report.iterations))


def _served(results: Any, _args: Tuple[Any, ...]) -> None:
    for r in results:
        REC.values["engine.results"].append(1.0)
        REC.values["engine.degraded"].append(1.0 if r.degraded else 0.0)
        if r.source == "solved":
            REC.values["engine.warm"].append(
                1.0 if r.warm_key is not None else 0.0)


def _handled(response: Any, _args: Tuple[Any, ...]) -> None:
    result = response.result
    REC.values["service.requests"].append(1.0)
    REC.values["service.coalesced"].append(1.0 if response.coalesced
                                           else 0.0)
    REC.values["service.shed"].append(1.0 if response.status == 429
                                      else 0.0)
    REC.values["service.inline_hit"].append(
        1.0 if (result is not None and result.source == "memory"
                and not response.coalesced) else 0.0)


def _looked_up(result: Any, _args: Tuple[Any, ...]) -> None:
    REC.values["cache.hit"].append(0.0 if result[0] is None else 1.0)


def instrument() -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.core.gnep
    import repro.core.nep
    import repro.core.sp_game
    import repro.core.stackelberg
    import repro.kernels.multiscenario
    import repro.resilience.guard
    import repro.serving.codec
    import repro.serving.engine
    import repro.service  # noqa: F401  (binds codec names in server)
    from repro.core.sp_game import DemandOracle
    from repro.resilience.guard import SolverGuard
    from repro.service.admission import AdmissionController
    from repro.service.server import ServiceServer
    from repro.service.service import EquilibriumService
    from repro.service.shards import ShardedScenarioCache
    from repro.serving.cache import ScenarioCache
    from repro.serving.engine import ServingEngine
    from repro.serving.warmstart import WarmStartIndex

    _patch_function("repro.serving.codec", "decode_spec",
                    "codec.decode_spec")
    _patch_function("repro.serving.codec", "encode_result",
                    "codec.encode_result")
    _patch_function("repro.kernels.multiscenario",
                    "solve_connected_multiscenario", "kernel.multiscenario",
                    _multiscenario)
    _patch_function("repro.core.nep", "solve_connected_equilibrium",
                    "nep.solve", _iterations("nep.iterations"))
    _patch_function("repro.core.gnep", "solve_standalone_equilibrium",
                    "gnep.solve")
    _patch_function("repro.core.stackelberg", "solve_stackelberg",
                    "stackelberg.solve")
    _patch_method(ServiceServer, "_route", "server.route")
    _patch_method(EquilibriumService, "handle", "service.handle",
                  _handled, link_arg=1)
    _patch_method(AdmissionController, "acquire", "admission.acquire")
    _patch_method(ServingEngine, "serve", "engine.serve")
    _patch_method(ServingEngine, "serve_batch", "engine.serve_batch",
                  _served)
    _patch_method(ServingEngine, "key_for", "keys.key")
    for cache_cls in (ShardedScenarioCache, ScenarioCache):
        _patch_method(cache_cls, "lookup", "cache.lookup",
                      _looked_up if cache_cls is ScenarioCache else None)
        _patch_method(cache_cls, "put", "cache.put")
    _patch_method(WarmStartIndex, "add", "warmstart.add")
    _patch_method(WarmStartIndex, "suggest", "warmstart.suggest")
    _patch_method(SolverGuard, "run", "guard.run")
    _patch_method(DemandOracle, "equilibrium", "oracle.equilibrium")


class Aggregate:
    """Per-name durations, self times and parent/child relations.

    A span nested inside a span of the same name (the sharded cache
    calling its shard) counts once, at the outermost level.
    """

    def __init__(self, spans: List[Span]) -> None:
        self.by_id = {s[1]: s for s in spans}
        self.child_time: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s[2]:
                self.child_time[s[2]] += s[5] - s[4]
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_times: Dict[str, List[float]] = defaultdict(list)
        self.spans: Dict[str, List[Span]] = defaultdict(list)
        self.roots: List[Span] = []
        for s in spans:
            parent = self.by_id.get(s[2])
            if parent is not None and parent[3] == s[3]:
                continue
            duration = s[5] - s[4]
            self.durations[s[3]].append(duration)
            self.self_times[s[3]].append(duration - self.child_time[s[1]])
            self.spans[s[3]].append(s)
            if not s[2]:
                self.roots.append(s)

    def count(self, name: str) -> int:
        return len(self.durations.get(name, []))

    def count_under(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is ``parent``."""
        total = 0
        for s in self.spans.get(child, []):
            p = self.by_id.get(s[2])
            if p is not None and p[3] == parent:
                total += 1
        return total

    def uncovered_share(self) -> float:
        """Share of root-span time not covered by a child span."""
        total = covered = 0.0
        for s in self.roots:
            total += s[5] - s[4]
            covered += min(self.child_time[s[1]], s[5] - s[4])
        return 1.0 - covered / total if total > 0 else 0.0


def load(path: Path) -> Tuple[List[Span], Dict[str, List[float]]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [tuple(s) for s in doc["spans"]], doc["values"]
