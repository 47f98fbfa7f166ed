"""Span tracing the benchmark wraps around the program's layer functions.

Nothing here is part of the program: during a traced pass the benchmark
replaces a fixed list of public layer functions (:data:`TARGETS` plus the
four :class:`~repro.prefetchers.base.Prefetcher` hooks of every paper
prefetcher) with thin wrappers, and restores the originals afterwards.
Untraced passes call :func:`assert_pristine`, which fails if any wrapper
is still installed, so end-to-end numbers are never measured through the
tracer.

Each wrapper pushes a frame on a per-thread stack.  On exit the frame's
duration is added to its layer's inclusive time, the duration minus the
time its child frames covered is added to the layer's self time, and the
duration is added to the parent frame's child time (and to a
parent/child table, which the layer-sum check reads).  Per-event layers
(cache hierarchy, prefetcher hooks, columnar decode) are only
aggregated; coarse layers additionally keep one span record each
(id, parent id, layer, thread, start, end), held in memory and written
out when the benchmark ends.

Prefetcher hooks do not nest: when CBWS+SMS calls its inner CBWS and SMS
hooks, the inner calls run unwrapped and their time belongs to the
outer CBWS+SMS hook.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: The four prefetcher hooks the engine calls.
HOOKS = ("on_access", "on_block_begin", "on_block_end", "on_l1_eviction")

#: (layer label, module, attribute path) of every wrapped layer function.
#: Module-level functions are also replaced wherever another ``repro``
#: module imported them by name.
TARGETS = (
    ("workloads.build_trace", "repro.workloads.base", "build_trace"),
    ("trace.columns", "repro.trace.stream", "Trace.columns"),
    ("trace.read", "repro.trace.io", "read_trace"),
    ("trace.write", "repro.trace.io", "write_trace"),
    ("sim.run", "repro.sim.engine", "SimulationEngine.run"),
    ("memory.demand_access", "repro.memory.hierarchy",
     "CacheHierarchy.demand_access_fast"),
    ("memory.prefetch_fill", "repro.memory.hierarchy",
     "CacheHierarchy.prefetch_fill_fast"),
    ("exec.sim_key", "repro.exec.keys", "sim_key"),
    ("exec.cache_get", "repro.exec.cache", "ResultCache.get"),
    ("exec.cache_put", "repro.exec.cache", "ResultCache.put"),
    ("exec.journal_append", "repro.exec.journal", "RunJournal.append"),
    ("harness.render", "repro.harness.experiments", "Figure14Result.render"),
    ("serve.submit", "repro.serve.client", "ServeClient.submit"),
)

#: Layers called once per cell or coarser: these keep span records.
COARSE = frozenset({
    "workloads.build_trace", "trace.read", "trace.write", "sim.run",
    "exec.sim_key", "exec.cache_get", "exec.cache_put",
    "exec.journal_append", "harness.render", "serve.submit", "serve.wait",
})

_MARK = "_perfbench_original"


def metric_prefetcher_name(name: str) -> str:
    """A prefetcher name as it appears in metric names."""
    return name.replace("+", "-").replace("/", "-")


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    """(owner object, attribute name) of one dotted target."""
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _hook_owners() -> list[tuple[type, str]]:
    """(defining class, hook) pairs the paper prefetchers dispatch to."""
    from repro.harness.registry import PAPER_PREFETCHER_ORDER, make_prefetcher

    owners: list[tuple[type, str]] = []
    for name in PAPER_PREFETCHER_ORDER:
        mro = type(make_prefetcher(name)).__mro__
        for hook in HOOKS:
            owner = next(cls for cls in mro if hook in vars(cls))
            if (owner, hook) not in owners:
                owners.append((owner, hook))
    return owners


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None]


def assert_pristine() -> None:
    """Raise if any traced-pass wrapper is still installed anywhere."""
    leftovers = []
    for module in _repro_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                leftovers.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                leftovers.extend(
                    f"{module.__name__}.{attr}.{member}"
                    for member, item in vars(value).items()
                    if hasattr(item, _MARK))
    if leftovers:
        raise AssertionError(
            "untraced pass found tracer wrappers installed: "
            + ", ".join(sorted(set(leftovers))))


@dataclass
class _ThreadState:
    #: Open frames: [label, child seconds, span id or None, start].
    stack: list = field(default_factory=list)
    #: label -> [calls, inclusive seconds, self seconds].
    totals: dict = field(default_factory=dict)
    #: (parent label, child label) -> inclusive seconds.
    children: dict = field(default_factory=dict)
    #: Depth of open prefetcher-hook frames (hooks do not nest).
    in_hook: int = 0


@dataclass
class SimTotals:
    """Simulated counts summed over every result ``sim.run`` returned."""

    events: int = 0
    demand_accesses: int = 0
    l1_misses: int = 0
    #: prefetcher -> [issued, useful, llc misses, instructions].
    by_prefetcher: dict = field(default_factory=dict)


class Tracer:
    """Installs layer wrappers, and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()
        self._next_span = 0
        self.spans: list[tuple] = []
        self.sim = SimTotals()
        self.cache_hits = 0
        self.cache_gets = 0

    # -- per-thread state -----------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    # -- recording ------------------------------------------------------

    def _enter(self, state: _ThreadState, label: str) -> list:
        span_id = None
        if label in COARSE:
            with self._lock:
                self._next_span += 1
                span_id = self._next_span
        frame = [label, 0.0, span_id, time.perf_counter()]
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        label, child, span_id, start = frame
        duration = end - start
        totals = state.totals.get(label)
        if totals is None:
            totals = state.totals[label] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        if stack:
            parent = stack[-1]
            parent[1] += duration
            key = (parent[0], label)
            state.children[key] = state.children.get(key, 0.0) + duration
        if span_id is not None:
            parent_id = next((f[2] for f in reversed(stack)
                              if f[2] is not None), None)
            with self._lock:
                self.spans.append((span_id, parent_id, label,
                                   threading.get_ident(),
                                   start - self._epoch, end - self._epoch))

    def span(self, label: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span named ``label`` (nothing patched).

        ``on_result``, if given, is called with the call's arguments and
        its result, outside the span.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            frame = tracer._enter(state, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(state, frame)
            if on_result is not None:
                on_result(*args, result)
            return result

        setattr(traced, _MARK, fn)
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def _hook_span(self, hook: str, fn: Callable) -> Callable:
        tracer = self
        labels: dict[str, str] = {}

        def traced(prefetcher: Any, *args: Any) -> Any:
            state = tracer._state()
            if state.in_hook:
                return fn(prefetcher, *args)
            name = prefetcher.name
            label = labels.get(name)
            if label is None:
                label = labels[name] = (
                    f"prefetchers.{metric_prefetcher_name(name)}.{hook}")
            state.in_hook += 1
            frame = tracer._enter(state, label)
            try:
                return fn(prefetcher, *args)
            finally:
                tracer._exit(state, frame)
                state.in_hook -= 1

        setattr(traced, _MARK, fn)
        traced.__name__ = hook
        return traced

    def _record_sim(self, engine: Any, trace: Any, result: Any) -> None:
        sim = self.sim
        with self._lock:
            sim.events += len(trace.events)
            sim.demand_accesses += result.demand_accesses
            sim.l1_misses += result.l1_misses
            row = sim.by_prefetcher.setdefault(engine.prefetcher.name,
                                               [0, 0, 0, 0])
            row[0] += result.prefetches_issued
            row[1] += result.useful_prefetches
            row[2] += result.llc_misses
            row[3] += result.instructions

    def _record_get(self, cache: Any, key: str, result: Any) -> None:
        with self._lock:
            self.cache_gets += 1
            self.cache_hits += result is not None

    # -- install / restore ----------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target layer function (the traced pass only)."""
        assert_pristine()
        observers = {"sim.run": self._record_sim,
                     "exec.cache_get": self._record_get}
        for label, module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            wrapper = self.span(label, original, observers.get(label))
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # A module function: also replace every by-name import of it.
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, name, wrapper)
        for cls, hook in _hook_owners():
            self._patch(cls, hook, self._hook_span(hook, vars(cls)[hook]))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """label -> [calls, inclusive seconds, self seconds], all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for label, (calls, inclusive, own) in state.totals.items():
                row = merged.setdefault(label, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += inclusive
                row[2] += own
        return merged

    def children(self) -> dict[tuple[str, str], float]:
        """(parent label, child label) -> inclusive seconds, all threads."""
        merged: dict[tuple[str, str], float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, seconds in state.children.items():
                merged[key] = merged.get(key, 0.0) + seconds
        return merged


def wrapper_cost_seconds(calls: int = 200_000) -> float:
    """Measured cost one span wrapper adds to one call, in seconds."""

    def noop() -> None:
        return None

    tracer = Tracer()
    traced = tracer.span("calibration", noop)
    best_plain = best_traced = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        best_plain = min(best_plain, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        best_traced = min(best_traced, time.perf_counter() - started)
    return max(0.0, best_traced - best_plain) / calls
