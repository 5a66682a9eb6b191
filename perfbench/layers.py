"""Outside-in layer tracing: spans around the engine's public boundaries.

The tracer wraps functions of the engine's modules from the benchmark's
side; the engine itself is unchanged.  Every wrapped call becomes a span
with a name, start, end, parent span and request id.  Spans nest on a
per-thread stack (served queries run on pool threads), and each thread
aggregates into its own tables, merged when the run ends, so the hot
path takes no lock.

A layer's *busy* time counts only its outermost span on a thread (a
recursive DOM walk is not counted twice); its *self* time is span time
minus the time of its child spans.  Root spans are the operations the
benchmark times (``op``) or, in the server, the dispatch of one request
(``request``) and its admission (``admission``); their self time is the
time spent outside every named layer (``unattributed.ms``).

Spans are kept in memory (the first :data:`SPAN_CAP` of them; every span
is aggregated) and written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

#: Root span names: one per timed operation.
ROOTS = ("op", "request", "admission")

#: Spans with ids up to this are kept whole for the dump (the earliest
#: started); the aggregates see every span.
SPAN_CAP = 100_000


class _ThreadState:
    __slots__ = ("stack", "depth", "agg", "counters", "spans", "request")

    def __init__(self):
        self.stack: list[list] = []
        self.depth: dict[str, int] = {}
        #: (phase, name) -> [calls, busy_ns, self_ns]
        self.agg: dict[tuple[str, str], list[int]] = {}
        #: (phase, counter) -> value
        self.counters: dict[tuple[str, str], float] = {}
        self.spans: list[tuple] = []
        self.request = 0


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = iter(range(1, sys.maxsize))
        self._requests = iter(range(1, sys.maxsize))
        self.phase = "setup"
        #: constructed-fragment cache (hits, misses) when the run began
        self.shred_mark = (0, 0)
        self.dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> tuple:
        """Open a span; pass the result to :meth:`exit`."""
        state = self._state()
        stack = state.stack
        if not stack:
            state.request = next(self._requests)
        depth = state.depth.get(name, 0)
        state.depth[name] = depth + 1
        frame = [next(self._ids), 0]          # span id, child time
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        return state, name, frame, parent, depth == 0, \
            time.perf_counter_ns()

    def exit(self, token: tuple) -> None:
        """Close the span *token* opened."""
        end = time.perf_counter_ns()
        state, name, frame, parent, outer, start = token
        stack = state.stack
        stack.pop()
        state.depth[name] -= 1
        duration = end - start
        if stack:
            stack[-1][1] += duration
        key = (self.phase, name)
        row = state.agg.get(key)
        if row is None:
            row = state.agg[key] = [0, 0, 0]
        row[0] += 1
        if outer:
            row[1] += duration
        row[2] += duration - frame[1]
        if frame[0] <= SPAN_CAP:
            state.spans.append((frame[0], parent, name, start, end,
                                state.request))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        token = self.enter(name)
        try:
            yield
        finally:
            self.exit(token)

    def count(self, counter: str, value: float) -> None:
        """Add *value* to *counter* in the current thread's tables."""
        state = self._state()
        key = (self.phase, counter)
        state.counters[key] = state.counters.get(key, 0) + value

    # -- wrapping --------------------------------------------------------

    def wrap(self, target: str, name: str, hook=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` as span *name*.

        Module-level functions are also rebound in every loaded
        ``repro`` module that imported them by name.  *hook* is called
        as ``hook(tracer, args, kwargs, result)`` after each call.
        """
        module_name, _sep, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner, attr = module, path
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(token)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._rebind(owner, attr, wrapper)
        if owner is module:
            for other in list(sys.modules.values()):
                if other is not module \
                        and getattr(other, "__name__", "").startswith(
                            "repro") \
                        and other.__dict__.get(attr) is original:
                    self._rebind(other, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def totals(self, phase: str) -> tuple[dict, dict]:
        """Merged ``(agg, counters)`` of every thread for *phase*."""
        agg: dict[str, list[int]] = {}
        counters: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for (ph, name), row in list(state.agg.items()):
                if ph == phase:
                    total = agg.setdefault(name, [0, 0, 0])
                    for i in range(3):
                        total[i] += row[i]
            for (ph, name), value in list(state.counters.items()):
                if ph == phase:
                    counters[name] = counters.get(name, 0) + value
        return agg, counters

    def dump(self, path: str, **extra) -> None:
        """Write the kept spans, the aggregates and *extra* as JSON."""
        with self._lock:
            states = list(self._states)
        spans = sorted((s for state in states for s in state.spans),
                       key=lambda s: s[3])
        phases = sorted({ph for state in states for ph, _ in state.agg})
        payload = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns",
                       "request"],
            "spans": spans,
            "dropped": self.dropped,
            "totals": {ph: dict(zip(("agg", "counters"),
                                    self.totals(ph)))
                       for ph in phases},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# the boundaries of the engine's layers
# ----------------------------------------------------------------------

def _rows(result) -> int:
    offsets = getattr(result, "offsets", None)
    if offsets is not None:
        return int(offsets[-1])
    if isinstance(result, dict):
        return sum(len(v) for v in result.values())
    return len(result)


def _standoff_rows(tracer, args, kwargs, result) -> None:
    context = args[1] if len(args) > 1 else kwargs["context"]
    tracer.count("standoff_join.rows_in", len(context))
    tracer.count("standoff_join.rows_out", _rows(result))


def _staircase_rows(tracer, args, kwargs, result) -> None:
    context = args[2] if len(args) > 2 else kwargs["context"]
    tracer.count("staircase_join.rows_in", len(context[0]))
    tracer.count("staircase_join.rows_out", _rows(result))


def _predicate_items(tracer, args, kwargs, result) -> None:
    tracer.count("predicate.items", len(args[0]))


def _serialized_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("serialize.bytes", len(result.encode("utf-8")))


def _shard_jobs(tracer, args, kwargs, result) -> None:
    tracer.count("shards.jobs", len(args[0]))


def _plan_lookup(tracer, args, kwargs, result) -> None:
    tracer.count("plan_cache.misses" if result is None
                 else "plan_cache.hits", 1)


#: ``(target, span name, hook)`` for every wrapped boundary.
BOUNDARIES = (
    ("repro.xquery.engine:Database.compile", "compile", None),
    ("repro.xquery.engine:PlanCache.get", "plan_cache", _plan_lookup),
    ("repro.xquery.evaluator:evaluate_module", "eval", None),
    ("repro.xquery.bulk:evaluate_module_bulk", "eval", None),
    ("repro.xquery.standoff:standoff_axis_step", "standoff_glue", None),
    ("repro.xquery.standoff:standoff_axis_step_lifted", "standoff_glue",
     None),
    ("repro.xquery.standoff:standoff_function", "standoff_glue", None),
    ("repro.core.steps:standoff_step", "standoff_join", _standoff_rows),
    ("repro.staircase.kernels_vec:staircase_join", "staircase_join",
     _staircase_rows),
    ("repro.xquery.evaluator:_eval_standard_axis", "dom_walk", None),
    ("repro.xquery.bulk:_bulk_standard_axis", "dom_walk", None),
    ("repro.xquery.context:DynamicContext.shredded_for", "shred_lookup",
     None),
    ("repro.xmldb.shred:ShreddedDocument.node_by_pre", "decode", None),
    ("repro.xquery.evaluator:_filter_by_predicate", "predicate",
     _predicate_items),
    ("repro.xmldb.shred:shred_fragment", "construct", None),
    ("repro.xquery.engine:QueryResult.serialize", "serialize",
     _serialized_bytes),
    ("repro.xmldb.shred:shred", "build.shred", None),
    ("repro.xmldb.store:StoredDocument.region_index", "build.region_index",
     None),
    ("repro.xmldb.store:DocumentStore.touch", "build.invalidate", None),
    ("repro.xmldb.parser:parse_document", "load.parse", None),
    ("repro.exec.sharding:run_shards", "shards", _shard_jobs),
)

#: Server-side roots, installed only in the serving process.
SERVE_BOUNDARIES = (
    ("repro.serve.server:QueryServer._evaluate", "request", None),
    ("repro.serve.server:QueryServer.classify", "admission", None),
)

#: Per-layer metrics computed by :func:`layer_metrics` (name -> unit).
LAYER_METRICS = {
    "compile.calls": "count", "compile.ms": "ms",
    "plan_cache.hit_ratio": "ratio",
    "eval.self_ms": "ms",
    "standoff_glue.calls": "count", "standoff_glue.self_ms": "ms",
    "standoff_join.calls": "count", "standoff_join.ms": "ms",
    "standoff_join.rows_in": "count", "standoff_join.rows_out": "count",
    "standoff_join.yield": "ratio",
    "staircase_join.calls": "count", "staircase_join.ms": "ms",
    "staircase_join.rows_in": "count", "staircase_join.rows_out": "count",
    "dom_walk.calls": "count", "dom_walk.ms": "ms",
    "shred_lookup.calls": "count", "shred_lookup.ms": "ms",
    "decode.calls": "count", "decode.ms": "ms",
    "predicate.calls": "count", "predicate.items": "count",
    "predicate.ms": "ms",
    "construct.calls": "count", "construct.ms": "ms",
    "shred_cache.hit_ratio": "ratio",
    "serialize.ms": "ms", "serialize.bytes": "bytes",
    "build.shred.ms": "ms", "build.region_index.ms": "ms",
    "build.invalidations": "count",
    "load.parse_ms": "ms",
    "shards.jobs": "count",
    "kernel_share": "ratio",
    "unattributed.ms": "ms",
}


#: Modules that import a wrapped function by name; loaded before
#: wrapping so that every such binding is rebound (and restored).
_PRELOAD = ("repro", "repro.cli", "repro.serve", "repro.storage",
            "repro.xquery.evaluator", "repro.xquery.bulk")


def install(tracer: Tracer, *, serve: bool = False) -> Tracer:
    """Wrap every layer boundary (plus the server roots with *serve*)."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for target, name, hook in BOUNDARIES + (SERVE_BOUNDARIES if serve
                                            else ()):
        tracer.wrap(target, name, hook)
    return tracer


def start_run(tracer: Tracer) -> None:
    """Switch *tracer* to the measured phase.  Remembers the shred
    cache's counters (plain reads: this also runs in a signal handler)
    so the run's hit ratio excludes set-up."""
    from repro.xmldb.shred import SHRED_CACHE

    tracer.shred_mark = (SHRED_CACHE.hits, SHRED_CACHE.misses)
    tracer.phase = "run"


def shred_cache_delta(tracer: Tracer) -> tuple[int, int]:
    """The shred cache's ``(hits, misses)`` since :func:`start_run`."""
    from repro.xmldb.shred import SHRED_CACHE

    return (SHRED_CACHE.hits - tracer.shred_mark[0],
            SHRED_CACHE.misses - tracer.shred_mark[1])


def calibrate(tracer: Tracer, operations, count: int,
              repeats: int = 3) -> float:
    """Tracing overhead: run *operations* (a thunk doing *count*
    operations) untraced and traced, alternating, *repeats* times each;
    returns the difference of the fastest passes per operation in ms.
    Leaves the tracer installed."""
    phase = tracer.phase
    best = {False: float("inf"), True: float("inf")}
    for _ in range(repeats):
        for traced in (False, True):
            tracer.uninstall()
            if traced:
                install(tracer)
                tracer.phase = "calibrate"
            start = time.perf_counter()
            operations()
            best[traced] = min(best[traced], time.perf_counter() - start)
    tracer.phase = phase
    return (best[True] - best[False]) * 1000.0 / count


def layer_metrics(run: tuple[dict, dict], setup: tuple[dict, dict],
                  ops: int, shred_cache: tuple[int, int]) -> dict:
    """Per-operation layer metrics from the run phase's totals.

    Counts and times are divided by *ops*, the operations the traced
    run completed, so runs of different length compare.
    ``load.parse_ms`` is the set-up phase's mean time per document
    parse; *shred_cache* is the run's ``(hits, misses)`` of the
    process-wide constructed-fragment cache.
    """
    agg, counters = run
    per = 1.0 / max(ops, 1)

    def calls(name):
        return agg.get(name, [0, 0, 0])[0] * per

    def busy(name):
        return agg.get(name, [0, 0, 0])[1] * per / 1e6

    def self_ms(name):
        return agg.get(name, [0, 0, 0])[2] * per / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    hits = counters.get("plan_cache.hits", 0)
    misses = counters.get("plan_cache.misses", 0)
    rows_in = counters.get("standoff_join.rows_in", 0)
    rows_out = counters.get("standoff_join.rows_out", 0)
    root_ms = sum(busy(root) for root in ROOTS)
    out = {
        "compile.calls": calls("compile"),
        "compile.ms": busy("compile"),
        "plan_cache.hit_ratio": ratio(hits, hits + misses),
        "eval.self_ms": self_ms("eval"),
        "standoff_glue.calls": calls("standoff_glue"),
        "standoff_glue.self_ms": self_ms("standoff_glue"),
        "standoff_join.calls": calls("standoff_join"),
        "standoff_join.ms": busy("standoff_join"),
        "standoff_join.rows_in": rows_in * per,
        "standoff_join.rows_out": rows_out * per,
        "standoff_join.yield": ratio(rows_out, rows_in),
        "staircase_join.calls": calls("staircase_join"),
        "staircase_join.ms": busy("staircase_join"),
        "staircase_join.rows_in":
            counters.get("staircase_join.rows_in", 0) * per,
        "staircase_join.rows_out":
            counters.get("staircase_join.rows_out", 0) * per,
        "dom_walk.calls": calls("dom_walk"),
        "dom_walk.ms": busy("dom_walk"),
        "shred_lookup.calls": calls("shred_lookup"),
        "shred_lookup.ms": busy("shred_lookup"),
        "decode.calls": calls("decode"),
        "decode.ms": busy("decode"),
        "predicate.calls": calls("predicate"),
        "predicate.items": counters.get("predicate.items", 0) * per,
        "predicate.ms": busy("predicate"),
        "construct.calls": calls("construct"),
        "construct.ms": busy("construct"),
        "shred_cache.hit_ratio": ratio(shred_cache[0], sum(shred_cache)),
        "serialize.ms": busy("serialize"),
        "serialize.bytes": counters.get("serialize.bytes", 0) * per,
        "build.shred.ms": busy("build.shred"),
        "build.region_index.ms": busy("build.region_index"),
        "build.invalidations": calls("build.invalidate"),
        "load.parse_ms": ratio(setup[0].get("load.parse", [0, 0, 0])[1],
                               setup[0].get("load.parse", [0])[0]) / 1e6,
        "shards.jobs": counters.get("shards.jobs", 0) * per,
        "kernel_share": ratio(busy("standoff_join")
                              + busy("staircase_join"), root_ms),
        "unattributed.ms": sum(self_ms(root) for root in ROOTS),
    }
    return out
