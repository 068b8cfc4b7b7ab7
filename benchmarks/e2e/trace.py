"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces a fixed list of the program's public callables with
timing wrappers for the duration of the traced pass and restores them
afterwards, so the untraced rounds run the program's own code objects.  A
span is ``[name, op_id, parent, start, end]`` kept in memory; self time is a
span's duration minus the part its child spans cover.  Spans started on a
baton worker thread (tenancy, scatter-gather) nest under that thread's own
stack — exactly one thread runs at a time, so the per-thread trees tile the
operation's wall time without overlap.

``Simulator.step`` self time necessarily includes the operator and client
coroutine bodies the step resumes; the bare-simulator probe in
:mod:`probes` gives the kernel's own floor.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span record layout
NAME, OP_ID, PARENT, START, END = range(5)

#: Module-level functions: (module, attribute, span name).
FUNCTION_TARGETS = (
    ("repro.sql.lexer", "tokenize", "sql.lexer.tokenize"),
    ("repro.sql.parser", "parse", "sql.parser.parse"),
    ("repro.server.planner", "build_plan", "server.planner.build_plan"),
)

#: Methods: (module, class, method, span name).
METHOD_TARGETS = (
    ("repro.sql.binder", "Binder", "bind_sql", "Binder.bind_sql"),
    ("repro.core.optimizer.decision", "Optimizer", "optimize", "Optimizer.optimize"),
    ("repro.server.executor", "Executor", "execute_plan", "Executor.execute_plan"),
    ("repro.adaptive.observer", "RuntimeObserver", "observe", "RuntimeObserver.observe"),
    ("repro.adaptive.store", "StatisticsStore", "save", "StatisticsStore.save"),
    ("repro.storage.engine", "StorageEngine", "flush", "StorageEngine.flush"),
    ("repro.storage.buffer", "BufferManager", "pin", "BufferManager.pin"),
    ("repro.storage.file", "FileManager", "read", "FileManager.read"),
    ("repro.storage.file", "FileManager", "write", "FileManager.write"),
    ("repro.storage.file", "FileManager", "append", "FileManager.append"),
    ("repro.storage.index", "BTreeIndex", "search_eq", "BTreeIndex.search_eq"),
    ("repro.storage.index", "BTreeIndex", "search_range", "BTreeIndex.search_range"),
    ("repro.storage.index", "BTreeIndex", "insert", "BTreeIndex.insert"),
    ("repro.storage.index", "HashIndex", "search_eq", "HashIndex.search_eq"),
    ("repro.storage.index", "HashIndex", "insert", "HashIndex.insert"),
    ("repro.network.simulator", "Simulator", "step", "Simulator.step"),
    ("repro.network.link", "Link", "send", "Link.send"),
    ("repro.tenancy.baton", "BatonWorker", "await_event", "BatonWorker.await_event"),
    ("repro.distribution.planner", "ClusterPlanner", "plan", "ClusterPlanner.plan"),
)

#: Span names that belong to the storage layer (zero on in-memory workloads).
STORAGE_SPANS = frozenset(
    name
    for _module, cls, _method, name in METHOD_TARGETS
    if cls in ("StorageEngine", "BufferManager", "FileManager", "BTreeIndex", "HashIndex")
)
#: The query front end plus the post-run observation (plan_small's share).
FRONTEND_SPANS = (
    "sql.parser.parse",
    "Binder.bind_sql",
    "Optimizer.optimize",
    "server.planner.build_plan",
    "RuntimeObserver.observe",
)


class SpanTotals:
    """Per-name aggregate of one traced pass."""

    __slots__ = ("count", "total_s", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id = -1
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Values captured from wrapped calls, keyed by capture name.
        self.captured: Dict[str, list] = defaultdict(list)

    # -- wrapping ---------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        capture: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """A timing wrapper around ``function`` recording one span per call.

        ``capture(args, result)`` runs after a successful call, outside the
        span, so probes can collect the call's inputs or outputs.
        """
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, tracer.op_id, stack[-1] if stack else None, clock(), 0.0]
            spans.append(record)
            stack.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if capture is not None:
                capture(args, result)
            return result

        return traced

    def _replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Swap every target for its wrapper (idempotent per tracer)."""
        import importlib

        for module_name, attribute, span_name in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self.wrap(span_name, original)
            # ``from x import f`` copies the reference: replace every copy.
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attribute, None) is original
                ):
                    self._replace(module, attribute, wrapper)
        for module_name, class_name, method, span_name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            capture = CAPTURES[span_name](self) if span_name in CAPTURES else None
            self._replace(cls, method, self.wrap(span_name, getattr(cls, method), capture))
        # The enumerators an optimize() call builds carry plans_considered.
        from repro.core.optimizer.decision import Optimizer

        self._replace(
            Optimizer,
            "enumerator",
            _capturing(Optimizer.enumerator, self.captured["enumerators"]),
        )

    def wrap_udfs(self, registry: Any) -> None:
        """Trace the registered UDF callables of one UDF registry."""
        for definition in registry:
            self._replace(
                definition, "function", self.wrap(f"udf.{definition.name}", definition.function)
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- operations -------------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> list:
        self.op_id = op_id
        record = [f"op.{kind}", op_id, None, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._local.stack = [record]
        return record

    def end_op(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._local.stack = []
        self.op_id = -1

    # -- aggregation ------------------------------------------------------------------

    def _blocked(self) -> Dict[int, float]:
        """Seconds each span spent parked in ``BatonWorker.await_event`` below it.

        A worker blocked there is waiting for the driver thread, whose own
        spans account for that time; counting it again under the worker's
        ``execute_plan`` would book the same wall time twice.
        """
        blocked: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[NAME] == "BatonWorker.await_event":
                waited = span[END] - span[START]
                ancestor = span[PARENT]
                while ancestor is not None:
                    blocked[id(ancestor)] += waited
                    ancestor = ancestor[PARENT]
        return blocked

    def totals(self, scale: float = 1.0) -> Dict[str, SpanTotals]:
        """Count, busy total and self time per span name ("op" pools every op root).

        ``scale`` converts clock seconds to reference-speed seconds (the traced
        round's calibration, see :mod:`harness`).  "unattributed" is operation
        time no span covers on any thread: configuration shaping, result
        finalisation, thread hand-off.
        """
        blocked = self._blocked()
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                covered[id(parent)] += span[END] - span[START]
        totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        attributed = 0.0
        for span in self.spans:
            is_root = span[NAME].startswith("op.")
            duration = span[END] - span[START]
            busy = duration - blocked.get(id(span), 0.0)
            entry = totals["op" if is_root else span[NAME]]
            entry.count += 1
            entry.total_s += busy * scale
            entry.self_s += (duration - covered.get(id(span), 0.0)) * scale
            parent = span[PARENT]
            top_level = parent is None or parent[NAME].startswith("op.")
            if not is_root and top_level and span[NAME] != "BatonWorker.await_event":
                attributed += busy * scale
        totals["unattributed"].total_s = max(0.0, totals["op"].total_s - attributed)
        return totals

    def dump(self, path: str) -> None:
        """Write every span once, as JSON lines ``name, op, parent, start, end``."""
        import json

        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        [
                            span[NAME],
                            span[OP_ID],
                            index[id(parent)] if parent is not None else -1,
                            span[START],
                            span[END],
                        ]
                    )
                    + "\n"
                )


def _capturing(function: Callable[..., Any], sink: list) -> Callable[..., Any]:
    def captured(*args: Any, **kwargs: Any) -> Any:
        result = function(*args, **kwargs)
        sink.append(result)
        return result

    return captured


def _capture_link_send(tracer: Tracer) -> Callable[[tuple, Any], None]:
    sink = tracer.captured["messages"]

    def capture(args: tuple, _result: Any) -> None:
        link, message = args[0], args[1]
        sink.append((link.name.endswith("downlink"), message.size_bytes))

    return capture


def _capture_cluster_plan(tracer: Tracer) -> Callable[[tuple, Any], None]:
    sink = tracer.captured["shard_tasks"]

    def capture(_args: tuple, result: Any) -> None:
        sink.append(len(result.tasks))

    return capture


#: Per-span capture factories (everything else records time only).
CAPTURES = {
    "Link.send": _capture_link_send,
    "ClusterPlanner.plan": _capture_cluster_plan,
}
