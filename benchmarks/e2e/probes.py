"""Layer probes: one layer at a time, fed the workload's own inputs.

A probe calls a layer's public functions directly — no query, no other
layer in the way — so its number is that layer's floor for the inputs the
workload really uses.  Probes run after the traced pass, in the traced
process only, and never contribute to an end-to-end metric.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from harness import speed_factor

#: Upper bounds that keep every probe well under a second.
MAX_PROBE_MESSAGES = 20000
MAX_PROBE_CALLS = 20000
MAX_PROBE_HANDOFFS = 20000
PROBE_REPEATS = 3


def _best_of(function: Callable[[], Any], repeats: int = PROBE_REPEATS) -> float:
    """Median host seconds (at reference speed) of ``function()`` over ``repeats`` calls."""
    durations = []
    before = speed_factor()
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations) / ((before + speed_factor()) / 2.0)


# -- network: bare simulator + channel ----------------------------------------------------


def bare_simulator(messages: Sequence[Tuple[bool, int]], network: Any) -> Dict[str, float]:
    """Ship the traced pass's own message sizes over a bare Simulator + Channel.

    Two senders (one per direction) put each message on its link as soon as
    the link accepts it; two receivers drain the mailboxes.  No operator, no
    client runtime, no payload: what is left is the event kernel's cost of
    moving one message.
    """
    from repro.network.message import MESSAGE_OVERHEAD_BYTES, Message, MessageKind
    from repro.network.simulator import Simulator

    sample = list(messages[:MAX_PROBE_MESSAGES])
    if not sample:
        return {"network.bare_host_us_per_message": 0.0}
    down = [size - MESSAGE_OVERHEAD_BYTES for is_down, size in sample if is_down]
    up = [size - MESSAGE_OVERHEAD_BYTES for is_down, size in sample if not is_down]

    def run() -> None:
        simulator = Simulator()
        channel = network.build_channel(simulator, name="probe")

        def sender(sizes: List[int], send: Callable[[Message], Any]):
            for size in sizes:
                yield send(Message(MessageKind.UDF_ARGUMENTS, None, size))

        def receiver(count: int, receive: Callable[[], Any]):
            for _ in range(count):
                yield receive()

        simulator.process(sender(down, channel.send_to_client))
        simulator.process(receiver(len(down), channel.receive_at_client))
        simulator.process(sender(up, channel.send_to_server))
        simulator.process(receiver(len(up), channel.receive_at_server))
        simulator.run()

    return {"network.bare_host_us_per_message": _best_of(run) / len(sample) * 1e6}


# -- client: bare UDF calls ---------------------------------------------------------------


def udf_bare_call(
    functions: Dict[str, Callable[..., Any]], arguments: Dict[str, List[tuple]]
) -> Dict[str, float]:
    """Call each registered UDF callable directly on the generated arguments."""
    calls: List[Tuple[Callable[..., Any], tuple]] = []
    for name, function in functions.items():
        calls.extend((function, args) for args in arguments[name])
    calls = calls[:MAX_PROBE_CALLS]
    if not calls:
        return {"client.udf_bare_host_us_per_call": 0.0}

    def run() -> None:
        for function, args in calls:
            function(*args)

    return {"client.udf_bare_host_us_per_call": _best_of(run) / len(calls) * 1e6}


# -- relational: the server-side subtree below the first remote operator ------------------


def _walk(operator: Any) -> Iterable[Any]:
    yield operator
    for child in operator.children:
        yield from _walk(child)


def _server_subtree(db: Any, sql: str) -> Any:
    """The plan's operators below its first remote operator (the whole plan if none)."""
    from repro.client.udf import UdfSite
    from repro.server.planner import build_plan

    plan = build_plan(
        db.bind(sql),
        db.session.new_context(),
        config=db.default_config,
        server_functions=db.udfs.callables(UdfSite.SERVER),
    )
    if not plan.remote_operators:
        return plan.root
    return plan.remote_operators[0].children[0]


def _drain(operator: Any) -> int:
    """Pull every batch, as a parent operator would; returns the row count."""
    return sum(len(batch) for batch in operator.execute_batches())


def _drain_s(operator: Any) -> float:
    return _best_of(lambda: _drain(operator))


def server_subtree(db: Any, queries: Sequence[str]) -> Dict[str, float]:
    """Run each query's scan/filter/join subtree alone, and its filters and joins apart.

    A filter's (join's) own cost is the time to drain it minus the time to
    drain its children, per input row.
    """
    from repro.relational.operators import Filter, HashJoin

    subtree_s = 0.0
    own_s = {Filter: 0.0, HashJoin: 0.0}
    rows_in = {Filter: 0, HashJoin: 0}
    for sql in queries:
        subtree = _server_subtree(db, sql)
        subtree_s += _best_of(subtree.run)
        for operator in _walk(subtree):
            for kind in own_s:
                if isinstance(operator, kind):
                    children_s = sum(_drain_s(child) for child in operator.children)
                    own_s[kind] += max(0.0, _drain_s(operator) - children_s)
                    rows_in[kind] += sum(_drain(child) for child in operator.children)
    return {
        "relational.server_subtree_host_ms": subtree_s * 1e3,
        "relational.filter_host_ns_per_row": (
            own_s[Filter] / rows_in[Filter] * 1e9 if rows_in[Filter] else 0.0
        ),
        "relational.join_host_ns_per_row": (
            own_s[HashJoin] / rows_in[HashJoin] * 1e9 if rows_in[HashJoin] else 0.0
        ),
    }


# -- storage: index probe + heap fetch, no SQL --------------------------------------------


def storage_point_lookup(db: Any, table: str, index_name: str, keys: Sequence[Any]) -> Dict[str, float]:
    """``search_eq`` on the index then ``fetch_row`` on the heap, counting pool pins."""
    engine = db.storage
    handle = engine.index_handle(index_name)
    heap = engine.open_table(table)
    index_pages = total_pages = 0
    for key in keys:
        before = engine.buffer_stats().accesses
        rids = handle.search_eq(key)
        mid = engine.buffer_stats().accesses
        for rid in rids:
            heap.fetch_row(rid)
        after = engine.buffer_stats().accesses
        index_pages += mid - before
        total_pages += after - before
    count = max(1, len(keys))
    return {
        "storage.index_pages_per_lookup": index_pages / count,
        "storage.pages_per_point_lookup": total_pages / count,
    }


# -- tenancy: bare baton hand-offs ---------------------------------------------------------


def baton_handoff(handoffs: int, workers: int = 18) -> Dict[str, float]:
    """Workers that do nothing but wait on timeouts: the cost of one hand-off pair."""
    from repro.network.simulator import Simulator
    from repro.tenancy.baton import BatonDriver, BatonWorker

    total = min(int(handoffs), MAX_PROBE_HANDOFFS)
    if total <= 0:
        return {"tenancy.host_us_per_handoff": 0.0}
    per_worker = max(1, total // workers)

    class Waiter(BatonWorker):
        def run_body(self) -> None:
            for _ in range(per_worker):
                self.await_event(self.driver.simulator.timeout(0.001))

    def run() -> None:
        simulator = Simulator()
        driver = BatonDriver(simulator, description="hand-off probe")
        driver.run([Waiter(driver, f"probe-{index}") for index in range(workers)])

    return {"tenancy.host_us_per_handoff": _best_of(run) / (per_worker * workers) * 1e6}
