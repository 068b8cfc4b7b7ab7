"""Tests for the client runtime, UDF registry, result cache and sandbox."""

import pytest

from repro.errors import ChannelClosedError, SandboxViolation, UdfError, UdfExecutionError
from repro.client.cache import ResultCache
from repro.client.protocol import ArgumentBatch, PushedOperations, RecordBatch, RemoteCall
from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.client.sandbox import Sandbox, SandboxPolicy
from repro.client.udf import UdfDefinition, UdfSite
from repro.network.channel import Channel
from repro.network.message import Message, MessageKind, end_of_stream
from repro.network.simulator import Simulator
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import FLOAT, INTEGER

from client_faults import INJECTED, failing_from


class TestUdfDefinition:
    def test_invoke_counts_and_wraps_errors(self):
        udf = UdfDefinition("boom", lambda x: 1 / x, site=UdfSite.CLIENT)
        assert udf.invoke([2]) == 0.5
        assert udf.invocation_count == 1
        with pytest.raises(UdfExecutionError):
            udf.invoke([0])

    def test_validation(self):
        with pytest.raises(UdfError):
            UdfDefinition("notcallable", 42)  # type: ignore[arg-type]
        with pytest.raises(UdfError):
            UdfDefinition("bad", lambda x: x, selectivity=2.0)
        with pytest.raises(UdfError):
            UdfDefinition("bad", lambda x: x, cost_per_call_seconds=-1)

    def test_result_size_declared_or_measured(self):
        declared = UdfDefinition("f", lambda x: x, result_size_bytes=123)
        assert declared.result_size("anything") == 123
        measured = UdfDefinition("g", lambda x: x)
        assert measured.result_size(3.5) == 8

    def test_result_column_name(self):
        assert UdfDefinition("Analyze", lambda x: x).result_column_name == "Analyze_result"


class TestRegistry:
    def test_register_lookup_case_insensitive(self):
        registry = UdfRegistry()
        registry.register_function("Analyze", lambda x: x)
        assert registry.has("analyze")
        assert registry.get("ANALYZE").name == "Analyze"
        with pytest.raises(UdfError):
            registry.register_function("analyze", lambda x: x)
        registry.register_function("analyze", lambda x: x + 1, replace=True)

    def test_unregister(self):
        registry = UdfRegistry()
        registry.register_function("f", lambda x: x)
        registry.unregister("F")
        assert not registry.has("f")
        with pytest.raises(UdfError):
            registry.unregister("f")

    def test_site_partitions(self):
        registry = UdfRegistry()
        registry.register_function("clientfn", lambda x: x, site=UdfSite.CLIENT)
        registry.register_function("serverfn", lambda x: x, site=UdfSite.SERVER)
        assert registry.client_site_names() == ["clientfn"]
        assert registry.server_site_names() == ["serverfn"]
        assert set(registry.callables(UdfSite.CLIENT)) == {"clientfn"}

    def test_callables_are_invocable(self):
        registry = UdfRegistry()
        registry.register_function("double", lambda x: 2 * x)
        assert registry.callables()["double"](21) == 42

    def test_register_source_goes_through_sandbox(self):
        registry = UdfRegistry()
        registry.register_source("tripler", "def tripler(x):\n    return 3 * x\n")
        assert registry.get("tripler").invoke([4]) == 12
        with pytest.raises(SandboxViolation):
            registry.register_source("evil", "import os\ndef evil(x):\n    return x\n")


class TestSandbox:
    def test_compile_and_run(self):
        sandbox = Sandbox()
        fn = sandbox.compile_function(
            "def scorer(values):\n    return sum(values) / len(values)\n", "scorer"
        )
        assert fn([2, 4]) == 3

    @pytest.mark.parametrize(
        "source",
        [
            "import os\ndef f(x):\n    return x\n",
            "def f(x):\n    return eval('x')\n",
            "def f(x):\n    return open('/etc/passwd')\n",
            "def f(x):\n    return x.__class__\n",
            "def f(x):\n    return __import__('os')\n",
            "def f(x):\n    global state\n    return x\n",
            "def f(x):\n    return getattr(x, 'real')\n",
            "class F:\n    pass\n",
        ],
    )
    def test_forbidden_constructs_rejected(self, source):
        with pytest.raises(SandboxViolation):
            Sandbox().screen(source)

    def test_missing_entry_point(self):
        with pytest.raises(SandboxViolation):
            Sandbox().compile_function("def g(x):\n    return x\n", "f")

    def test_syntax_error_reported_as_violation(self):
        with pytest.raises(SandboxViolation):
            Sandbox().screen("def broken(:\n")

    def test_source_size_limit(self):
        policy = SandboxPolicy(max_source_bytes=10)
        with pytest.raises(SandboxViolation):
            Sandbox(policy).screen("def f(x):\n    return x\n")

    def test_while_loops_can_be_disabled(self):
        policy = SandboxPolicy(allow_while_loops=False)
        with pytest.raises(SandboxViolation):
            Sandbox(policy).screen("def f(x):\n    while True:\n        pass\n")

    def test_restricted_builtins_only(self):
        fn = Sandbox().compile_function(
            "def f(x):\n    return max(x, 0) + len([1, 2])\n", "f"
        )
        assert fn(-5) == 2



class TestResultCache:
    def test_hit_miss_and_eviction(self):
        """The cache keeps ``max_entries`` (10,000) results and evicts the
        least recently used past it."""
        assert ResultCache.max_entries == 10_000
        cache = ResultCache()
        key = ResultCache.key_for("f", (0,))
        found, _ = cache.get(key)
        assert not found
        cache.put(key, "zero")
        found, value = cache.get(key)
        assert found and value == "zero"
        for argument in range(1, 10_001):
            cache.put(ResultCache.key_for("f", (argument,)), argument)
        assert cache.evictions == 1
        assert len(cache) == 10_000
        assert cache.get(key) == (False, None)
        assert cache.get(ResultCache.key_for("f", (1,))) == (True, 1)
        assert 0 < cache.hit_rate < 1


def _run_runtime(runtime, messages, fast=True):
    """Drive a ClientRuntime serve loop with a scripted server."""
    sim = Simulator()
    bandwidth = 1_000_000.0 if fast else 1000.0
    channel = Channel(sim, bandwidth, bandwidth, latency=0.001)
    runtime.start(channel)
    replies = []

    def server():
        for message in messages:
            yield channel.send_to_client(message)
        yield channel.send_to_client(end_of_stream())
        while True:
            reply = yield channel.receive_at_server()
            replies.append(reply)
            from repro.network.message import is_end_of_stream

            if is_end_of_stream(reply):
                break

    sim.process(server())
    sim.run()
    return replies


class TestClientRuntime:
    def make_registry(self, fail_at=None):
        """``double`` at 0.01 s a call; with ``fail_at``, its ``fail_at``-th
        call and every later one raise."""

        def double(x):
            return 2 * x

        registry = UdfRegistry()
        registry.register_function(
            "double",
            double if fail_at is None else failing_from(fail_at, double),
            result_dtype=FLOAT,
            cost_per_call_seconds=0.01,
        )
        return registry

    def test_argument_batches_answered_in_order(self):
        runtime = ClientRuntime(registry=self.make_registry())
        call = RemoteCall("double", (0,))
        messages = [
            Message(MessageKind.UDF_ARGUMENTS, ArgumentBatch(call, [(1,), (2,)]), payload_bytes=8),
            Message(MessageKind.UDF_ARGUMENTS, ArgumentBatch(call, [(3,)]), payload_bytes=4),
        ]
        replies = _run_runtime(runtime, messages)
        results = [reply.payload.results for reply in replies if reply.kind is MessageKind.UDF_RESULT]
        assert results == [[2, 4], [6]]
        assert runtime.udf_invocations == 3
        assert runtime.compute_seconds == pytest.approx(0.03)

    def test_result_cache_avoids_duplicate_invocations(self):
        runtime = ClientRuntime(registry=self.make_registry())
        call = RemoteCall("double", (0,))
        message = Message(
            MessageKind.UDF_ARGUMENTS, ArgumentBatch(call, [(5,), (5,), (5,)]), payload_bytes=12
        )
        _run_runtime(runtime, [message])
        assert runtime.udf_invocations == 1
        assert runtime.cache_hits == 2

    def test_record_batch_applies_pushed_predicate_and_projection(self):
        runtime = ClientRuntime(registry=self.make_registry())
        extended = Schema([Column("value", INTEGER), Column("double_result", FLOAT)])
        pushed = PushedOperations(
            predicate=Comparison(">", ColumnRef("double_result"), Literal(5)),
            projection=(1,),
            extended_schema=extended,
        )
        batch = RecordBatch(calls=[RemoteCall("double", (0,))], rows=[(1,), (4,), (9,)], pushed=pushed)
        message = Message(MessageKind.RECORDS, batch, payload_bytes=12)
        replies = _run_runtime(runtime, [message])
        record_replies = [r for r in replies if r.kind is MessageKind.RECORDS_WITH_RESULTS]
        assert len(record_replies) == 1
        assert record_replies[0].payload.rows == [(8,), (18,)]
        assert runtime.rows_returned == 2

    def test_pushed_predicate_binds_once_per_operator_not_per_batch(self, monkeypatch):
        """A batch-1 client-site join sends one RecordBatch per row, all
        carrying the same PushedOperations: one ``bind`` must serve them all,
        with the rows and origin indexes of per-batch binding."""
        binds = []
        real_bind = Comparison.bind

        def counting_bind(self, *args, **kwargs):
            binds.append(self)
            return real_bind(self, *args, **kwargs)

        monkeypatch.setattr(Comparison, "bind", counting_bind)

        extended = Schema([Column("value", INTEGER), Column("double_result", FLOAT)])
        pushed = PushedOperations(
            predicate=Comparison(">", ColumnRef("double_result"), Literal(5)),
            projection=None,
            extended_schema=extended,
        )
        call = RemoteCall("double", (0,))
        values = [1, 4, 9, 2, 3, 7]

        def messages(batches):
            return [
                Message(
                    MessageKind.RECORDS,
                    RecordBatch(calls=[call], rows=[(v,) for v in chunk], pushed=pushed),
                    payload_bytes=4 * len(chunk),
                )
                for chunk in batches
            ]

        def answers(batches):
            replies = _run_runtime(ClientRuntime(registry=self.make_registry()), messages(batches))
            return [
                (reply.payload.rows, reply.payload.origin_indexes)
                for reply in replies
                if reply.kind is MessageKind.RECORDS_WITH_RESULTS
            ]

        per_row = answers([[v] for v in values])
        assert len(binds) == 1
        assert per_row == [
            ([(v, 2 * v)] if 2 * v > 5 else [], [0] if 2 * v > 5 else []) for v in values
        ]
        # A new serve loop binds afresh, and one big batch agrees row for row.
        whole = answers([values])
        assert len(binds) == 2
        assert whole == [([(v, 2 * v) for v in values if 2 * v > 5], [1, 2, 4, 5])]

    def test_unknown_udf_produces_error_message(self):
        runtime = ClientRuntime(registry=UdfRegistry())
        call = RemoteCall("missing", (0,))
        message = Message(MessageKind.UDF_ARGUMENTS, ArgumentBatch(call, [(1,)]), payload_bytes=4)
        replies = _run_runtime(runtime, [message])
        assert any(reply.kind is MessageKind.ERROR for reply in replies)

    def test_injected_failure_reports_error(self):
        runtime = ClientRuntime(registry=self.make_registry(fail_at=2))
        call = RemoteCall("double", (0,))
        message = Message(
            MessageKind.UDF_ARGUMENTS, ArgumentBatch(call, [(1,), (2,), (3,)]), payload_bytes=12
        )
        replies = _run_runtime(runtime, [message])
        assert any(reply.kind is MessageKind.ERROR for reply in replies)

    def test_injected_failure_keeps_the_counters_of_the_invocations_that_ran(self):
        """The batch loop counts in locals; a failure mid-batch must still
        leave what ran before it — and the failing attempt — on the runtime."""
        runtime = ClientRuntime(registry=self.make_registry(fail_at=3))
        call = RemoteCall("double", (0,))
        message = Message(
            MessageKind.UDF_ARGUMENTS,
            ArgumentBatch(call, [(1,), (1,), (2,), (3,), (4,)]),
            payload_bytes=20,
        )
        replies = _run_runtime(runtime, [message])
        errors = [reply.payload for reply in replies if reply.kind is MessageKind.ERROR]
        assert [type(error) for error in errors] == [UdfExecutionError]
        assert INJECTED in str(errors[0])
        assert runtime.udf_invocations == 3  # (1,), (2,) ran; (3,) was the injected failure
        assert runtime.invocations_of("double") == 2
        assert runtime.cache_hits == 1
        assert runtime.compute_seconds == runtime.compute_seconds_of("double") == 0.01 + 0.01

    def test_a_refused_reply_fails_the_serving_not_the_kernel(self):
        """Serving is kernel-entry calls: an exception in one (here the closed
        uplink refusing the answer) fails the event ``start`` returned, and
        the simulation runs on."""
        sim = Simulator()
        channel = Channel(sim, 1_000_000.0, 1_000_000.0, latency=0.001)
        runtime = ClientRuntime(registry=self.make_registry())
        serving = runtime.start(channel)
        call = RemoteCall("double", (0,))
        channel.send_to_client(
            Message(MessageKind.UDF_ARGUMENTS, ArgumentBatch(call, [(1,)]), payload_bytes=4)
        )
        channel.uplink.close()  # the answer is computed, then refused
        later = sim.timeout(1.0)
        sim.run()
        assert later.processed and serving.processed
        assert isinstance(serving._exception, ChannelClosedError)
        assert runtime.udf_invocations == 1 and runtime.messages_handled == 1

    def test_unhashable_arguments_are_invoked_uncached(self):
        """Arguments that cannot be hashed cannot be cache keys: the serve
        loop invokes them every time instead of dying on the cache probe
        (the guard used to wrap only the key's construction, which never
        raises, so ``TypeError: unhashable type: 'list'`` escaped)."""
        registry = UdfRegistry()
        registry.register_function("total", lambda xs: sum(xs), cost_per_call_seconds=0.01)
        runtime = ClientRuntime(registry=registry)
        call = RemoteCall("total", (0,))
        message = Message(
            MessageKind.UDF_ARGUMENTS,
            ArgumentBatch(call, [([1, 2, 3],), ([1, 2, 3],), ((4, 5),), ((4, 5),)]),
            payload_bytes=64,
        )
        replies = _run_runtime(runtime, [message])
        results = [reply.payload.results for reply in replies if reply.kind is MessageKind.UDF_RESULT]
        assert results == [[6, 6, 9, 9]]
        # The lists were invoked twice and never cached; the tuple was cached.
        assert runtime.udf_invocations == 3
        assert runtime.cache_hits == 1
        assert len(runtime.cache) == 1

    def test_final_results_are_collected(self):
        from repro.client.protocol import FinalResultBatch

        runtime = ClientRuntime(registry=self.make_registry())
        message = Message(
            MessageKind.FINAL_RESULTS, FinalResultBatch(rows=[(1, "a"), (2, "b")]), payload_bytes=20
        )
        _run_runtime(runtime, [message])
        assert runtime.delivered_rows == [(1, "a"), (2, "b")]
