"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import operator
import tempfile

from hypothesis import given, settings, strategies as st

from repro.adaptive import (
    BatchSizeController,
    OverlapWindowController,
    ReOptimizationPolicy,
    ReOptimizer,
    SwitchPolicy,
)
from repro.core.costmodel import CostModel, CostParameters
from repro.core.optimizer import OptimizationDecision, Optimizer
from repro.core.optimizer.cost import CostSettings
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.resources import Store
from repro.network.simulator import Simulator
from repro.network.topology import NetworkConfig
from repro.relational.columns import HAVE_NUMPY, scalar_fallback
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.operators import Distinct, HashJoin, MergeJoin, Sort, TableScan
from repro.relational.keys import _NullsFirstKey, nulls_first_order
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import Row, RowBatch, row_size, values_size
from repro.relational.types import (
    BOOLEAN,
    DATA_OBJECT,
    FLOAT,
    INTEGER,
    STRING,
    TIME_SERIES,
    DataObject,
    TimeSeries,
    value_size,
    value_sizes,
)
from repro.server.engine import Database
from repro.server.executor import Executor
from repro.storage.index import KeyInterval
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import SyntheticWorkload, interleaving_stride

FAST = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="prop-fast")


def int_table(name, column, values):
    return Table(name, Schema.of((column, INTEGER)), rows=[[v] for v in values])


# ---------------------------------------------------------------------------
# Relational operator algebra
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=-20, max_value=20), max_size=40))
@settings(max_examples=40, deadline=None)
def test_distinct_matches_set_semantics(values):
    table = int_table("t", "v", values)
    result = [row[0] for row in Distinct(TableScan(table)).run()]
    assert result == list(dict.fromkeys(values))


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=40))
@settings(max_examples=40, deadline=None)
def test_sort_matches_python_sorted(values):
    table = int_table("t", "v", values)
    result = [row[0] for row in Sort(TableScan(table), ["v"]).run()]
    assert result == sorted(values)


@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=25),
    st.lists(st.integers(min_value=0, max_value=6), max_size=25),
)
@settings(max_examples=40, deadline=None)
def test_hash_and_merge_join_match_brute_force(left_values, right_values):
    left = int_table("l", "k", left_values)
    right = int_table("r", "k", right_values)
    expected = sorted(
        (a, b) for a in left_values for b in right_values if a == b
    )
    hashed = sorted(
        (row[0], row[1])
        for row in HashJoin(TableScan(left), TableScan(right), ["l.k"], ["r.k"]).run()
    )
    merged = sorted(
        (row[0], row[1])
        for row in MergeJoin(
            Sort(TableScan(left), ["l.k"]),
            Sort(TableScan(right), ["r.k"]),
            ["l.k"],
            ["r.k"],
        ).run()
    )
    assert hashed == expected
    assert merged == expected


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_filter_partition_is_complete(values):
    table = int_table("t", "v", values)
    from repro.relational.operators import Filter

    low = Filter(TableScan(table), Comparison("<", ColumnRef("v"), Literal(4))).run()
    high = Filter(TableScan(table), Comparison(">=", ColumnRef("v"), Literal(4))).run()
    assert len(low) + len(high) == len(values)


# ---------------------------------------------------------------------------
# Simulation store (FIFO buffer) invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_store_preserves_fifo_order_for_any_capacity(items, capacity):
    sim = Simulator()
    store = Store(sim, capacity=capacity)

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        received = []
        for _ in items:
            value = yield store.get()
            received.append(value)
        return received

    sim.process(producer())
    consumer_process = sim.process(consumer())
    sim.run()
    assert consumer_process.value == items
    assert store.peak_occupancy <= capacity


# ---------------------------------------------------------------------------
# Cost model invariants
# ---------------------------------------------------------------------------


cost_parameters = st.builds(
    CostParameters.paper_experiment,
    input_record_bytes=st.integers(min_value=50, max_value=10_000),
    argument_fraction=st.floats(min_value=0.05, max_value=0.95),
    result_bytes=st.integers(min_value=0, max_value=10_000),
    selectivity=st.floats(min_value=0.0, max_value=1.0),
    asymmetry=st.floats(min_value=1.0, max_value=200.0),
)


@given(cost_parameters, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_csj_cost_is_monotone_in_selectivity(parameters, other_selectivity):
    lower, higher = sorted([parameters.selectivity, other_selectivity])
    low_cost = CostModel(parameters.with_selectivity(lower)).client_site_join_cost()
    high_cost = CostModel(parameters.with_selectivity(higher)).client_site_join_cost()
    assert low_cost.bottleneck_bytes <= high_cost.bottleneck_bytes + 1e-9
    # The semi-join is unaffected by the pushable predicate's selectivity.
    assert CostModel(parameters.with_selectivity(lower)).semi_join_cost().bottleneck_bytes == (
        CostModel(parameters.with_selectivity(higher)).semi_join_cost().bottleneck_bytes
    )


@given(cost_parameters)
@settings(max_examples=80, deadline=None)
def test_preferred_strategy_has_minimal_bottleneck_cost(parameters):
    model = CostModel(parameters)
    preferred = model.preferred_strategy()
    costs = {
        strategy: cost.bottleneck_bytes
        for strategy, cost in model.all_costs().items()
        if strategy.value != "naive"
    }
    assert costs[preferred] == min(costs.values())


# ---------------------------------------------------------------------------
# Execution strategy equivalence on random workloads
# ---------------------------------------------------------------------------


@given(
    row_count=st.integers(min_value=1, max_value=12),
    argument_fraction=st.sampled_from([0.25, 0.5, 0.75]),
    result_bytes=st.integers(min_value=8, max_value=400),
    selectivity=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    distinct_fraction=st.sampled_from([1.0, 0.5, 0.34]),
)
@settings(max_examples=20, deadline=None)
def test_strategies_agree_on_random_workloads(
    row_count, argument_fraction, result_bytes, selectivity, distinct_fraction
):
    workload = SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=240,
        argument_fraction=argument_fraction,
        result_bytes=result_bytes,
        selectivity=selectivity,
        distinct_fraction=distinct_fraction,
        udf_cost_seconds=0.0001,
    )
    outcomes = []
    for config in (StrategyConfig.naive(), StrategyConfig.semi_join(), StrategyConfig.client_site_join()):
        point = run_workload_point(workload, FAST, config)
        outcomes.append(point.rows)
    assert outcomes[0] == outcomes[1] == outcomes[2]


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=1_000))
@settings(max_examples=50, deadline=None)
def test_data_object_equality_consistent_with_hash(size, seed):
    assert DataObject(size, seed) == DataObject(size, seed)
    assert hash(DataObject(size, seed)) == hash(DataObject(size, seed))


# ---------------------------------------------------------------------------
# Bulk sizers and key codes vs. their scalar definitions
# ---------------------------------------------------------------------------

_NAN = float("nan")
#: One strategy per column type: values of one column compare with each other.
_TYPED_VALUES = {
    "int": st.integers(min_value=-3, max_value=3),
    "number": st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([1.0, 2.0, -0.0, 2.5, _NAN, float("nan")]),
        st.booleans(),
    ),
    "string": st.sampled_from(["", "a", "b", "ab", "naïve", "日本"]),
    "object": st.builds(DataObject, st.integers(0, 40), st.integers(0, 3)),
    "series": st.builds(
        TimeSeries, st.lists(st.sampled_from([0.0, 1.0, 2.5]), max_size=3)
    ),
    "list": st.lists(st.integers(0, 2), max_size=2),  # unhashable
}
if HAVE_NUMPY:
    import numpy

    _TYPED_VALUES["numpy"] = st.sampled_from(
        [numpy.float64(1.5), numpy.float64(2.0), numpy.int64(2), numpy.bool_(True)]
    )


def _columns(kinds, min_size=0):
    """Same-length columns, one per kind, each holding its kind's values and NULLs."""
    return st.integers(min_value=min_size, max_value=12).flatmap(
        lambda rows: st.tuples(
            *(
                st.lists(st.one_of(st.none(), _TYPED_VALUES[kind]), min_size=rows, max_size=rows)
                for kind in kinds
            )
        )
    )


_ANY_VALUE = st.one_of(
    st.none(),
    *_TYPED_VALUES.values(),
    st.binary(max_size=3),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "yz"])),
)


@given(
    st.one_of(
        st.lists(_ANY_VALUE, max_size=12),  # mixed-type columns
        *(
            st.lists(st.one_of(st.none(), values), max_size=12)
            for values in _TYPED_VALUES.values()
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_bulk_value_sizes_match_the_scalar_sizer(column):
    assert value_sizes(column) == [value_size(value) for value in column]
    assert RowBatch.from_columns([column]).values_bytes() == sum(map(value_size, column))


_DTYPE_VALUES = {
    INTEGER: st.integers(min_value=-5, max_value=5),
    FLOAT: st.one_of(st.integers(-2, 2), st.floats(allow_nan=False, width=32)),
    BOOLEAN: st.booleans(),
    STRING: _TYPED_VALUES["string"],
    DATA_OBJECT: _TYPED_VALUES["object"],
    TIME_SERIES: _TYPED_VALUES["series"],
}


@given(
    st.lists(st.sampled_from(list(_DTYPE_VALUES)), min_size=1, max_size=4).flatmap(
        lambda dtypes: st.tuples(
            st.just(dtypes),
            st.lists(
                st.tuples(*(st.one_of(st.none(), _DTYPE_VALUES[dtype]) for dtype in dtypes)),
                max_size=10,
            ),
        )
    ),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_bulk_row_sizes_match_the_scalar_sizers(case, typed):
    """Schema-based and value-based sizes, per column, per row and per batch,
    over plain and typed columns (an ``int`` in a FLOAT column is 8 bytes by
    schema and 4 by value; a ``bool`` never enters a numeric column)."""
    dtypes, rows = case
    schema = Schema.of(*((f"c{index}", dtype) for index, dtype in enumerate(dtypes)))
    batch = RowBatch([Row(row) for row in rows])
    if typed:
        batch.ensure_typed(schema)
    positions = list(range(len(dtypes)))
    for position, dtype in enumerate(dtypes):
        column = [row[position] for row in rows]
        assert dtype.serialized_sizes(column) == [dtype.serialized_size(v) for v in column]
    assert batch.row_sizes(schema) == [row_size(row, schema) for row in rows]
    assert batch.size_bytes(schema) == sum(row_size(row, schema) for row in rows)
    assert batch.value_sizes(positions) == [values_size(row) for row in rows]
    assert batch.values_bytes() == sum(values_size(row) for row in rows)


_HASHABLE_KINDS = [kind for kind in _TYPED_VALUES if kind != "list"]


@given(
    st.lists(st.sampled_from(_HASHABLE_KINDS), min_size=1, max_size=3).flatmap(_columns)
)
@settings(max_examples=200, deadline=None)
def test_key_codes_are_the_equality_classes_of_the_key_tuples(columns):
    """Two rows share a code exactly when their key tuples are equal (as a
    set would judge it: ``1``, ``1.0`` and ``True`` are one key, a NaN equals
    only itself); codes are dense and number the keys by first appearance."""
    batch = RowBatch.from_columns([list(column) for column in columns])
    positions = list(range(len(columns)))
    tuples = batch.key_tuples(positions)
    coded = batch.encode(positions)
    assert len(coded.codes) == len(tuples)
    assert coded.keys == list(dict.fromkeys(tuples))
    for code, key in enumerate(coded.keys):
        # A key is its first occurrence, object for object (1 stays 1, not 1.0).
        first = tuples[coded.codes.index(code)]
        assert all(mine is theirs for mine, theirs in zip(key, first))
    for code, key in zip(coded.codes, tuples):
        assert coded.keys[code] == key
    for left in range(len(tuples)):
        for right in range(left):
            assert (coded.codes[left] == coded.codes[right]) == (tuples[left] == tuples[right])
    # The sizes by code are the first occurrences', which equal rows need not share.
    assert coded.sizes == [values_size(key) for key in coded.keys]


@given(
    st.lists(
        st.sampled_from([kind for kind in _TYPED_VALUES if kind != "numpy"]),
        min_size=1,
        max_size=3,
    ).flatmap(_columns)
)
@settings(max_examples=300, deadline=None)
def test_order_by_code_is_the_nulls_first_order(columns):
    """Ranking the distinct keys and sorting rows by integer gives the stable
    NULLs-first order of the rows themselves — also where keys cannot be
    ranked (NaNs, unhashable lists) and the wrapper orders row by row."""
    batch = RowBatch.from_columns([list(column) for column in columns])
    positions = list(range(len(columns)))
    tuples = batch.key_tuples(positions)
    coded = batch.encode(positions)
    order = coded.order()
    for reverse in (False, True):
        assert nulls_first_order(tuples, reverse=reverse) == sorted(
            range(len(tuples)), key=lambda row: _NullsFirstKey(tuples[row]), reverse=reverse
        )
    assert order == nulls_first_order(tuples)
    assert coded.take(order).tuples() == [tuples[index] for index in order]


# ---------------------------------------------------------------------------
# Strategy equivalence: every execution mode vs. single-site execution
# ---------------------------------------------------------------------------


def single_site_reference(workload: SyntheticWorkload):
    """The query's answer computed locally, with no network or strategies.

    Replays the workload's data-generation and predicate semantics in plain
    Python: row ``i`` carries argument seed ``p(i) % distinct`` (``p`` the
    identity, or the interleaving stride permutation), the UDF maps a seed-S
    argument to a seed-S result of ``result_bytes`` bytes, and the predicate
    keeps rows whose result seed falls below the selectivity threshold.  The
    output is the ``(NonArgument, result)`` multiset every distributed
    execution must reproduce byte-for-byte.
    """
    distinct = max(1, int(round(workload.row_count * workload.distinct_fraction)))
    stride = interleaving_stride(workload.row_count) if workload.interleaved else 1
    threshold = workload.selectivity_threshold_seed
    rows = []
    for index in range(workload.row_count):
        position = (index * stride) % workload.row_count if workload.interleaved else index
        seed = position % distinct
        if seed < threshold:
            rows.append(
                (
                    DataObject(workload.non_argument_size, seed=index),
                    DataObject(workload.result_bytes, seed=seed),
                )
            )
    return sorted(rows, key=repr)


@given(
    row_count=st.integers(min_value=1, max_value=30),
    selectivity=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    distinct_fraction=st.sampled_from([1.0, 0.5]),
    batch_size=st.sampled_from([1, 3, 16]),
    strategy=st.sampled_from(list(ExecutionStrategy)),
    adaptive=st.booleans(),
    switching=st.booleans(),
    reoptimize=st.booleans(),
    interleaved=st.booleans(),
    declared_selectivity=st.sampled_from([None, 0.05, 0.95]),
    overlap_window=st.sampled_from([None, 1, 4]),
    typed_buffers=st.booleans(),
    paged_storage=st.booleans(),
    indexes=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_every_execution_mode_matches_single_site(
    row_count,
    selectivity,
    distinct_fraction,
    batch_size,
    strategy,
    adaptive,
    switching,
    reoptimize,
    interleaved,
    declared_selectivity,
    overlap_window,
    typed_buffers,
    paged_storage,
    indexes,
):
    """Strategy x batch x adaptive batching x switching x re-optimization x
    overlap window — every combination returns the exact single-site result
    multiset.

    The declared selectivity is deliberately allowed to lie (it only feeds
    the switcher's and re-optimizer's priors), and the tiny segment policies
    force multiple segments — and realistic switches / plan migrations —
    even on small inputs.  ``reoptimize`` routes execution through the
    :class:`PlanMigrationOperator` (it supersedes per-UDF switching when
    both are armed, like the engine path).  ``overlap_window`` exercises the
    overlapped shipping protocol from fully synchronous (1) through bounded
    overlap (4) to each strategy's default; with ``adaptive`` and no pinned
    window, the window is additionally adapted mid-query.  ``typed_buffers``
    runs the identical point with typed column storage (and vectorized
    kernels) disabled, so the typed and fully-scalar data planes face the
    same combinatorial sweep.  ``paged_storage`` feeds the execution from a
    slotted-page heap file behind a buffer pool instead of the in-memory
    rows, so the durable storage data path faces it too; ``indexes``
    additionally maintains a hash index on the argument column through every
    insert — an indexed table must return the identical result multiset.
    """
    workload = SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=120,
        argument_fraction=0.5,
        result_bytes=24,
        selectivity=selectivity,
        distinct_fraction=distinct_fraction,
        udf_cost_seconds=0.0001,
        interleaved=interleaved,
        declared_selectivity=declared_selectivity,
    )
    config = StrategyConfig(
        strategy=strategy, batch_size=batch_size, overlap_window=overlap_window
    )
    if adaptive:
        config = config.with_batch_controller(BatchSizeController())
        if overlap_window is None:
            config = config.with_overlap_controller(OverlapWindowController())
    if switching:
        config = config.with_switch_policy(
            SwitchPolicy(
                initial_segment_rows=4, min_rows_before_switch=4, max_segment_rows=16
            )
        )
    if reoptimize:
        config = config.with_reoptimizer(
            ReOptimizer(
                policy=ReOptimizationPolicy(
                    initial_segment_rows=4,
                    min_rows_before_replan=4,
                    max_segment_rows=16,
                    hysteresis=0.0,
                )
            )
        )
    def run_point():
        if not paged_storage:
            return run_workload_point(workload, FAST, config)
        with tempfile.TemporaryDirectory() as directory:
            return run_workload_point(
                workload, FAST, config, storage_dir=directory, indexes=indexes
            )

    if typed_buffers:
        point = run_point()
    else:
        with scalar_fallback():
            point = run_point()
    assert list(point.result_rows) == single_site_reference(workload)


# ---------------------------------------------------------------------------
# Index access: an interval scan answers exactly like the sequential scan
# ---------------------------------------------------------------------------

_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
#: Small domains, so duplicates, equal bounds and int-vs-float ties are common
#: (non-negative: the SQL grammar has no signed literal).
_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=16).map(lambda half: half / 2.0),
)
_STRINGS = st.sampled_from(["a", "b", "bb", "c", "d"])


@st.composite
def interval_cases(draw):
    numeric = draw(st.booleans())
    domain = _NUMBERS if numeric else _STRINGS
    values = draw(st.lists(st.one_of(st.none(), domain), min_size=1, max_size=40))
    conjuncts = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(_COMPARE)), domain, st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    return numeric, values, conjuncts


#: Few enough keys that bounds tie (also int against float) in most examples.
_TYING = st.sampled_from([1, 1.0, 1.5, 2, 2.0, 3])


@given(
    conjuncts=st.lists(st.tuples(st.sampled_from(sorted(_COMPARE)), _TYING), min_size=1, max_size=4),
    probes=st.lists(_NUMBERS, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_key_interval_fold_is_exact(conjuncts, probes):
    """The folded interval holds a key iff every conjunct does — never wider
    (the re-check filters above an index scan would hide that), never
    narrower — and it is empty or a point exactly when the conjunction is."""
    interval = KeyInterval.fold(conjuncts)

    def inside(value):
        above = interval.low is None or (
            value >= interval.low if interval.include_low else value > interval.low
        )
        below = interval.high is None or (
            value <= interval.high if interval.include_high else value < interval.high
        )
        return above and below

    for value in probes + [literal for _, literal in conjuncts]:
        assert inside(value) == all(_COMPARE[op](value, literal) for op, literal in conjuncts)
        assert not (interval.is_empty and inside(value))
        if interval.is_point:
            assert inside(value) == (value == interval.low)


@given(
    case=interval_cases(),
    kind=st.sampled_from(["btree", "hash"]),
    analyzed=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_interval_index_scan_matches_sequential_scan(case, kind, analyzed):
    """1-3 conjuncts on one indexed column, folded to one interval.

    Random numeric and string columns with duplicates and NULLs; literals on
    either side of the operator; int and float bounds that tie; equal bounds
    with mixed inclusivity; inverted and empty intervals; equality combined
    with a range; B-tree and hash, with and without a histogram.  Every
    index path the estimator offers, realised strictly, returns the
    multiset a plain-Python filter returns — and so do the pinned seq-scan
    plan and whatever ``optimize=True`` decides to run.
    """
    numeric, values, conjuncts = case
    rows = [(row_id, value) for row_id, value in enumerate(values)]
    texts = [
        f"{literal!r} {_MIRRORED[op]} T.V" if literal_first else f"T.V {op} {literal!r}"
        for op, literal, literal_first in conjuncts
    ]
    sql = "SELECT T.Id, T.V FROM T T WHERE " + " AND ".join(texts)
    expected = sorted(
        (row_id, value)
        for row_id, value in rows
        if value is not None and all(_COMPARE[op](value, literal) for op, literal, _ in conjuncts)
    )

    cost = CostSettings(block_access_seconds=0.005)
    with tempfile.TemporaryDirectory() as directory:
        db = Database(network=FAST, storage_dir=directory, cost_settings=cost)
        db.create_table("T", [("Id", INTEGER), ("V", FLOAT if numeric else STRING)], rows=rows)
        db.create_index("t_v", "T", "V", kind=kind)
        if analyzed:
            db.analyze("T")
        bound = db.bind(sql)

        def run(decision):
            executor = Executor(db.session.new_context(), session=db.session)
            result = executor.execute_query(bound, deliver_results=True, decision=decision)
            return result.plan_text, sorted(map(tuple, result.rows))

        plan_text, answer = run(OptimizationDecision.pinned(db.default_config))
        assert "IndexScan" not in plan_text and answer == expected

        enumerator = Optimizer(db.network, settings=cost).enumerator(bound)
        (table,) = enumerator.tables
        paths = [v.access_paths["T"] for v in enumerator.estimator.scan_variants(table)[1:]]
        served = [op for op, _, _ in conjuncts if kind == "btree" or op == "="]
        assert len(paths) == (1 if served else 0)
        for path in paths:
            assert len(path.predicate_keys) == len(served)
            plan_text, answer = run(
                OptimizationDecision.pinned(db.default_config, access_paths={"T": path})
            )
            assert "IndexScan(T AS T via t_v: " in plan_text
            assert plan_text.count("Filter(") == len(conjuncts)  # every re-check kept
            assert answer == expected

        chosen = db.execute(sql, optimize=True, deliver_results=True)
        assert sorted(map(tuple, chosen.rows)) == expected
        db.close()


# ---------------------------------------------------------------------------
# Multi-tenant execution: concurrency never changes answers
# ---------------------------------------------------------------------------


@given(
    concurrent_sessions=st.integers(min_value=1, max_value=4),
    strategy=st.sampled_from(
        [ExecutionStrategy.SEMI_JOIN, ExecutionStrategy.CLIENT_SITE_JOIN]
    ),
    discipline=st.sampled_from(["drr", "fifo"]),
    executor_slots=st.sampled_from([None, 1, 2]),
    repeat=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=10, deadline=None)
def test_concurrent_sessions_match_independent_runs(
    concurrent_sessions, strategy, discipline, executor_slots, repeat
):
    """K sessions on one shared trunk return exactly the multiset of wire
    results that K independent private runs return: fair queueing, admission
    queues, and interleaving reshuffle *time*, never bytes or rows."""
    from repro.tenancy import MultiTenantEngine, SessionWorkload
    from repro.workloads.multitenant import make_tenant_database, point_query_spec

    spec = point_query_spec(strategy=strategy)
    reference = make_tenant_database().execute(spec.sql, **spec.options)
    expected_trace = (
        reference.metrics.downlink_messages,
        reference.metrics.uplink_messages,
        reference.metrics.downlink_bytes,
        reference.metrics.uplink_bytes,
        reference.metrics.rows_returned,
    )

    engine = MultiTenantEngine(
        make_tenant_database(),
        fair_queueing=discipline,
        executor_slots=executor_slots,
    )
    report = engine.run(
        [
            SessionWorkload(
                tenant_id=f"t{index}",
                queries=[spec],
                repeat=repeat,
                think_time_seconds=0.05,
                jitter_fraction=0.5,
                seed=index,
            )
            for index in range(concurrent_sessions)
        ]
    )
    assert report.error_count == 0
    assert report.query_count == concurrent_sessions * repeat
    for record in report.records:
        metrics = record.metrics
        assert (
            metrics.downlink_messages,
            metrics.uplink_messages,
            metrics.downlink_bytes,
            metrics.uplink_bytes,
            metrics.rows_returned,
        ) == expected_trace
    if executor_slots is not None:
        assert engine.slots.peak_in_use <= executor_slots


# ---------------------------------------------------------------------------
# Scatter-gather: sharding/replication/placement never changes answers
# ---------------------------------------------------------------------------


@given(
    sites=st.integers(min_value=1, max_value=3),
    shards=st.integers(min_value=1, max_value=4),
    extra_replicas=st.integers(min_value=0, max_value=2),
    method=st.sampled_from(["hash", "range"]),
    strategy=st.sampled_from(
        [
            None,
            ExecutionStrategy.NAIVE,
            ExecutionStrategy.SEMI_JOIN,
            ExecutionStrategy.CLIENT_SITE_JOIN,
        ]
    ),
    rows=st.integers(min_value=1, max_value=18),
    segments=st.sampled_from([1, 3]),
    optimize=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_scatter_gather_matches_single_site(
    sites, shards, extra_replicas, method, strategy, rows, segments, optimize
):
    """Distributed execution over K shards x replica placement x sharding
    method x strategy x segmentation returns exactly the single-site result
    multiset.

    Replication is clamped to the site count (a shard cannot have more
    replicas than sites), and skewed shard sizes — including empty fragments
    when ``rows < shards`` — are part of the sweep by construction.
    """
    from repro.workloads.sharding import FILTER_SQL, make_sharded_setup

    single, dist = make_sharded_setup(
        sites=sites,
        shards=shards,
        replication_factor=min(sites, 1 + extra_replicas),
        rows=rows,
        series_points=4,
        method=method,
    )
    base = single.execute(FILTER_SQL, strategy=strategy, deliver_results=True)
    result = dist.execute(
        FILTER_SQL, strategy=strategy, optimize=optimize, segments=segments
    )
    assert result.row_set() == base.row_set()
    assert result.metrics.rows_returned == base.metrics.rows_returned
