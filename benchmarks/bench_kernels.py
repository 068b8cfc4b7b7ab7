"""Per-kernel host-time microbenchmarks: typed column buffers vs. scalar rows.

Unlike the figure benchmarks, which measure *simulated* seconds on the
network simulator, this file measures *host* CPU time of the data-plane
primitives the typed column buffers accelerate:

* ``filter`` — a compiled predicate kernel + ``take_mask`` vs. the bound
  scalar expression applied row by row;
* ``project`` — a compiled arithmetic-expression kernel vs. the bound
  expression applied row by row;
* ``join-key`` — bulk key-tuple extraction off column buffers vs. indexing
  each row tuple;
* ``aggregate`` — summing one column's plain values off a typed buffer vs.
  indexing scalar rows one by one.

The filter and project kernels are the vectorized ones; with NumPy present
they must beat the scalar path by >= 5x on a large batch — the PR's
acceptance bar for the typed data plane.  The join-key and aggregate paths
are column-wise but not NumPy-vectorized; they are reported (and must at
least not regress catastrophically), not held to the 5x bar.

Without NumPy (``REPRO_DISABLE_NUMPY=1`` or the numpy-free CI leg) the
vectorized kernels do not compile; the benchmark then only checks that the
typed storage fallback stays within a small factor of plain rows.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

import pytest

from conftest import snapshot
from repro.relational.columns import HAVE_NUMPY
from repro.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.relational.kernels import compile_expression, compile_filter
from repro.relational.schema import Schema
from repro.relational.tuples import RowBatch
from repro.relational.types import FLOAT, INTEGER
from repro.workloads.experiments import Sized, Sweep

REPEATS = 3

SCHEMA = Schema.of(("key", INTEGER), ("value", FLOAT), table="t")

PREDICATE = BooleanOp(
    "AND",
    [
        Comparison("<", ColumnRef("key"), Literal(700)),
        Comparison(">=", ColumnRef("value"), Literal(25.0)),
    ],
)

EXPRESSION = Arithmetic(
    "+", Arithmetic("*", ColumnRef("key"), Literal(3)), ColumnRef("value")
)


def make_rows(count: int) -> List[Tuple]:
    rows = []
    for index in range(count):
        key = index % 1000 if index % 97 else None
        rows.append((key, float(index % 513) * 0.25))
    return rows


def best_of(function: Callable[[], object]) -> float:
    """Host seconds for one call, best of ``REPEATS`` (reduces scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _filter(rows, batch):
    bound = PREDICATE.bind(SCHEMA)
    if HAVE_NUMPY:
        kernel = compile_filter(PREDICATE, SCHEMA)
        assert kernel is not None
        typed = lambda: batch.take_mask(kernel(batch))  # noqa: E731
    else:
        typed = lambda: batch.filter(bound)  # noqa: E731
    assert len(typed()) == sum(1 for row in rows if bound(row))
    return typed, lambda: [row for row in rows if bound(row)]


def _project(rows, batch):
    bound = EXPRESSION.bind(SCHEMA)
    scalar = lambda: [bound(row) for row in rows]  # noqa: E731
    if not HAVE_NUMPY:
        return (lambda: [bound(row) for row in batch.rows]), scalar
    kernel = compile_expression(EXPRESSION, SCHEMA)
    assert kernel is not None
    assert kernel(batch).to_list() == scalar()
    return (lambda: kernel(batch)), scalar


def _join_key(rows, batch):
    # What HashJoin build/probe does per batch: pull the key columns into
    # hashable tuples.  Typed storage serves this off the buffers in bulk;
    # the scalar path indexes every row tuple.  Fresh batch objects per run
    # so internal caches do not hide the work.
    columns, positions = batch.columns, (0,)
    return (
        lambda: RowBatch.from_columns(columns, len(rows)).key_tuples(positions),
        lambda: [tuple(row[position] for position in positions) for row in rows],
    )


def _aggregate(rows, batch):
    # One column's plain values: a typed buffer converts in one step; scalar
    # rows must be indexed one by one.
    columns = batch.columns
    return (
        lambda: sum(RowBatch.from_columns(columns, len(rows)).column_values(1)),
        lambda: sum(row[1] for row in rows),
    )


KERNELS = {"filter": _filter, "project": _project, "join-key": _join_key, "aggregate": _aggregate}


def kernel_point(kernel, rows):
    data = make_rows(rows)
    # Typed buffers with NumPy; without it every column stays a plain list.
    batch = RowBatch(list(data)).ensure_typed(SCHEMA)
    assert not HAVE_NUMPY or None not in (batch.typed_column(0), batch.typed_column(1))
    typed, scalar = KERNELS[kernel](data, batch)
    typed_seconds, scalar_seconds = best_of(typed), best_of(scalar)
    return {
        "rows": rows,
        "typed_ms": typed_seconds * 1e3,
        "scalar_ms": scalar_seconds * 1e3,
        "speedup": scalar_seconds / typed_seconds,
    }


SWEEP = Sweep(
    "kernels",
    kernel_point,
    axes={"kernel": tuple(KERNELS)},
    fixed={"rows": Sized(full=200_000, smoke=50_000)},
)


@pytest.mark.benchmark(group="kernels")
def test_kernel_speedups(run_sweep):
    records = run_sweep(SWEEP, f"Kernel microbenchmarks — best of {REPEATS} (host time)")
    snapshot("kernels", {"rows": records[0]["rows"], "numpy": HAVE_NUMPY, "records": records})

    by_kernel = {record["kernel"]: record["speedup"] for record in records}
    if HAVE_NUMPY:
        # The acceptance bar: the vectorized kernels beat the scalar path by
        # at least 5x on a large batch.
        assert by_kernel["filter"] >= 5.0, by_kernel
        assert by_kernel["project"] >= 5.0, by_kernel
        # Column-wise (not vectorized) paths must not regress badly.
        assert by_kernel["join-key"] >= 0.5, by_kernel
        assert by_kernel["aggregate"] >= 0.3, by_kernel
    else:
        # Typed storage is disabled: everything stays within a small factor
        # of the plain-row path.
        for kernel, speedup in by_kernel.items():
            assert speedup >= 0.2, (kernel, by_kernel)
