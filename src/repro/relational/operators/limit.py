"""LIMIT / OFFSET operator."""

from __future__ import annotations

from typing import Iterator

from repro.errors import OperatorError
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch


class Limit(Operator):
    """Yields at most ``count`` rows after skipping ``offset`` rows.

    Batch-native so the requested batch size propagates to the child:
    the overshoot of a small LIMIT over an expensive child pipeline is
    bounded by one child batch, not the child's default batch size.
    """

    def __init__(self, child: Operator, count: int, offset: int = 0) -> None:
        super().__init__([child])
        if count < 0 or offset < 0:
            raise OperatorError("Limit count and offset must be non-negative")
        self.count = count
        self.offset = offset
        self.schema = child.output_schema()

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        produced = 0
        skipped = 0
        for batch in self.child().execute_batches(batch_size):
            start = min(len(batch), self.offset - skipped)
            skipped += start
            take = min(self.count - produced, len(batch) - start)
            if take > 0:
                produced += take
                if start == 0 and take == len(batch):
                    yield batch
                else:
                    yield batch.slice(start, start + take)
            if produced >= self.count:
                return

    described = ("count", "offset")

    def describe(self) -> str:
        offset = f" OFFSET {self.offset}" if self.offset else ""
        return f"Limit({self.count}{offset})"
