"""Table and column statistics.

The optimizer's cost model (and the paper's own cost model parameters) need a
handful of statistics per relation:

* cardinality (row count),
* per-column distinct-value counts (the paper's ``D`` parameter is the ratio
  of distinct argument tuples to input cardinality),
* per-column and per-row average serialized sizes (the ``A``, ``I`` and ``P``
  parameters are ratios of sizes).

Statistics are computed eagerly from in-memory tables — they are exact, which
keeps the experiments deterministic — but the classes also accept externally
supplied estimates so the optimizer can be exercised on hypothetical tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.relational.schema import Schema, bare_name
from repro.relational.types import ORDER_KEYS, value_sizes

#: Default number of equi-width buckets for column histograms.
DEFAULT_HISTOGRAM_BUCKETS = 8


@dataclass
class Histogram:
    """A small equi-width histogram over one numeric column.

    ``counts[i]`` holds the number of values falling in the *i*-th of
    ``len(counts)`` equal-width buckets spanning ``[low, high]``.  The range
    selectivity estimate assumes values are uniform within a bucket, which
    is the classic System-R refinement over a flat range default.
    """

    low: float
    high: float
    counts: List[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def build(
        cls, values: Iterable[object], buckets: int = DEFAULT_HISTOGRAM_BUCKETS
    ) -> Optional["Histogram"]:
        """Build a histogram from the values :meth:`add` counts (finite
        numbers, as floats); None if there are none.

        As :meth:`add` refuses to widen to a span past float range, a value
        that would stretch the span of the values before it that far is
        skipped, so no histogram holds a non-finite width.
        """
        numeric = _countable(list(values))
        if not numeric:
            return None
        low, high = min(numeric), max(numeric)
        if not math.isfinite(high - low):
            numeric = _finite_span(numeric)
            low, high = min(numeric), max(numeric)
        if high <= low:
            return cls(low=low, high=high, counts=[len(numeric)])
        buckets = max(1, buckets)
        width = (high - low) / buckets
        if not width:  # a span too narrow to divide: add puts every value in bucket 0
            return cls(low=low, high=high, counts=[len(numeric)] + [0] * (buckets - 1))
        tally = Counter([int((value - low) / width) for value in numeric])
        counts = [tally.pop(bucket, 0) for bucket in range(buckets)]
        counts[-1] += sum(tally.values())  # past the last edge by rounding: the last bucket
        return cls(low=low, high=high, counts=counts)

    def add(self, value: object) -> bool:
        """Count a finite numeric ``value``; False (and no change) for anything else.

        A value outside ``[low, high]`` widens the range to reach it, unless
        the widened span would no longer be a finite float.
        """
        value = _countable_value(value)
        if value is None:
            return False
        if value < self.low or value > self.high:
            low, high = min(self.low, value), max(self.high, value)
            if not math.isfinite(high - low):
                return False
            self._widen(low, high)
        width = (self.high - self.low) / len(self.counts)
        bucket = min(int((value - self.low) / width), len(self.counts) - 1) if width else 0
        self.counts[bucket] += 1
        return True

    def _widen(self, low: float, high: float) -> None:
        """Re-bucket over the wider ``[low, high]``, keeping the total.

        Each new bucket edge takes the old histogram's cumulative count there
        (uniform within an old bucket), rounded; bucket counts are the
        differences, so they stay whole and sum to the old total.
        """
        total = self.total
        buckets = len(self.counts) if self.high > self.low else DEFAULT_HISTOGRAM_BUCKETS
        width = (high - low) / buckets
        below = [round(total * self.fraction_below(low + i * width)) for i in range(1, buckets)]
        edges = [0] + below + [total]
        self.low, self.high = low, high
        self.counts = [after - before for before, after in zip(edges, edges[1:])]

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of values strictly below ``value``."""
        total = self.total
        if total <= 0:
            return 0.5
        if value <= self.low:
            return 0.0
        if value > self.high:
            return 1.0
        if self.high <= self.low:
            return 0.0 if value <= self.low else 1.0
        width = (self.high - self.low) / len(self.counts)
        covered = 0.0
        for index, count in enumerate(self.counts):
            start = self.low + index * width
            end = start + width
            if value >= end:
                covered += count
            elif value > start:
                covered += count * (value - start) / width
        return min(1.0, covered / total)

    def range_fraction(
        self, low: Optional[float] = None, high: Optional[float] = None
    ) -> float:
        """Estimated fraction of values in ``[low, high]`` (None = unbounded)."""
        below_high = 1.0 if high is None else self.fraction_below(float(high))
        below_low = 0.0 if low is None else self.fraction_below(float(low))
        return max(0.0, below_high - below_low)

    def to_dict(self) -> Dict[str, object]:
        return {"low": self.low, "high": self.high, "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Histogram":
        return cls(
            low=float(payload["low"]),
            high=float(payload["high"]),
            counts=[int(count) for count in payload["counts"]],
        )


def _countable_value(value: object) -> Optional[float]:
    """``value`` as the float a histogram counts, or None: only a finite
    number that is not a ``bool`` counts, and an int past float range not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _finite_span(values: Sequence[float]) -> List[float]:
    """``values`` in order, less each one that would stretch the span of
    those kept before it past float range."""
    low = high = values[0]
    kept = []
    for value in values:
        if math.isfinite(max(high, value) - min(low, value)):
            low, high = min(low, value), max(high, value)
            kept.append(value)
    return kept


def _countable(values: Sequence[object]) -> List[float]:
    """The values :meth:`Histogram.add` counts, as floats, in order: a column
    of plain ints, floats and NULLs is converted in one pass; any other, or
    one holding an int past float range, value by value."""
    kinds = set(map(type, values))
    if kinds <= {int, float, type(None)}:
        present = values
        if type(None) in kinds:
            present = [value for value in values if value is not None]
        try:
            return list(filter(math.isfinite, map(float, present)))
        except OverflowError:
            pass
    elif not any(issubclass(kind, (int, float)) and kind is not bool for kind in kinds):
        return []
    return [value for value in map(_countable_value, values) if value is not None]


def value_range(
    values: Sequence[Any], low: Optional[object] = None, high: Optional[object] = None
) -> Tuple[Optional[object], Optional[object]]:
    """``(low, high)`` folded over the non-NULL ``values`` in order, each
    replacing ``low`` when ``value < low`` and ``high`` when ``value >
    high`` (a None end is replaced outright).  So the first of equals wins
    and a NaN only when first; a pair that does not compare resets both ends
    to None and the fold goes on.  A column of one type of
    :data:`~repro.relational.types.ORDER_KEYS` compares by that key."""
    kinds = set(map(type, values))
    for end in (low, high):
        if end is not None:
            kinds.add(type(end))
    key = ORDER_KEYS.get(kinds.pop()) if len(kinds) == 1 else None
    try:
        return (
            min(values if low is None else chain((low,), values), key=key, default=None),
            max(values if high is None else chain((high,), values), key=key, default=None),
        )
    except TypeError:
        pass
    for value in values:
        try:
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        except TypeError:
            low = high = None
    return low, high


@dataclass
class ColumnStatistics:
    """Statistics for a single column of a relation."""

    name: str
    distinct_count: int = 0
    null_count: int = 0
    average_size: float = 0.0
    minimum: Optional[object] = None
    maximum: Optional[object] = None
    histogram: Optional[Histogram] = None


@dataclass
class TableStatistics:
    """Statistics for a whole relation."""

    row_count: int = 0
    average_row_size: float = 0.0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        if "." in name:
            name = name.partition(".")[2]
        if name not in self.columns:
            # SQL identifiers are case-insensitive: fall back to a
            # case-folded match before giving up on the name.
            lowered = name.lower()
            for key, stats in self.columns.items():
                if key.lower() == lowered:
                    return stats
            # Unknown columns get a neutral default so cost estimation can
            # proceed; this happens for derived columns (UDF results).
            return ColumnStatistics(name=name, distinct_count=max(1, self.row_count))
        return self.columns[name]

    def distinct_fraction(self, names: Sequence[str]) -> float:
        """Estimated fraction of rows that are distinct on ``names``.

        This is the paper's ``D`` parameter for a given argument-column set.
        Independence is assumed across columns, capped at 1.0.
        """
        if self.row_count <= 0:
            return 1.0
        distinct = 1.0
        for name in names:
            distinct *= max(1, self.column(name).distinct_count)
        distinct = min(distinct, float(self.row_count))
        return distinct / self.row_count


def compute_column_statistics(
    name: str, values: Iterable[object]
) -> ColumnStatistics:
    """Compute exact statistics for one column from its values, a pass per
    statistic; an unhashable value raises ``TypeError``."""
    values = list(values)
    present = [value for value in values if value is not None]
    kinds = set(map(type, present))
    key = ORDER_KEYS.get(kinds.pop()) if len(kinds) == 1 else None
    minimum, maximum = value_range(present)
    return ColumnStatistics(
        name=name,
        distinct_count=len(set(present if key is None else map(key, present))),
        null_count=len(values) - len(present),
        average_size=(sum(value_sizes(values)) / len(values)) if values else 0.0,
        minimum=minimum,
        maximum=maximum,
    )


def compute_table_statistics(schema: Schema, rows: Sequence[Sequence[Any]]) -> TableStatistics:
    """Compute exact statistics for a relation given its schema and rows."""
    from repro.relational.tuples import row_size

    stats = TableStatistics(row_count=len(rows))
    if rows:
        stats.average_row_size = sum(row_size(row, schema) for row in rows) / len(rows)
    for position, column in enumerate(schema.columns):
        stats.columns[column.name] = compute_column_statistics(
            column.name, (row[position] for row in rows)
        )
    return stats


def apply_observed_evidence(
    stats: TableStatistics, distinct_evidence: Mapping[str, float]
) -> TableStatistics:
    """Overlay runtime-observed distinct counts onto ``stats``.

    ``distinct_evidence`` maps bare column names to distinct-count estimates
    derived from observed predicate selectivities.  Columns the statistics
    already describe keep their computed values — evidence only replaces the
    neutral ``distinct_count = row_count`` default returned for columns the
    catalog knows nothing about (UDF results, derived columns).
    """
    if not distinct_evidence:
        return stats
    patched = TableStatistics(
        row_count=stats.row_count,
        average_row_size=stats.average_row_size,
        columns=dict(stats.columns),
    )
    known = {key.lower() for key in patched.columns}
    for name, distinct in distinct_evidence.items():
        bare = bare_name(name)
        if bare.lower() in known:
            continue
        capped = min(max(1, int(round(distinct))), max(1, stats.row_count))
        patched.columns[bare] = ColumnStatistics(name=bare, distinct_count=capped)
    return patched
