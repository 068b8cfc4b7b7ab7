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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.relational.schema import Schema, bare_name
from repro.relational.tuples import Row

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
        """Build a histogram from the finite numeric values; None if there are none."""
        numeric = [
            float(value)
            for value in values
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        numeric = [value for value in numeric if math.isfinite(value)]
        if not numeric:
            return None
        low, high = min(numeric), max(numeric)
        if high <= low:
            return cls(low=low, high=high, counts=[len(numeric)])
        histogram = cls(low=low, high=high, counts=[0] * max(1, buckets))
        for value in numeric:
            histogram.add(value)
        return histogram

    def add(self, value: object) -> bool:
        """Count a finite numeric ``value``; False (and no change) for anything else.

        A value outside ``[low, high]`` widens the range to reach it, unless
        the widened span would no longer be a finite float.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            value = float(value)
        except OverflowError:
            return False
        if not math.isfinite(value):
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

    def column_size_fraction(self, names: Sequence[str]) -> float:
        """Fraction of the average row size occupied by ``names`` (paper's ``A``)."""
        if self.average_row_size <= 0:
            return 1.0
        size = sum(self.column(name).average_size for name in names)
        return min(1.0, size / self.average_row_size)


def compute_column_statistics(
    name: str, values: Iterable[object]
) -> ColumnStatistics:
    """Compute exact statistics for one column from its values."""
    from repro.relational.types import value_size

    distinct = set()
    nulls = 0
    total_size = 0
    count = 0
    minimum = None
    maximum = None
    for value in values:
        count += 1
        total_size += value_size(value)
        if value is None:
            nulls += 1
            continue
        distinct.add(value)
        try:
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        except TypeError:
            # Heterogeneous or unorderable values: skip range tracking.
            minimum = None
            maximum = None
    return ColumnStatistics(
        name=name,
        distinct_count=len(distinct),
        null_count=nulls,
        average_size=(total_size / count) if count else 0.0,
        minimum=minimum,
        maximum=maximum,
    )


def compute_table_statistics(schema: Schema, rows: Sequence[Row]) -> TableStatistics:
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


def scale_statistics(stats: TableStatistics, selectivity: float) -> TableStatistics:
    """Statistics after a filter of the given selectivity."""
    selectivity = min(max(selectivity, 0.0), 1.0)
    new_rows = int(round(stats.row_count * selectivity))
    scaled = TableStatistics(row_count=new_rows, average_row_size=stats.average_row_size)
    for name, column in stats.columns.items():
        scaled.columns[name] = ColumnStatistics(
            name=name,
            distinct_count=min(column.distinct_count, max(1, new_rows)),
            null_count=min(column.null_count, new_rows),
            average_size=column.average_size,
            minimum=column.minimum,
            maximum=column.maximum,
        )
    return scaled
