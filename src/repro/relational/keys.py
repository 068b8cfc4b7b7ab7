"""Keys as dense integer codes, and their NULLs-first order.

Sorting, duplicate elimination and suffix statistics all ask the same thing
of a batch's key columns — which rows carry equal keys, and how the keys
order — and each used to answer it with its own hash pass over the *rows*.
:class:`KeyCodes` answers it once, from the key *columns*: one hash pass per
column gives every row the integer code of its key, and everything after it
(order, sizes, "already shipped") is computed per *distinct* key and looked
up per row by list index.  No tuple is built per row.
"""

from __future__ import annotations

from itertools import repeat
from math import isnan
from operator import add, lshift, or_
from typing import Any, List, Optional, Sequence, Tuple

from repro.relational.types import ORDER_KEYS, value_sizes


class _NullsFirstKey:
    """Sort key wrapper ordering None before any value, per column."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple) -> None:
        self.values = values

    def __lt__(self, other: "_NullsFirstKey") -> bool:
        for a, b in zip(self.values, other.values):
            if a is None and b is None:
                continue
            if a is None:
                return True
            if b is None:
                return False
            if a == b:
                continue
            return a < b
        return False


def column_codes(values: Sequence[Any], index: dict) -> List[int]:
    """Each value's code in ``index`` (value -> code), adding new values as
    they appear: equal values (as a ``dict`` judges it) share a code, and the
    first occurrence is the one ``index`` keeps.  Raises ``TypeError`` on an
    unhashable value."""
    return [index.setdefault(value, len(index)) for value in values]


def known_codes(values: Sequence[Any], index: dict) -> List[int]:
    """Each value's code in ``index``, -1 where it has none (adds nothing)."""
    return list(map(index.get, values, repeat(-1)))


#: Bits a code takes in a combined code: room for more distinct values than
#: a batch can hold.
_CODE_BITS = 32


def combine_codes(columns: Sequence[List[int]]) -> List[int]:
    """One int per row from per-column codes below ``2**_CODE_BITS``.

    Two rows combine alike exactly when every column's code is alike, the
    ints order like the rows' tuples of codes, and a negative code in any
    column makes the int negative.
    """
    combined = columns[0]
    for codes in columns[1:]:
        combined = list(map(or_, map(lshift, combined, repeat(_CODE_BITS)), codes))
    return combined


#: Exact types whose values ``sorted`` may compare as they are: a column of
#: one of them holds no NaN unless it is ``float``, and none is unhashable.
_PLAIN_ORDERED = frozenset({int, float, str, bool, bytes})


def _rank_distinct(column: Sequence[Any]) -> Optional[List[int]]:
    """Each value's rank in a column of *distinct*, non-NULL values of one
    type, from one sort over positions in C; ``None`` when the column is not
    such a column (NULLs, several types, a type it cannot rank, a NaN)."""
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    order_key = ORDER_KEYS.get(kind)
    if order_key is not None:
        sort_keys: Sequence[Any] = list(map(order_key, column))
    elif kind in _PLAIN_ORDERED and not (kind is float and any(map(isnan, column))):
        sort_keys = column
    else:
        return None
    # Distinct values compare unequal, so the sort's order is unique; its
    # inverse permutation is each value's rank.
    order = sorted(range(len(column)), key=sort_keys.__getitem__)
    return sorted(range(len(order)), key=order.__getitem__)


def _rank_keys(columns: Sequence[Sequence[Any]]) -> Optional[List[int]]:
    """One integer sort key per distinct key, ordering like :class:`_NullsFirstKey`, or ``None``.

    The ranks are unique: two distinct keys differ in some column.  One key
    column holds distinct values already, so it is ranked by one sort over
    its positions (:func:`_rank_distinct`).  Otherwise each key column's
    distinct values are sorted once (NULL ranks lowest) and every key gets
    the rank of its value; several columns combine their ranks into one int.
    A column of one type with an :data:`ORDER_KEYS` entry is compared by
    that key, in C, and holds no NaN.  ``None`` when there is no column, or
    a value is unhashable or a NaN (not equal to itself, so its place
    depends on the comparisons a sort happens to make).
    """
    if len(columns) == 1:
        ranks = _rank_distinct(columns[0])
        if ranks is not None:
            return ranks
    rank_columns = []
    for column in columns:
        try:
            distinct = set(column)
        except TypeError:
            return None
        distinct.discard(None)
        kinds = set(map(type, distinct))
        order_key = ORDER_KEYS.get(kinds.pop()) if len(kinds) == 1 else None
        if order_key is None and any(value != value for value in distinct):
            return None
        rank = {
            value: position
            for position, value in enumerate(sorted(distinct, key=order_key), start=1)
        }
        rank[None] = 0
        rank_columns.append(list(map(rank.__getitem__, column)))
    return combine_codes(rank_columns) if rank_columns else None


def _transpose(keys: Sequence[Tuple[Any, ...]]) -> List[List[Any]]:
    return [list(column) for column in zip(*keys)]


class KeyCodes:
    """The keys of a run of rows as integer codes.

    ``codes[row]`` numbers the row's key among the distinct keys, which
    ``columns`` holds column by column and ``keys`` as tuples (built once per
    distinct key, on first read): two rows carry the same code exactly when
    their keys are equal (as a ``dict`` of key tuples judges it), and key
    ``code`` is the first occurrence of that key.  Keys that cannot be hashed
    cannot be told apart, so every row gets its own code.
    """

    __slots__ = ("codes", "columns", "_keys", "_sizes")

    def __init__(
        self,
        codes: List[int],
        columns: List[List[Any]],
        keys: Optional[List[Tuple[Any, ...]]] = None,
        sizes: Optional[List[int]] = None,
    ) -> None:
        self.codes = codes
        self.columns = columns
        self._keys = keys
        self._sizes = sizes

    @classmethod
    def of(cls, tuples: Sequence[Tuple[Any, ...]]) -> "KeyCodes":
        """Codes in first-appearance order, from one hash pass over key ``tuples``."""
        index: dict = {}
        try:
            codes = column_codes(tuples, index)
        except TypeError:
            keys = list(tuples)
            return cls(list(range(len(keys))), _transpose(keys), keys)
        keys = list(index)
        return cls(codes, _transpose(keys), keys)

    @classmethod
    def of_columns(cls, columns: Sequence[List[Any]], length: int) -> "KeyCodes":
        """What :meth:`of` gives for the ``length`` rows of key ``columns``,
        coding a column at a time.

        One column codes its values directly; several combine their
        per-column codes into one int per row, and the distinct keys are
        read off the columns at each one's first row.
        """
        if not columns:
            return cls([0] * length, [], [()] if length else [])
        indexes = [{} for _ in columns]
        try:
            per_column = [column_codes(column, index) for column, index in zip(columns, indexes)]
        except TypeError:
            return cls(list(range(length)), list(columns))
        if len(columns) == 1:
            return cls(per_column[0], [list(indexes[0])])
        index: dict = {}
        codes = column_codes(combine_codes(per_column), index)
        first_rows = dict(zip(reversed(codes), range(length - 1, -1, -1)))
        rows = list(map(first_rows.__getitem__, range(len(index))))
        return cls(codes, [list(map(column.__getitem__, rows)) for column in columns])

    @property
    def count(self) -> int:
        """The number of distinct keys."""
        return len(self.columns[0]) if self.columns else len(self.keys)

    @property
    def keys(self) -> List[Tuple[Any, ...]]:
        """The distinct keys as tuples, in code order."""
        keys = self._keys
        if keys is None:
            keys = self._keys = list(zip(*self.columns))
        return keys

    def tuples(self) -> List[Tuple[Any, ...]]:
        """One key tuple per row (each row's first equal occurrence)."""
        keys = self.keys
        return [keys[code] for code in self.codes]

    def take(self, indexes: Sequence[int]) -> "KeyCodes":
        """The codes of the rows at ``indexes``, over the same keys."""
        return KeyCodes(
            list(map(self.codes.__getitem__, indexes)), self.columns, self._keys, self._sizes
        )

    @property
    def sizes(self) -> List[int]:
        """Value-based wire size of each distinct key (``values_size(keys[code])``).

        Equal keys need not size equally (``1 == 1.0 == True`` are one code
        at 4, 8 and 1 bytes): this is the size of the *first occurrence*, so
        it prices only what ships once per code.
        """
        sizes = self._sizes
        if sizes is None:
            sizes = [0] * self.count
            for column in self.columns:
                sizes = list(map(add, sizes, value_sizes(column)))
            self._sizes = sizes
        return sizes

    def order(self, reverse: bool = False) -> List[int]:
        """Stable row order of the keys, NULLs first.

        Equal to ``sorted(range(n), key=lambda i: _NullsFirstKey(tuples[i]))``,
        which costs a Python-level ``__lt__`` per comparison of two *rows*;
        here only the distinct keys' *values* are compared, and the rows sort
        by the unique integer rank of their code.  Keys that cannot be ranked
        (NaNs, unhashable values) take the wrapper path, row by row.
        """
        ranks = _rank_keys(self.columns)
        if ranks is None:
            row_places: List[Any] = [_NullsFirstKey(key) for key in self.tuples()]
        else:
            row_places = list(map(ranks.__getitem__, self.codes))
        return sorted(range(len(row_places)), key=row_places.__getitem__, reverse=reverse)


def nulls_first_order(keys: Sequence[Tuple], reverse: bool = False) -> List[int]:
    """Stable row order of ``keys`` (one tuple per row), NULLs first."""
    return KeyCodes.of(keys).order(reverse)
