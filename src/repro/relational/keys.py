"""Key tuples as dense integer codes, and their NULLs-first order.

Sorting, duplicate elimination and suffix statistics all ask the same thing
of a batch's key columns — which rows carry equal keys, and how the keys
order — and each used to answer it with its own hash pass over the *rows*.
:class:`KeyCodes` answers it once: one hash pass gives every row the integer
code of its key, and everything after it (order, sizes, "already shipped")
is computed per *distinct* key and looked up per row by list index.
"""

from __future__ import annotations

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


def _rank_keys(keys: Sequence[Tuple]) -> Optional[List]:
    """Per-row integer sort keys ordering like :class:`_NullsFirstKey`, or ``None``.

    Each key column's distinct values are sorted once (NULL ranks lowest) and
    every row gets the rank of its value; multi-column keys become tuples of
    ranks.  A column of one type with an :data:`ORDER_KEYS` entry is compared
    by that key, in C, and holds no NaN.  ``None`` when a value is unhashable
    or a NaN (not equal to itself, so its place depends on the comparisons a
    sort happens to make).
    """
    rank_columns = []
    for column in zip(*keys):
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
        rank_columns.append([rank[value] for value in column])
    if len(rank_columns) == 1:
        return rank_columns[0]
    return list(zip(*rank_columns))


class KeyCodes:
    """The key tuples of a run of rows as integer codes.

    ``codes[row]`` indexes ``keys``, the distinct key tuples: two rows carry
    the same code exactly when their keys are equal (as a ``dict`` judges
    it), and ``keys[code]`` is the first occurrence of that key.  Keys that
    cannot be hashed cannot be told apart, so every row gets its own code.
    """

    __slots__ = ("codes", "keys", "_sizes")

    def __init__(
        self,
        codes: List[int],
        keys: List[Tuple[Any, ...]],
        sizes: Optional[List[int]] = None,
    ) -> None:
        self.codes = codes
        self.keys = keys
        self._sizes = sizes

    @classmethod
    def of(cls, tuples: Sequence[Tuple[Any, ...]]) -> "KeyCodes":
        """Codes in first-appearance order, from one hash pass over ``tuples``."""
        index: dict = {}
        try:
            codes = [index.setdefault(key, len(index)) for key in tuples]
        except TypeError:
            return cls(list(range(len(tuples))), list(tuples))
        return cls(codes, list(index))

    def tuples(self) -> List[Tuple[Any, ...]]:
        """One key tuple per row (each row's first equal occurrence)."""
        keys = self.keys
        return [keys[code] for code in self.codes]

    def take(self, indexes: Sequence[int]) -> "KeyCodes":
        """The codes of the rows at ``indexes``, over the same keys."""
        codes = self.codes
        return KeyCodes([codes[index] for index in indexes], self.keys, self._sizes)

    @property
    def sizes(self) -> List[int]:
        """Value-based wire size of each distinct key (``values_size(keys[code])``).

        Equal keys need not size equally (``1 == 1.0 == True`` are one code
        at 4, 8 and 1 bytes): this is the size of the *first occurrence*, so
        it prices only what ships once per code.
        """
        sizes = self._sizes
        if sizes is None:
            columns = [value_sizes(column) for column in zip(*self.keys)]
            sizes = self._sizes = list(map(sum, zip(*columns)))
        return sizes

    def order(self, reverse: bool = False) -> List[int]:
        """Stable row order of the keys, NULLs first.

        Equal to ``sorted(range(n), key=lambda i: _NullsFirstKey(tuples[i]))``,
        which costs a Python-level ``__lt__`` per comparison of two *rows*;
        here only the distinct keys' *values* are compared, and the rows sort
        by the integer place of their code.  Keys that cannot be ranked
        (NaNs, unhashable values) take the wrapper path, row by row.
        """
        ranks = _rank_keys(self.keys)
        if ranks is None:
            row_places: List[Any] = [_NullsFirstKey(key) for key in self.tuples()]
        else:
            place = [0] * len(ranks)
            for position, code in enumerate(sorted(range(len(ranks)), key=ranks.__getitem__)):
                place[code] = position
            row_places = [place[code] for code in self.codes]
        return sorted(range(len(row_places)), key=row_places.__getitem__, reverse=reverse)


def nulls_first_order(keys: Sequence[Tuple], reverse: bool = False) -> List[int]:
    """Stable row order of ``keys`` (one tuple per row), NULLs first."""
    return KeyCodes.of(keys).order(reverse)
