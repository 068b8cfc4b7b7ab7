"""Typed column buffers for fixed-width column data.

A :class:`TypedColumn` stores one fixed-width column (INTEGER, FLOAT or
BOOLEAN) in a contiguous NumPy array plus a validity mask for NULLs.  Every
value that comes *out* of a typed column (``__getitem__``, iteration,
:meth:`to_list`) is a plain Python ``int``/``float``/``bool`` or ``None``,
never a NumPy scalar, so hashing, type validation and byte accounting behave
exactly as they do for plain object lists — which is what every column is
when NumPy is not importable (it is an optional extra, ``repro[fast]``).

Builders are deliberately *strict*: a column is only stored typed when every
non-NULL value already has the exact Python type the column declares
(``int`` for INTEGER within int64 range, ``float`` for FLOAT, ``bool`` for
BOOLEAN).  Anything else — an ``int`` in a FLOAT column, an out-of-range
integer, an opaque object — keeps the column as a plain list, so value-based
wire sizing (4 bytes for an int, 8 for a float) is never changed by storage.

The module also owns the runtime switches:

* ``REPRO_DISABLE_NUMPY=1`` in the environment runs the NumPy-less path
  (plain lists, scalar operators) on a machine that has NumPy;
* :func:`set_typed_buffers` / :func:`scalar_fallback` disable typed storage
  at runtime, which the equivalence tests use to compare the typed and
  fully-scalar paths on identical inputs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence

if os.environ.get("REPRO_DISABLE_NUMPY") == "1":
    np = None
else:
    try:  # pragma: no cover - exercised via the no-NumPy CI leg
        import numpy as np
    except ImportError:  # pragma: no cover
        np = None

#: True when NumPy is importable (and not disabled): typed columns and
#: vectorized kernels are available.
HAVE_NUMPY = np is not None

#: int64 bounds: integers outside stay in plain lists (Python ints are
#: arbitrary precision; the buffers are not).
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Wire width per supported dtype, matching ``DataType.fixed_size``.
_WIDTHS = {"INTEGER": 4, "FLOAT": 8, "BOOLEAN": 1}

_typed_enabled = True


def vectorization_enabled() -> bool:
    """Whether columns are stored in typed (NumPy) buffers, and therefore
    whether the compiled kernels that run on them may."""
    return HAVE_NUMPY and _typed_enabled


def set_typed_buffers(enabled: bool) -> bool:
    """Enable/disable typed column storage; returns the previous setting."""
    global _typed_enabled
    previous = _typed_enabled
    _typed_enabled = bool(enabled)
    return previous


@contextmanager
def scalar_fallback():
    """Context manager forcing the fully-scalar (plain list) path."""
    previous = set_typed_buffers(False)
    try:
        yield
    finally:
        set_typed_buffers(previous)


class TypedColumn:
    """One fixed-width column in a typed buffer, with a validity mask.

    ``data`` holds every slot (NULL slots store 0/0.0/False); ``validity``
    is ``None`` when the column has no NULLs, else a parallel NumPy bool
    array, true at non-NULL slots.  Columns are immutable by convention, like
    the column lists of :class:`~repro.relational.tuples.RowBatch`.
    """

    __slots__ = ("dtype_name", "width", "_data", "_validity", "_list", "_null_count")

    def __init__(self, dtype_name: str, data, validity, null_count: int) -> None:
        self.dtype_name = dtype_name
        self.width = _WIDTHS[dtype_name]
        self._data = data
        self._validity = validity
        self._list: Optional[List[Any]] = None
        self._null_count = null_count

    # -- kernel access ----------------------------------------------------------

    @property
    def data(self):
        """The raw value buffer (a NumPy array)."""
        return self._data

    @property
    def validity(self):
        """The validity mask, or ``None`` when the column has no NULLs."""
        return self._validity

    @property
    def null_count(self) -> int:
        return self._null_count

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            validity = self._validity[index] if self._validity is not None else None
            data = self._data[index]
            if validity is not None:
                nulls = int(len(validity) - int(validity.sum()))
                if nulls == 0:
                    validity = None
            else:
                nulls = 0
            return TypedColumn(self.dtype_name, data, validity, nulls)
        return self.to_list()[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    def count(self, value: Any) -> int:
        """``list.count`` compatible; ``count(None)`` is O(1)."""
        if value is None:
            return self._null_count
        return self.to_list().count(value)

    # -- materialisation --------------------------------------------------------

    def to_list(self) -> List[Any]:
        """The column as plain Python values (cached); NULLs come back as None."""
        values = self._list
        if values is not None:
            return values
        values = self._data.tolist()
        if self._validity is not None:
            for index in np.flatnonzero(~self._validity).tolist():
                values[index] = None
        self._list = values
        return values

    # -- column-wise operations -------------------------------------------------

    def take(self, indexes: Sequence[int]) -> "TypedColumn":
        """The column restricted/reordered to the rows at ``indexes``."""
        order = np.asarray(indexes, dtype=np.intp)
        data = self._data.take(order)
        validity = self._validity
        if validity is not None:
            validity = validity.take(order)
            nulls = int(len(validity) - int(validity.sum()))
            if nulls == 0:
                validity = None
        else:
            nulls = 0
        return TypedColumn(self.dtype_name, data, validity, nulls)

    def take_mask(self, mask) -> "TypedColumn":
        """The column restricted to rows where ``mask`` (a bool array) is True."""
        data = self._data[mask]
        validity = self._validity
        if validity is not None:
            validity = validity[mask]
            nulls = int(len(validity) - int(validity.sum()))
            if nulls == 0:
                validity = None
        else:
            nulls = 0
        return TypedColumn(self.dtype_name, data, validity, nulls)

    @classmethod
    def concat(cls, columns: Sequence["TypedColumn"]) -> "TypedColumn":
        """Concatenate same-dtype columns into one."""
        first = columns[0]
        if len(columns) == 1:
            return first
        nulls = sum(column._null_count for column in columns)
        data = np.concatenate([column._data for column in columns])
        if nulls:
            validity = np.concatenate(
                [
                    column._validity
                    if column._validity is not None
                    else np.ones(len(column), dtype=bool)
                    for column in columns
                ]
            )
        else:
            validity = None
        return cls(first.dtype_name, data, validity, nulls)

    def __repr__(self) -> str:
        return (
            f"TypedColumn({self.dtype_name}, {len(self._data)} values, "
            f"{self._null_count} nulls)"
        )


def _is_typed_value(dtype_name: str, value: Any) -> bool:
    if dtype_name == "INTEGER":
        return type(value) is int and _INT64_MIN <= value <= _INT64_MAX
    if dtype_name == "FLOAT":
        return type(value) is float
    return type(value) is bool


def build_typed_column(values: Sequence[Any], dtype: Any) -> Optional[TypedColumn]:
    """Build a :class:`TypedColumn` from ``values``, or None when not eligible.

    ``dtype`` is a :class:`~repro.relational.types.DataType` (or its name).
    Returns None — leaving the caller with the plain list — when typed
    buffers are disabled or NumPy is missing, the dtype is variable-width, or
    any non-NULL value is not already the exact Python type the column stores.
    """
    if not vectorization_enabled():
        return None
    dtype_name = getattr(dtype, "name", dtype)
    if dtype_name not in _WIDTHS:
        return None
    null_positions: List[int] = []
    for index, value in enumerate(values):
        if value is None:
            null_positions.append(index)
        elif not _is_typed_value(dtype_name, value):
            return None
    if null_positions:
        fill: Any = False if dtype_name == "BOOLEAN" else 0
        filled = [fill if value is None else value for value in values]
    else:
        filled = values if isinstance(values, list) else list(values)
    np_dtype = {"INTEGER": np.int64, "FLOAT": np.float64, "BOOLEAN": np.bool_}[dtype_name]
    data = np.array(filled, dtype=np_dtype)
    if null_positions:
        validity = np.ones(len(values), dtype=bool)
        validity[null_positions] = False
    else:
        validity = None
    return TypedColumn(dtype_name, data, validity, len(null_positions))
