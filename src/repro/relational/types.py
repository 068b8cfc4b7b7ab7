"""Column data types and sized opaque values.

The paper's experiments are dominated by the *sizes* of the values shipped
over the network (argument columns, non-argument columns, UDF results), so
the type system here is built around byte-accurate size accounting:

* every :class:`DataType` can compute the serialized size of one of its
  values via :meth:`DataType.serialized_size`;
* :class:`DataObject` models the paper's ``DataObject`` column values —
  opaque blobs of a declared size (the experiments use 100/500/1000/5000-byte
  objects);
* :class:`TimeSeries` models the ``Quotes`` arguments of the motivating
  ``ClientAnalysis`` UDF: a sequence of floats with a well-defined size.

Values of every type are immutable and hashable so they can participate in
duplicate elimination, hashing joins, and sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import TypeMismatchError

# Fixed serialized widths, in bytes, for primitive types.  These mirror the
# widths a simple wire format would use and only matter for network-byte
# accounting, not for Python-level storage.
_INTEGER_WIDTH = 4
_FLOAT_WIDTH = 8
_BOOLEAN_WIDTH = 1
_STRING_HEADER = 4  # length prefix
_BLOB_HEADER = 4  # length prefix


class DataObject:
    """An opaque, sized value.

    ``DataObject(size, seed)`` stands for a blob of ``size`` bytes whose
    content is abstracted into an integer ``seed``.  Two data objects compare
    equal iff both size and seed match, which is exactly the behaviour needed
    for argument-duplicate elimination in the semi-join sender.
    """

    __slots__ = ("size", "seed")

    def __init__(self, size: int, seed: int = 0) -> None:
        if size < 0:
            raise ValueError("DataObject size must be non-negative")
        self.size = int(size)
        self.seed = int(seed)

    def serialized_size(self) -> int:
        """Number of bytes this object occupies on the wire."""
        return _BLOB_HEADER + self.size

    def derive(self, new_size: int) -> "DataObject":
        """Return a new object of ``new_size`` bytes derived from this one.

        Used by synthetic UDFs that must return a result "computed from" the
        argument: the seed is propagated so equal arguments yield equal
        results (a property several tests rely on).
        """
        return DataObject(new_size, self.seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataObject):
            return NotImplemented
        return self.size == other.size and self.seed == other.seed

    def __lt__(self, other: "DataObject") -> bool:
        if not isinstance(other, DataObject):
            return NotImplemented
        return (self.seed, self.size) < (other.seed, other.size)

    def __hash__(self) -> int:
        return hash((DataObject, self.size, self.seed))

    def __repr__(self) -> str:
        return f"DataObject(size={self.size}, seed={self.seed})"


class TimeSeries:
    """An immutable sequence of float observations (e.g. price quotes)."""

    # ``_hash`` caches ``__hash__`` and stays unset until first asked for, so
    # constructing a series (e.g. decoding a stored record) pays nothing.
    __slots__ = ("values", "_hash")

    def __init__(self, values) -> None:
        self.values: Tuple[float, ...] = tuple(float(v) for v in values)

    @classmethod
    def from_floats(cls, values: Tuple[float, ...]) -> "TimeSeries":
        """A series over ``values`` exactly as given, with no conversion.

        For callers that already hold a tuple of floats — the storage codec
        passes what ``struct.unpack`` returned, once per decoded record.
        """
        series = cls.__new__(cls)
        series.values = values
        return series

    def __reduce__(self):
        # The hash mixes in the class object, whose hash differs between
        # processes: never let the cache travel inside a pickle.
        return (TimeSeries, (self.values,))

    def serialized_size(self) -> int:
        return _BLOB_HEADER + _FLOAT_WIDTH * len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index):
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.values == other.values

    def __lt__(self, other: "TimeSeries") -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.values < other.values

    def __hash__(self) -> int:
        # Shipping probes the same series in several sets and dicts per row
        # (duplicate elimination, result caches); hash the tuple once.
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash((TimeSeries, self.values))
            return value

    def __repr__(self) -> str:
        preview = ", ".join(f"{v:g}" for v in self.values[:4])
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"TimeSeries([{preview}{suffix}], n={len(self.values)})"


def value_size(value: Any) -> int:
    """Best-effort wire size of an arbitrary value, used for UDF results."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return _BOOLEAN_WIDTH
    if isinstance(value, int):
        return _INTEGER_WIDTH
    if isinstance(value, float):
        return _FLOAT_WIDTH
    if isinstance(value, str):
        return _STRING_HEADER + len(value.encode("utf-8"))
    if isinstance(value, (DataObject, TimeSeries)):
        return value.serialized_size()
    if isinstance(value, (bytes, bytearray)):
        return _BLOB_HEADER + len(value)
    if isinstance(value, (tuple, list)):
        return _BLOB_HEADER + sum(value_size(item) for item in value)
    # Fallback: the repr length is a crude but deterministic proxy.
    return _BLOB_HEADER + len(repr(value))


#: Wire width of a column holding only values of exactly the keyed type.
_VALUE_WIDTHS: Dict[type, int] = {
    bool: _BOOLEAN_WIDTH,
    int: _INTEGER_WIDTH,
    float: _FLOAT_WIDTH,
}

#: ``column -> sizes`` for a column holding only NULLs and values of exactly
#: the keyed type: what :func:`value_size` returns, without a call per value.
_COLUMN_SIZERS: Dict[type, Callable[[Sequence[Any]], List[int]]] = {
    str: lambda column: [
        1
        if value is None
        else _STRING_HEADER + (len(value) if value.isascii() else len(value.encode("utf-8")))
        for value in column
    ],
    DataObject: lambda column: [
        1 if value is None else _BLOB_HEADER + value.size for value in column
    ],
    TimeSeries: lambda column: [
        1 if value is None else _BLOB_HEADER + _FLOAT_WIDTH * len(value.values)
        for value in column
    ],
}

#: Exact type -> a key under which ``sorted`` orders values as their own
#: ``__lt__`` does, compared in C instead of through a Python-level call.
#: Every value of such a type equals itself.
ORDER_KEYS: Dict[type, Callable[[Any], Any]] = {
    TimeSeries: attrgetter("values"),
    DataObject: attrgetter("seed", "size"),
}


def value_sizes(values: Sequence[Any]) -> List[int]:
    """:func:`value_size` of every value of a column, from one call.

    Dispatches on the column's set of exact runtime types: a column of one
    known type (NULLs aside) is sized without a call per value; any other
    column — mixed types, subclasses, foreign scalars, containers — goes value
    by value through :func:`value_size`, which stays the definition.
    """
    kinds = set(map(type, values))
    nullable = type(None) in kinds
    kinds.discard(type(None))
    if not kinds:
        return [1] * len(values)
    if len(kinds) == 1:
        kind = kinds.pop()
        width = _VALUE_WIDTHS.get(kind)
        if width is not None:
            if nullable:
                return [1 if value is None else width for value in values]
            return [width] * len(values)
        sizer = _COLUMN_SIZERS.get(kind)
        if sizer is not None:
            return sizer(values)
    return [value_size(value) for value in values]


@dataclass(frozen=True)
class DataType:
    """A column data type.

    ``validator`` accepts a Python value and returns True when the value is a
    legal instance of the type.  ``NULL`` (``None``) is legal for every type
    and costs one byte.

    ``fixed_size`` is the wire width of every non-NULL value for fixed-width
    types (integers, floats, booleans).  ``None`` makes the type
    variable-width: a value is sized by what it is (:func:`value_size`), a
    column in bulk (:func:`value_sizes`).
    """

    name: str
    validator: Callable[[Any], bool]
    fixed_size: Optional[int] = None

    def validate(self, value: Any) -> None:
        """Raise :class:`TypeMismatchError` unless ``value`` fits this type."""
        if value is None:
            return
        if not self.validator(value):
            raise TypeMismatchError(
                f"value {value!r} ({type(value).__name__}) is not a valid {self.name}"
            )

    def serialized_size(self, value: Any) -> int:
        """Wire size of ``value`` in bytes (1 byte for NULL)."""
        if value is None:
            return 1
        width = self.fixed_size
        return width if width is not None else value_size(value)

    def serialized_sizes(self, values: Sequence[Any]) -> List[int]:
        """:meth:`serialized_size` of every value of a column, from one call."""
        width = self.fixed_size
        if width is None:
            return value_sizes(values)
        return [1 if value is None else width for value in values]

    def __repr__(self) -> str:
        return f"DataType({self.name})"

    def __str__(self) -> str:
        return self.name


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


INTEGER = DataType("INTEGER", _is_integer, fixed_size=_INTEGER_WIDTH)
FLOAT = DataType("FLOAT", _is_float, fixed_size=_FLOAT_WIDTH)
BOOLEAN = DataType("BOOLEAN", lambda value: isinstance(value, bool), fixed_size=_BOOLEAN_WIDTH)
STRING = DataType("STRING", lambda value: isinstance(value, str))
DATA_OBJECT = DataType("DATA_OBJECT", lambda value: isinstance(value, DataObject))
TIME_SERIES = DataType("TIME_SERIES", lambda value: isinstance(value, TimeSeries))

#: All built-in types, keyed by name, for the SQL binder and the catalog.
BUILTIN_TYPES = {
    dtype.name: dtype
    for dtype in (INTEGER, FLOAT, BOOLEAN, STRING, DATA_OBJECT, TIME_SERIES)
}


def type_by_name(name: str) -> DataType:
    """Look up a built-in type by its (case-insensitive) name."""
    try:
        return BUILTIN_TYPES[name.upper()]
    except KeyError as exc:
        raise TypeMismatchError(f"unknown data type {name!r}") from exc
