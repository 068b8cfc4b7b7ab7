"""Tests for repro.relational.types."""

import pytest

from repro.errors import TypeMismatchError
from repro.relational.types import (
    BOOLEAN,
    DATA_OBJECT,
    FLOAT,
    INTEGER,
    STRING,
    TIME_SERIES,
    DataObject,
    TimeSeries,
    type_by_name,
    value_size,
)


class TestDataObject:
    def test_equality_depends_on_size_and_seed(self):
        assert DataObject(100, 1) == DataObject(100, 1)
        assert DataObject(100, 1) != DataObject(100, 2)
        assert DataObject(100, 1) != DataObject(200, 1)

    def test_hashable_and_usable_in_sets(self):
        objects = {DataObject(10, 1), DataObject(10, 1), DataObject(10, 2)}
        assert len(objects) == 2

    def test_ordering_is_by_seed_then_size(self):
        assert DataObject(10, 1) < DataObject(10, 2)
        assert DataObject(5, 1) < DataObject(10, 1)

    def test_serialized_size_includes_header(self):
        assert DataObject(100).serialized_size() == 104

    def test_derive_preserves_seed(self):
        derived = DataObject(100, 7).derive(500)
        assert derived.size == 500
        assert derived.seed == 7

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataObject(-1)

    def test_repr_mentions_size_and_seed(self):
        assert "size=3" in repr(DataObject(3, 4))
        assert "seed=4" in repr(DataObject(3, 4))


class TestTimeSeries:
    def test_length_iteration_and_indexing(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        assert len(series) == 3
        assert list(series) == [1.0, 2.0, 3.0]
        assert series[1] == 2.0

    def test_equality_and_hash(self):
        assert TimeSeries([1, 2]) == TimeSeries([1.0, 2.0])
        assert hash(TimeSeries([1, 2])) == hash(TimeSeries([1.0, 2.0]))

    def test_serialized_size(self):
        assert TimeSeries([1.0, 2.0]).serialized_size() == 4 + 2 * 8

    def test_ordering(self):
        assert TimeSeries([1.0]) < TimeSeries([2.0])


class TestTimeSeriesHashCache:
    """``__hash__`` is computed once, lazily; nothing else may notice."""

    def test_hash_is_lazy_and_stable(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        assert series._hash is None  # construction computes no hash
        first = hash(series)
        assert series._hash == first
        assert hash(series) == first == hash((TimeSeries, (1.0, 2.0, 3.0)))

    def test_equality_ignores_the_cache(self):
        hashed, fresh = TimeSeries([1.0, 2.0]), TimeSeries([1.0, 2.0])
        hash(hashed)
        assert hashed == fresh and fresh == hashed
        assert hashed != TimeSeries([1.0, 2.5])
        assert len({hashed, fresh}) == 1
        assert {hashed: "value"}[fresh] == "value"

    def test_ordering_ignores_the_cache(self):
        low, high = TimeSeries([1.0, 2.0]), TimeSeries([1.0, 3.0])
        hash(low)
        assert low < high and not high < low
        assert sorted([high, low]) == [low, high]

    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_pickle_round_trip_never_carries_the_cache(self, hashed_first):
        import pickle

        series = TimeSeries([1.5, -2.0])
        if hashed_first:
            hash(series)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            payload = pickle.dumps(series, protocol)
            clone = pickle.loads(payload)
            assert type(clone) is TimeSeries and clone == series
            assert clone._hash is None
            assert hash(clone) == hash(series)
        # The same bytes whether or not the hash was ever taken.
        assert pickle.dumps(series) == pickle.dumps(TimeSeries([1.5, -2.0]))

    @pytest.mark.parametrize("kind", ["fresh", "from_floats", "cached", "unpickled"])
    def test_every_kind_of_series_hashes_compares_and_pickles_alike(self, kind):
        import pickle

        values = (0.5, -1.25, 8.0)
        series = {
            "fresh": lambda: TimeSeries(values),
            "from_floats": lambda: TimeSeries.from_floats(values),
            "cached": lambda: TimeSeries(values),
            "unpickled": lambda: pickle.loads(pickle.dumps(TimeSeries(values))),
        }[kind]()
        if kind == "cached":
            hash(series)
        reference = TimeSeries(values)
        assert series == reference and not series < reference
        assert hash(series) == hash(reference) == hash((TimeSeries, values)) == series._hash
        assert hash(series) == series._hash  # the second hash is the cached one
        assert len({series, reference}) == 1
        assert pickle.dumps(series) == pickle.dumps(TimeSeries(values))

    def test_copy_round_trip(self):
        import copy

        series = TimeSeries([4.0, 5.0])
        hash(series)
        for clone in (copy.copy(series), copy.deepcopy(series)):
            assert clone == series and hash(clone) == hash(series)

    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_page_round_trip(self, hashed_first):
        from repro.storage.page import decode_value, encode_value

        series = TimeSeries((1.0, -2.5, 3.25))
        plain = encode_value(TimeSeries((1.0, -2.5, 3.25)))
        if hashed_first:
            hash(series)
        assert encode_value(series) == plain
        decoded, offset = decode_value(plain, 0)
        assert type(decoded) is TimeSeries and decoded == series and offset == len(plain)
        assert decoded._hash is None  # decoding a stored record computes no hash
        assert hash(decoded) == hash(series)


class TestDataTypes:
    def test_integer_accepts_ints_but_not_bools(self):
        INTEGER.validate(5)
        with pytest.raises(TypeMismatchError):
            INTEGER.validate(True)

    def test_float_accepts_ints_and_floats(self):
        FLOAT.validate(5)
        FLOAT.validate(5.5)
        with pytest.raises(TypeMismatchError):
            FLOAT.validate("5.5")

    def test_boolean_only_accepts_bool(self):
        BOOLEAN.validate(True)
        with pytest.raises(TypeMismatchError):
            BOOLEAN.validate(1)

    def test_string_sizes_account_for_encoding(self):
        assert STRING.serialized_size("abc") == 4 + 3

    def test_null_is_valid_for_every_type_and_costs_one_byte(self):
        for dtype in (INTEGER, FLOAT, BOOLEAN, STRING, DATA_OBJECT, TIME_SERIES):
            dtype.validate(None)
            assert dtype.serialized_size(None) == 1

    def test_data_object_type_validation(self):
        DATA_OBJECT.validate(DataObject(5))
        with pytest.raises(TypeMismatchError):
            DATA_OBJECT.validate(b"raw")

    def test_type_by_name_is_case_insensitive(self):
        assert type_by_name("integer") is INTEGER
        assert type_by_name("TIME_SERIES") is TIME_SERIES

    def test_type_by_name_unknown(self):
        with pytest.raises(TypeMismatchError):
            type_by_name("UUID")


class TestValueSize:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, 1),
            (True, 1),
            (7, 4),
            (7.5, 8),
            ("ab", 4 + 2),
            (b"abc", 4 + 3),
            (DataObject(10), 4 + 10),
        ],
    )
    def test_known_sizes(self, value, expected):
        assert value_size(value) == expected

    def test_sequence_sizes_are_sums(self):
        assert value_size((1, 2.0)) == 4 + 4 + 8

    def test_fallback_for_unknown_objects_is_deterministic(self):
        class Odd:
            def __repr__(self):
                return "odd"

        assert value_size(Odd()) == value_size(Odd())
