"""The sweep harness the figure drivers share (``repro.workloads.experiments``)."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sized, Sweep, format_records, point_id

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CONFIG = {
    "result_size": 100,
    "selectivity": 0.2,
    "network": NetworkConfig.paper_asymmetric(asymmetry=100.0),
}


def _dump(record) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


class TestPointId:
    def test_key_order_does_not_matter(self):
        assert point_id(dict(reversed(list(CONFIG.items())))) == point_id(CONFIG)

    def test_any_configured_value_matters(self):
        ids = {
            point_id(CONFIG),
            point_id({**CONFIG, "selectivity": 0.4}),
            point_id({**CONFIG, "network": NetworkConfig.paper_symmetric()}),
            point_id({**CONFIG, "row_count": 100}),
        }
        assert len(ids) == 4

    def test_another_process_computes_the_same_id(self):
        script = (
            "from repro.network.topology import NetworkConfig\n"
            "from repro.workloads.experiments import point_id\n"
            "print(point_id({'network': NetworkConfig.paper_asymmetric(asymmetry=100.0),"
            " 'selectivity': 0.2, 'result_size': 100}))\n"
        )
        for hash_seed in ("1", "2"):
            environment = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
            output = subprocess.run(
                [sys.executable, "-c", script], env=environment, capture_output=True, text=True
            )
            assert output.stdout.strip() == point_id(CONFIG), output.stderr

    def test_adding_a_point_renumbers_nothing(self):
        def ids(sweep):
            return [point_id(config) for config in sweep.points()]

        small = Sweep("s", dict, axes={"a": (1, 2), "b": ("x", "y")})
        grown = Sweep("s", dict, axes={"a": (0, 1, 2), "b": ("x", "y", "z")})
        assert set(ids(small)) < set(ids(grown))


class TestGrid:
    def test_points_enumerate_in_declared_order_with_the_fixed_values(self):
        sweep = Sweep("s", dict, axes={"a": (2, 1), "b": ("x", "y", "z")}, fixed={"rows": 7})
        assert sweep.points() == [
            {"rows": 7, "a": a, "b": b} for a, b in itertools.product((2, 1), ("x", "y", "z"))
        ]

    def test_a_sweep_without_axes_is_one_point(self):
        assert Sweep("s", dict, fixed={"rows": 7}).points() == [{"rows": 7}]

    def test_smoke_and_full_sizes_resolve_from_one_declaration(self):
        sweep = Sweep(
            "s",
            dict,
            axes={"batch": Sized(full=(1, 4, 16), smoke=(1, 4)), "strategy": ("sj", "csj")},
            fixed={"rows": Sized(full=200, smoke=120), "seed": 3},
        )
        full, smoke = sweep.points(), sweep.points(smoke=True)
        assert len(full) == 6 and len(smoke) == 4
        assert {point["rows"] for point in full} == {200}
        assert {point["rows"] for point in smoke} == {120}
        assert [point["batch"] for point in smoke] == [1, 1, 4, 4]
        # A size is part of the configuration: the two runs share no record.
        assert not {point_id(p) for p in full} & {point_id(p) for p in smoke}


class TestRecords:
    def test_run_returns_records_in_grid_order_with_axis_values_first(self):
        sweep = Sweep(
            "s", lambda a, b, rows: {"product": a * b * rows}, axes={"a": (1, 2), "b": (3, 4)},
            fixed={"rows": 10},
        )
        records = sweep.run()
        assert records == [
            {"a": 1, "b": 3, "product": 30},
            {"a": 1, "b": 4, "product": 40},
            {"a": 2, "b": 3, "product": 60},
            {"a": 2, "b": 4, "product": 80},
        ]
        assert list(records[0]) == ["a", "b", "product"]
        assert list(sweep.records) == [point_id(config) for config in sweep.points()]

    def test_rerunning_a_point_replaces_its_record_and_no_other(self):
        calls = itertools.count()
        sweep = Sweep("s", lambda a: {"call": next(calls)}, axes={"a": (1, 2, 3)})
        sweep.run()
        before = {identifier: _dump(record) for identifier, record in sweep.records.items()}

        second = sweep.points()[1]
        sweep.run_one(second)

        after = {identifier: _dump(record) for identifier, record in sweep.records.items()}
        assert list(after) == list(before)  # same IDs, same order: nothing renumbered
        assert after[point_id(second)] == _dump({"a": 2, "call": 3})
        del before[point_id(second)], after[point_id(second)]
        assert after == before

    def test_evidence_stays_out_of_snapshots_and_tables(self):
        sweep = Sweep("s", lambda a: {"elapsed_s": 0.5, "_rows": object()}, axes={"a": (1, 2)})
        records = sweep.run()
        assert "_rows" in records[0]
        assert all(list(record) == ["a", "elapsed_s"] for record in sweep.snapshot().values())
        json.dumps(sweep.snapshot())
        assert "_rows" not in format_records(records)


class TestFormatRecords:
    def test_columns_fit_their_widest_cell(self):
        text = format_records(
            [{"case": (1000, 0.5, 2000), "ratio": 0.5}, {"case": (1,), "ratio": 1.23456}]
        )
        header, rule, first, second = text.splitlines()
        assert len({len(header), len(rule), len(first), len(second)}) == 1
        assert first.endswith("0.5") and second.endswith("1.235")

    def test_a_single_record_reads_on_its_side(self):
        assert format_records([{"plans_kept": 3, "cost": 1.5}]) == "plans_kept  3\ncost        1.5"
