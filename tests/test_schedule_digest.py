"""The committed per-message schedule digests must reproduce exactly.

``tests/data/schedule_digests.json`` was recorded at the commit before the
simulator learned to skip events that cannot change the schedule; see
:mod:`schedule_digest` for what a digest covers and the scenario list.
"""

from __future__ import annotations

import json

import pytest

import schedule_digest

with open(schedule_digest.DIGEST_FILE) as _handle:
    COMMITTED = json.load(_handle)

SCENARIOS = schedule_digest.scenarios()


def test_every_scenario_has_a_committed_digest():
    assert sorted(SCENARIOS) == sorted(COMMITTED)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_schedule_matches_committed_digest(key):
    assert schedule_digest.compute(SCENARIOS[key]) == COMMITTED[key]
