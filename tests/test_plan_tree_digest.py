"""The committed plan-tree digests must reproduce exactly.

``tests/data/plan_tree_digests.json`` was recorded before the planner learned
to walk the optimizer's plan chain; see :mod:`plan_tree_digest` for what a
digest covers and the cases.
"""

from __future__ import annotations

import json

import pytest

import plan_tree_digest

with open(plan_tree_digest.DIGEST_FILE) as _handle:
    COMMITTED = json.load(_handle)


@pytest.fixture(scope="module")
def cases():
    with plan_tree_digest.Environment() as env:
        yield plan_tree_digest.cases(env)


#: Keys only: the callables need the module's shared databases.
KEYS = sorted(plan_tree_digest.cases(None))


def test_every_case_has_a_committed_digest():
    assert KEYS == sorted(COMMITTED)


@pytest.mark.parametrize("key", KEYS)
def test_built_plan_matches_committed_digest(cases, key):
    assert cases[key]() == COMMITTED[key]
