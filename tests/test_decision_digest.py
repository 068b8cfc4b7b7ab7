"""The committed optimizer decision digests must reproduce exactly.

``tests/data/decision_digests.json`` was recorded at the commit before the
optimizer's per-candidate derivations were memoised; see
:mod:`decision_digest` for what a digest covers and the case grid.
"""

from __future__ import annotations

import json

import pytest

import decision_digest

with open(decision_digest.DIGEST_FILE) as _handle:
    COMMITTED = json.load(_handle)


@pytest.fixture(scope="module")
def cases():
    with decision_digest.Environment() as env:
        yield decision_digest.cases(env)


#: Keys only: the callables need the module's shared databases.
KEYS = sorted(decision_digest.cases(None))


def test_every_case_has_a_committed_digest():
    assert KEYS == sorted(COMMITTED)


@pytest.mark.parametrize("key", KEYS)
def test_decision_matches_committed_digest(cases, key):
    assert cases[key]() == COMMITTED[key]
