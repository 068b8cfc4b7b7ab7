"""A memo-hit ``build_plan`` only instantiates: its host work in counted calls.

A decision the database serves from its memo keeps the plan recipe planned
from it (``server.planner``), so building its plan again runs operator
constructors and nothing of the planning pass: no predicate placement, no
schema derivation (a schema derives each qualified, joined and extended
schema once), no expression rewriting.  The count is of Python calls into
``repro`` per package (``sys.setprofile``), list, dict and set
comprehensions left out because Python 3.12 inlines them; before plans
were kept the same build made 302 (``repro.client`` 4, ``repro.core`` 26,
``repro.relational`` 224, ``repro.server`` 35, ``repro.sql`` 13).
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict

from repro.server.planner import build_plan
from repro.workloads.stock import StockWorkload

#: Calls into ``repro`` per package in one memo-hit ``build_plan`` of
#: Figure 13 on the 60-company stock database: the constructors of its
#: seven operators, the recipe walk and the post-order walk that finds the
#: remote operators (``repro.relational`` made 51 while the final projection
#: derived its schema again each build).
HIT_BUILD_CALLS = {"repro.core": 13, "repro.relational": 48, "repro.server": 17}

INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def hit_build_calls() -> Dict[str, int]:
    db = StockWorkload().build()
    sql = StockWorkload.figure13_query()
    db.execute(sql, optimize=True)  # decides, plans the recipe and keeps both
    bound = db.bind(sql)
    decision = db._decide(bound, db.default_config, optimize=True)
    context, functions = db.session.new_context(), db._server_functions()
    calls: Counter = Counter()

    def profile(frame, event, argument):
        if event == "call" and frame.f_code.co_name not in INLINED:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                calls[".".join(module.split(".")[:2])] += 1

    sys.setprofile(profile)
    try:
        build_plan(bound, context, server_functions=functions, decision=decision)
    finally:
        sys.setprofile(None)
    return dict(calls)


def test_a_memo_hit_build_plan_only_instantiates():
    calls = hit_build_calls()
    # Nothing in repro.sql or repro.client runs: no binding, no UDF look-up.
    assert set(calls) <= set(HIT_BUILD_CALLS), calls
    for package, budget in HIT_BUILD_CALLS.items():
        assert calls.get(package, 0) <= budget, (package, calls)
