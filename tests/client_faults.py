"""A client failure a test injects: a UDF body that breaks at its k-th call.

The client runtime has no failure knob of its own; a test registers
``failing_from(k, function)`` as the UDF body, and the runtime reports the
raise as it reports any UDF failure — an error reply carrying
:class:`~repro.errors.UdfExecutionError`.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Optional

INJECTED = "injected client failure"


def failing_from(
    call: int, function: Callable[..., Any], until: Optional[int] = None
) -> Callable[..., Any]:
    """``function``, except that its ``call``-th call raises ``RuntimeError``,
    and so does every later one up to the ``until``-th (all, when ``None``)."""
    calls = itertools.count(1)
    last = math.inf if until is None else until

    def udf(*arguments: Any) -> Any:
        if call <= next(calls) <= last:
            raise RuntimeError(INJECTED)
        return function(*arguments)

    return udf
