"""UDF descriptors.

A :class:`UdfDefinition` captures everything the server needs to *plan*
around a UDF (its site, declared result size, per-invocation cost,
selectivity when used as a predicate) and everything the client needs to
*run* it (the callable itself).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import UdfError, UdfExecutionError
from repro.relational.types import DataType, FLOAT, value_size, value_sizes


class UdfSite(enum.Enum):
    """Where a UDF may execute."""

    SERVER = "server"
    CLIENT = "client"


@dataclass
class UdfDefinition:
    """A registered user-defined function.

    Parameters
    ----------
    name:
        The SQL-visible function name (case-insensitive at lookup time).
    function:
        The Python callable implementing the UDF.
    site:
        :attr:`UdfSite.CLIENT` for client-site UDFs (the paper's subject) or
        :attr:`UdfSite.SERVER` for ordinary server extensions.
    result_dtype:
        Declared type of the result column added to the relation.
    result_size_bytes:
        Declared wire size of one result (the paper's ``R`` parameter).  When
        omitted, the size of each actual result value is measured instead.
    cost_per_call_seconds:
        *Declared* client (or server) CPU time per invocation — what the
        planner believes before anything has run.
    actual_cost_per_call_seconds:
        The CPU time the client runtime *actually* charges per invocation,
        when it differs from the declaration (a mis-estimated registration, a
        slower client device).  ``None`` means the declaration is accurate.
        The adaptive runtime observes the actual cost and calibrates the
        planner's estimate from it.
    selectivity:
        When the UDF (or a comparison on its result) is used as a predicate,
        the fraction of rows expected to pass.  Used by the optimizer and the
        cost model (the paper's ``S``).
    """

    name: str
    function: Callable[..., Any]
    site: UdfSite = UdfSite.CLIENT
    result_dtype: DataType = FLOAT
    result_size_bytes: Optional[int] = None
    cost_per_call_seconds: float = 0.0005
    actual_cost_per_call_seconds: Optional[float] = None
    selectivity: float = 0.5
    description: str = ""
    invocation_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not callable(self.function):
            raise UdfError(f"UDF {self.name!r} must wrap a callable")
        if self.cost_per_call_seconds < 0:
            raise UdfError(f"UDF {self.name!r} cost must be non-negative")
        if self.actual_cost_per_call_seconds is not None and self.actual_cost_per_call_seconds < 0:
            raise UdfError(f"UDF {self.name!r} actual cost must be non-negative")
        if not 0.0 <= self.selectivity <= 1.0:
            raise UdfError(f"UDF {self.name!r} selectivity must be within [0, 1]")

    @property
    def runtime_cost_per_call_seconds(self) -> float:
        """The per-call CPU time the client runtime charges (actual wins)."""
        if self.actual_cost_per_call_seconds is not None:
            return self.actual_cost_per_call_seconds
        return self.cost_per_call_seconds

    @property
    def is_client_site(self) -> bool:
        return self.site is UdfSite.CLIENT

    @property
    def result_column_name(self) -> str:
        """Name of the column the UDF result occupies in extended schemas."""
        return f"{self.name}_result"

    def invoke(self, arguments: Sequence[Any]) -> Any:
        """Call the UDF, translating any raised error into :class:`UdfExecutionError`."""
        self.invocation_count += 1
        try:
            return self.function(*arguments)
        except Exception as exc:  # noqa: BLE001 - deliberate boundary
            raise UdfExecutionError(self.name, exc) from exc

    def invoke_positional(self, *arguments: Any) -> Any:
        """Call the UDF with positional arguments (expression-binding form)."""
        return self.invoke(arguments)

    def result_size(self, result: Any) -> int:
        """Wire size of one result value, honouring the declared size if any."""
        if self.result_size_bytes is not None:
            return self.result_size_bytes
        return value_size(result)

    def results_size(self, results: Sequence[Any]) -> int:
        """Wire size of a batch of results: :meth:`result_size` summed, in bulk."""
        if self.result_size_bytes is not None:
            return self.result_size_bytes * len(results)
        return sum(value_sizes(results))

    def __str__(self) -> str:
        return f"{self.name} [{self.site.value}]"
