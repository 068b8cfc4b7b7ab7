"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so that
callers embedding the engine can catch a single base class.  The hierarchy is
split along subsystem lines: the relational substrate, the SQL front end, the
network simulator, the client runtime, execution, and the optimizer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A schema is malformed or an operation refers to an unknown column."""


class TypeMismatchError(SchemaError):
    """A value does not conform to the declared column type."""


class CatalogError(ReproError):
    """A table or statistic was not found in, or conflicts with, the catalog."""


class ExpressionError(ReproError):
    """An expression tree is malformed or cannot be evaluated."""


class OperatorError(ReproError):
    """A physical operator was misused (e.g. ``next`` before ``open``)."""


# ---------------------------------------------------------------------------
# SQL front end
# ---------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SqlError):
    """The SQL text contains an unrecognisable token."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """The SQL text does not conform to the supported grammar."""


class BindError(SqlError):
    """A name in the query cannot be resolved against the catalog or UDF registry."""


# ---------------------------------------------------------------------------
# Network simulator
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class EmptySchedule(SimulationError):
    """:meth:`Simulator.step` was asked for an entry and none is scheduled."""


class NetworkError(ReproError):
    """A message could not be delivered (e.g. the peer disconnected)."""


class ChannelClosedError(NetworkError):
    """An endpoint attempted to use a channel that has been closed."""


# ---------------------------------------------------------------------------
# Client runtime
# ---------------------------------------------------------------------------


class ClientError(ReproError):
    """Base class for client-runtime errors."""


class UdfError(ClientError):
    """A UDF is undefined, misregistered, or raised during evaluation."""


class UdfExecutionError(UdfError):
    """The UDF body raised an exception while being evaluated."""

    def __init__(self, udf_name: str, cause: BaseException) -> None:
        super().__init__(f"UDF {udf_name!r} raised {type(cause).__name__}: {cause}")
        self.udf_name = udf_name
        self.cause = cause


class SandboxViolation(ClientError):
    """Untrusted UDF source attempted a disallowed operation."""


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """The paged storage layer hit a corrupt page, bad block, or full pool."""


# ---------------------------------------------------------------------------
# Execution and optimization
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """A physical plan failed during execution."""


class PlanError(ReproError):
    """A plan is structurally invalid for the requested operation."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for the query."""
