"""Messages exchanged between the server and the client runtime.

A message carries an opaque ``payload`` plus an explicit ``size_bytes`` used
for link-time accounting.  The size is computed by the sender from the
serialized sizes of the values being shipped (argument columns, whole
records, UDF results), so link occupancy reflects exactly the byte counts the
paper's cost model reasons about.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional, Tuple, Union

#: Fixed per-message framing overhead, in bytes (headers, sequence numbers).
#: Kept small so the experiments are dominated by payload sizes, as in the
#: paper, but non-zero so per-message costs exist at all.
MESSAGE_OVERHEAD_BYTES = 16

_sequence = itertools.count(1)


class MessageKind(enum.Enum):
    """What a message carries, used for routing at the receiving runtime."""

    UDF_ARGUMENTS = "udf_arguments"  # semi-join: argument columns only
    UDF_RESULT = "udf_result"  # semi-join: results only
    RECORDS = "records"  # client-site join: whole records downlink
    RECORDS_WITH_RESULTS = "records_with_results"  # client-site join uplink
    FINAL_RESULTS = "final_results"  # result delivery to the client
    CONTROL = "control"  # open/close/flush markers
    ERROR = "error"  # client-side failure notification


class Message:
    """A single unit of transfer over a link.

    ``row_count`` records how many logical rows (argument tuples, records or
    results) the payload carries; batch-sized messages amortise the fixed
    :data:`MESSAGE_OVERHEAD_BYTES` over all of them.  Control and error
    messages carry zero rows.

    ``size_bytes`` (the total wire size including framing overhead) and
    ``is_data`` (everything but control and error frames) are fixed at
    construction because the link ledgers read them per transmission.

    ``description`` may be given as a tuple of parts (``("semijoin ", name,
    " x", 64)``), joined only when :attr:`description` is read — by
    ``__repr__`` or a test — so a data message formats nothing on its way.
    """

    __slots__ = (
        "kind", "payload", "payload_bytes", "sequence", "sender", "_description",
        "row_count", "size_bytes", "is_data",
    )

    def __init__(
        self,
        kind: MessageKind,
        payload: Any,
        payload_bytes: int,
        sequence: Optional[int] = None,
        sender: str = "",
        description: Union[str, Tuple[Any, ...]] = "",
        row_count: int = 0,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.sequence = next(_sequence) if sequence is None else sequence
        self.sender = sender
        self._description = description
        self.row_count = row_count
        self.size_bytes = payload_bytes + MESSAGE_OVERHEAD_BYTES
        self.is_data = kind is not MessageKind.CONTROL and kind is not MessageKind.ERROR

    @property
    def description(self) -> str:
        description = self._description
        if not isinstance(description, str):
            description = self._description = "".join(map(str, description))
        return description

    @property
    def kind_name(self) -> str:
        return self.kind.value

    @property
    def overhead_bytes_per_row(self) -> float:
        """The framing overhead share charged to each row of the payload."""
        return MESSAGE_OVERHEAD_BYTES / self.row_count if self.row_count else float(
            MESSAGE_OVERHEAD_BYTES
        )

    def __repr__(self) -> str:
        return (
            f"Message(#{self.sequence} {self.kind_name}, {self.size_bytes}B"
            f"{', ' + self.description if self.description else ''})"
        )


def batch_message(
    kind: MessageKind,
    payload: Any,
    payload_bytes: int,
    row_count: int,
    sender: str = "",
    description: Union[str, Tuple[Any, ...]] = "",
) -> Message:
    """A batch-sized message carrying ``row_count`` rows in one frame."""
    return Message(
        kind, payload, payload_bytes, None, sender, description or (row_count, " rows"), row_count
    )


def control_message(description: str, sender: str = "") -> Message:
    """A zero-payload control message (e.g. end-of-stream)."""
    return Message(
        kind=MessageKind.CONTROL,
        payload=None,
        payload_bytes=0,
        sender=sender,
        description=description,
    )


def error_message(exception: BaseException, sender: str = "") -> Message:
    """A message signalling a remote failure; the exception rides along."""
    return Message(
        kind=MessageKind.ERROR,
        payload=exception,
        payload_bytes=len(str(exception)),
        sender=sender,
        description=type(exception).__name__,
    )


#: Sentinel description used by control messages that terminate a stream.
END_OF_STREAM = "end-of-stream"


def end_of_stream(sender: str = "") -> Message:
    return control_message(END_OF_STREAM, sender=sender)


def is_end_of_stream(message: Optional[Message]) -> bool:
    return (
        message is not None
        and message.kind is MessageKind.CONTROL
        and message.description == END_OF_STREAM
    )
