"""Physical properties of optimizer plans."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet


class PlanSite(enum.Enum):
    """Where a plan's (intermediate) result currently resides.

    ``SERVER`` — the rows are on the server; server-side operations are free
    of communication cost, client-site UDFs must ship their inputs down.

    ``CLIENT`` — the rows are at the client (a client-site join whose return
    was deferred, or a plan fused with result delivery); further client-site
    UDFs are free of downlink cost, but any server-side operation must first
    ship everything back up.
    """

    SERVER = "server"
    CLIENT = "client"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PhysicalProperties:
    """The property vector used for pruning equivalence.

    ``client_columns`` is the set of (qualified) column names whose values
    are available at the client after semi-join style operations — the
    per-column location property of Section 5.2.3.  Two plans are comparable
    (and the worse one prunable) only when their properties are identical.
    """

    site: PlanSite = PlanSite.SERVER
    client_columns: FrozenSet[str] = frozenset()

    def describe(self) -> str:
        if self.site is PlanSite.CLIENT:
            return "result at client"
        if self.client_columns:
            return f"server result; client holds {sorted(self.client_columns)}"
        return "server result"
