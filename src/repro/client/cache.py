"""Result caching for duplicate UDF arguments.

[HN97]-style caching: when the same argument tuple is seen again the UDF is
not re-invoked.  The semi-join receiver uses a cache keyed by argument tuple
to join duplicate records with results that were only computed (and shipped)
once; the client runtime can use the same structure to avoid recomputation
when argument duplicates do reach it (the client-site join ships every
record, duplicates included).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Tuple


class ResultCache:
    """An LRU cache from hashable argument keys to UDF results."""

    #: Entries kept; a put past it evicts the least recently used.
    max_entries = 10_000

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_for(udf_name: str, arguments: Tuple) -> Tuple:
        """A canonical cache key for one invocation."""
        return (udf_name.lower(), arguments)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """Return ``(found, value)``; counts a hit or miss."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
