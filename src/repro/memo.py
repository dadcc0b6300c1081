"""Bounded process-wide memos for immutable objects that analyses rebuild.

The point analyses (``rank``, ``sweep``, ``whatif``, the policy cells)
rebuild the same immutable objects over and over within one process: a
technique's plan for a context, a configuration's normalised cost, the
canonical encoding of a spec dataclass that every job of a sweep shares.
Each of those sites keeps one :class:`BoundedMemo`.  A memo only ever
holds values that are pure functions of their key, so a hit returns
what a miss would have computed; the sites document why that holds for
their keys.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable


class BoundedMemo:
    """A thread-safe map that holds at most ``max_entries`` entries.

    :meth:`put` keeps the first value stored under a key, so two threads
    that miss on one key together both get that one value back, and it
    evicts the oldest entry once the map is full.  :meth:`get` takes no
    lock: a single ``dict`` lookup is atomic.
    """

    __slots__ = ("max_entries", "_entries", "_lock")

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key``, or None."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` unless ``key`` already has one; return the stored value."""
        with self._lock:
            stored = self._entries.setdefault(key, value)
            if len(self._entries) > self.max_entries:
                del self._entries[next(iter(self._entries))]
            return stored

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
