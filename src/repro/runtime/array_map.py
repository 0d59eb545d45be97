"""Directly indexed array map for small, bounded key domains.

Used when a key's domain is statically limited via ALDA's ``number``
specifier (e.g. ``tid := threadid : 4`` or ``lid := lockid : 256``): the
whole table is committed up front and a lookup is one indexed access.

Keys that are naturally dense small ints (thread ids) index directly.
Keys drawn from sparse spaces (lock *addresses* behind a bounded
``lockid`` domain) go through a :class:`KeyInterner`, mirroring how real
detectors such as ThreadSanitizer bound their lock tables; interner
overflow wraps and is counted rather than crashing the run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.runtime.metadata import (
    Slot,
    count_materialized,
    fold_or_store_slots,
    new_columns,
    split_defaults,
)


class KeyInterner:
    """Dense renaming of sparse keys into ``[0, domain)``."""

    def __init__(self, meter, space, domain: int, name: str = "intern") -> None:
        self.meter = meter
        self.domain = domain
        self.table_base = space.reserve(max(64, domain * 16), label=f"{name}-table")
        self.meter.footprint(domain * 16)
        self._ids: Dict[int, int] = {}
        self.overflowed = 0

    def intern(self, key: int) -> int:
        # One hashed probe into the interning table.
        self.meter.cycles(2)
        self.meter.touch(self.table_base + (hash(key) % self.domain) * 16, 16)
        dense = self._ids.get(key)
        if dense is None:
            dense = len(self._ids)
            if dense >= self.domain:
                self.overflowed += 1
                dense = dense % self.domain
            self._ids[key] = dense
        return dense

    def __len__(self) -> int:
        return len(self._ids)


class ArrayMap:
    """key -> record map over a fixed ``domain``-entry table."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        domain: int,
        defaults: Sequence[object],
        interner: Optional[KeyInterner] = None,
        name: str = "array",
    ) -> None:
        if domain <= 0:
            raise ValueError("ArrayMap domain must be positive")
        self.meter = meter
        self.value_bytes = value_bytes
        self.domain = domain
        self.granularity = 1
        fill, self._factories = split_defaults(defaults)
        self.interner = interner
        self.base = space.reserve(domain * value_bytes, label=f"{name}-table")
        self.meter.footprint(domain * value_bytes)
        self._columns = new_columns(fill, domain)  # the whole table is one chunk

    def lookup(self, key: int) -> Slot:
        if self.interner is not None:
            key = self.interner.intern(key)
        elif key >= self.domain or key < 0:
            key = key % self.domain
        self.meter.cycles(1)
        self._columns[-1][key] = 1
        return self.base + key * self.value_bytes, self._columns, key

    def fold_or_store(self, key: int, n_bytes: int, index: int, store: bool = False, value=None):
        # Bounded-domain maps are keyed by ids, not addresses: a "range"
        # over n bytes means the single containing entry.
        return fold_or_store_slots(
            self.lookup, (key,), index, store, value, self.value_bytes,
            self._factories[index],
        )

    def __len__(self) -> int:
        return count_materialized((self._columns,))
