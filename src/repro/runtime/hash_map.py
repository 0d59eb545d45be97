"""Generic chained hash map — the *unselected* baseline structure.

The paper (section 3.2.2) argues a hash map is a poor choice for
address-sized key domains: per-entry overhead, poor locality, and an
extra dependent access per probe.  ALDAcc therefore never picks it when
shadow memory, a page table, or an array map applies; it is kept as the
structure used when data-structure selection is disabled (the ablation
where the paper reports non-trivial benchmarks running out of memory).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.runtime.metadata import Slot, fold_or_store_slots, new_columns, split_defaults

_BUCKETS = 1 << 16
_ENTRY_OVERHEAD = 24  # key + next pointer + allocator header
#: slot indices per storage chunk (a power of two)
_CHUNK_BITS = 12
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


class HashMap:
    """key -> record map with modelled bucket + entry traffic."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        granularity: int,
        defaults: Sequence[object],
        name: str = "hashmap",
    ) -> None:
        self.meter = meter
        self.space = space
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._fill, self._factories = split_defaults(defaults)
        self._name = name
        self.bucket_base = space.reserve(_BUCKETS * 8, label=f"{name}-buckets")
        self.meter.footprint(_BUCKETS * 8)
        self._addresses: Dict[int, int] = {}  # slot index -> entry's value address
        self._chunks: Dict[int, list] = {}  # index >> _CHUNK_BITS -> columns

    def _slot(self, index: int) -> Slot:
        # Hash, probe the bucket array, then chase the entry pointer.
        self.meter.cycles(3)
        bucket = (index * 0x9E3779B97F4A7C15) & (_BUCKETS - 1)
        self.meter.touch(self.bucket_base + bucket * 8, 8)
        address = self._addresses.get(index)
        if address is None:
            entry_bytes = self.value_bytes + _ENTRY_OVERHEAD
            entry = self.space.reserve(entry_bytes, align=16, label=f"{self._name}-entry")
            self.meter.footprint(entry_bytes)
            address = self._addresses[index] = entry + _ENTRY_OVERHEAD
        self.meter.touch(address - _ENTRY_OVERHEAD, 8)  # entry header (key check)
        columns = self._chunks.get(index >> _CHUNK_BITS)
        if columns is None:
            columns = self._chunks[index >> _CHUNK_BITS] = new_columns(
                self._fill, _CHUNK_MASK + 1, marks=False
            )
        return address, columns, index & _CHUNK_MASK

    def lookup(self, key: int) -> Slot:
        return self._slot(key >> self._shift)

    def fold_or_store(self, key: int, n_bytes: int, index: int, store: bool = False, value=None):
        """Range form of :meth:`lookup`: every covered slot is a full
        hashed probe, in order; returns the data runs."""
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        return fold_or_store_slots(
            self._slot, range(first, last + 1), index, store, value, self.value_bytes,
            self._factories[index],
        )

    def __len__(self) -> int:
        return len(self._addresses)
