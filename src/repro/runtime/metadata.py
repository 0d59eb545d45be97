"""Metadata address space, field layout, and the coalesced-map container.

A :class:`CoalescedMap` is the runtime realization of ALDAcc's *map
coalescing* (paper section 5.2): one or more ALDA-level maps with the same
key type share one underlying mapping structure, with each original map
becoming a *field* at a fixed byte offset inside the shared value record.
Because fields of one record live at adjacent simulated addresses, looking
up a second field after the first is an L1 hit — the co-location effect
the paper optimizes for.

An uncoalesced map is simply a :class:`CoalescedMap` with one field, so
handler code generation is uniform across optimization levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.vm.memory import AddressSpace

#: (simulated value-record address, per-field columns, offset into them):
#: field ``i`` of the slot is ``columns[i][offset]``
Slot = Tuple[int, list, int]
#: contiguous slot runs as (first slot address, last slot address) pairs
Runs = Sequence[Tuple[int, int]]


def split_defaults(defaults: Sequence[object]) -> Tuple[list, list]:
    """Split per-field defaults into ``(fill, factories)``.

    A scalar default pre-fills its column.  A callable one is a set
    factory: its column holds ``None`` until the slot's first load
    creates the set, which bills nothing, like any set creation.
    """
    fill = [None if callable(default) else default for default in defaults]
    factories = [default if callable(default) else None for default in defaults]
    return fill, factories


def new_columns(fill: Sequence[object], length: int, marks: bool = True) -> list:
    """One chunk of ``length`` slots: a flat list per field, pre-filled,
    then (with ``marks``) a byte per slot, set once the slot is
    materialized, which :func:`count_materialized` counts.  The marks
    are a memoryview, whose slice assignment is the cheaper one."""
    columns = [[value] * length for value in fill]
    if marks:
        columns.append(memoryview(bytearray(length)))
    return columns


def count_materialized(chunks: Iterable[list]) -> int:
    return sum(columns[-1].obj.count(1) for columns in chunks)


def fold_or_store_slots(
    slot: Callable[[int], Slot],
    indices: Iterable[int],
    index: int,
    store: bool,
    value,
    stride: int,
    factory: Optional[Callable[[], object]] = None,
) -> Tuple[object, Runs]:
    """The range operation of structures whose slots need per-slot work.

    Resolves ``slot(i)`` for each ``i`` in ``indices`` in order, so the
    structure bills each slot exactly as a point lookup would, and ORs
    field ``index`` into the result or stores ``value`` there (one copy
    per slot when it has ``copy``); ``factory`` creates a set field on
    its first load.  Returns ``(folded, runs)``: the maximal runs of
    slots ``stride`` bytes apart.
    """
    copyable = store and hasattr(value, "copy")
    folded = 0
    runs = []
    lo = hi = None
    for i in indices:
        address, columns, offset = slot(i)
        column = columns[index]
        if store:
            column[offset] = value.copy() if copyable else value
        else:
            current = column[offset]
            if current is None:
                current = column[offset] = factory()
            folded |= current
        if hi is not None and address == hi + stride:
            hi = address
            continue
        if hi is not None:
            runs.append((lo, hi))
        lo = hi = address
    if hi is not None:
        runs.append((lo, hi))
    return folded, runs


class MetadataSpace:
    """Bump allocator for simulated metadata addresses.

    Tracks *virtual* reservation separately from committed bytes: shadow
    memory reserves its whole span up front (cheap virtual memory in the
    paper), while page tables reserve pages on demand.
    """

    #: stride between independently created spaces (see :meth:`fresh`)
    STRIDE = 1 << 42
    _fresh_count = 0

    def __init__(self, base: int = AddressSpace.METADATA_BASE) -> None:
        self._cursor = base
        self.virtual_bytes = 0
        self.labels: List[Tuple[str, int, int]] = []

    @classmethod
    def fresh(cls) -> "MetadataSpace":
        """A space disjoint from every previously created one.

        Disjointness keeps several runtimes sharing one cache simulator
        from aliasing each other's metadata lines.
        """
        base = AddressSpace.METADATA_BASE + cls._fresh_count * cls.STRIDE
        cls._fresh_count += 1
        return cls(base)

    def reserve(self, n_bytes: int, align: int = 64, label: str = "") -> int:
        if n_bytes <= 0:
            raise ValueError("reservation must be positive")
        mask = align - 1
        self._cursor = (self._cursor + mask) & ~mask
        base = self._cursor
        self._cursor += n_bytes
        self.virtual_bytes += n_bytes
        self.labels.append((label, base, n_bytes))
        return base


@dataclass(frozen=True)
class FieldSpec:
    """One ALDA-level map folded into a coalesced value record."""

    name: str
    offset: int
    size: int
    kind: str  # "int", or the set representation ("bitvec", "treeset", ...)
    default_factory: Callable[[], object]


def column_defaults(fields: Sequence[FieldSpec]) -> list:
    """The per-field defaults a structure is built with: the value itself
    for ``int`` fields, the factory for set fields."""
    return [
        field.default_factory() if field.kind == "int" else field.default_factory
        for field in fields
    ]


class CoalescedMap:
    """Key -> record-of-fields mapping over a selected backing structure.

    ``impl`` is one of :class:`repro.runtime.shadow_memory.ShadowMemory`,
    :class:`repro.runtime.page_table.PageTableMap`,
    :class:`repro.runtime.array_map.ArrayMap` or
    :class:`repro.runtime.hash_map.HashMap` — all provide ``lookup(key)``,
    which returns a :data:`Slot`, and ``fold_or_store(key, n_bytes,
    index, store, value)``, which returns the folded value and the
    contiguous slot runs to bill.  Each keeps its fields column-wise in
    chunks built by :func:`new_columns`.
    """

    #: counter for memo identities
    _next_mid = 0

    def __init__(
        self,
        name: str,
        impl,
        fields: Sequence[FieldSpec],
        meter,
        sync=None,
        memo: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.impl = impl
        self.fields = list(fields)
        self.meter = meter
        self.sync = sync
        #: Cross-handler lookup memo (cleared per event by the runtime):
        #: the mechanism behind lookup coalescing when several handlers at
        #: one insertion point access the same group under the same key.
        self.memo = memo
        CoalescedMap._next_mid += 1
        self._mid = CoalescedMap._next_mid
        self._index = {field.name: position for position, field in enumerate(self.fields)}

    @property
    def value_bytes(self) -> int:
        return self.impl.value_bytes

    def field_index(self, name: str) -> int:
        return self._index[name]

    # ------------------------------------------------------------------
    # point operations
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Slot:
        """Resolve the slot for ``key``; bills the structure's lookup cost.

        This is the operation ALDAcc's CSE hoists: handler code generated
        with lookup reduction calls it once per distinct key per event.
        """
        memo = self.memo
        if memo is not None:
            memo_key = (self._mid, key)
            cached = memo.get(memo_key)
            if cached is not None:
                return cached
        if self.sync is not None:
            self.sync.enter(key)
        slot = self.impl.lookup(key)
        if memo is not None:
            memo[memo_key] = slot
        return slot

    def _bill_field(self, slot: Slot, field: FieldSpec) -> None:
        """Bill the cache access behind one field read/write.

        With lookup reduction on, repeated accesses to the same cache
        line within one event are register hits: the generated code
        holds the looked-up record in locals (paper section 5.4), so
        only the first access of each line is billed.
        """
        address = slot[0] + field.offset
        memo = self.memo
        if memo is not None:
            line_key = (-1, address >> 6)
            if line_key in memo:
                return
            memo[line_key] = True
        self.meter.touch(address, field.size)

    def load(self, slot: Slot, field_index: int):
        field = self.fields[field_index]
        self._bill_field(slot, field)
        column = slot[1][field_index]
        value = column[slot[2]]
        if value is None:
            value = column[slot[2]] = field.default_factory()
        return value

    def store(self, slot: Slot, field_index: int, value) -> None:
        self._bill_field(slot, self.fields[field_index])
        slot[1][field_index][slot[2]] = value

    def get(self, key: int, field_index: int = 0):
        return self.load(self.lookup(key), field_index)

    def set(self, key: int, field_index: int, value) -> None:
        self.store(self.lookup(key), field_index, value)

    # ------------------------------------------------------------------
    # range operations (ALDA's map.set(k, v, n) / map.get(k, n))
    # ------------------------------------------------------------------
    def _bill_runs(self, runs: Runs, field: FieldSpec) -> None:
        """Bill each contiguous slot run as a single wide access.

        A compiled range operation over adjacent shadow slots is a
        vectorized sweep, not N dependent loads; billing the span keeps
        the cost model faithful to what optimized code would execute.
        """
        touch = self.meter.touch
        for lo, hi in runs:
            touch(lo + field.offset, hi - lo + field.size)

    def load_range(self, key: int, n_bytes: int, field_index: int) -> int:
        """Fold integer field values over [key, key+n_bytes) with OR.

        This is MemorySanitizer's ``addr2label.get(ptr, s)``: a load is
        poisoned if *any* covered granule is poisoned.
        """
        if n_bytes <= 0:
            return 0
        if self.sync is not None:
            self.sync.enter(key)
        folded, runs = self.impl.fold_or_store(key, n_bytes, field_index)
        self._bill_runs(runs, self.fields[field_index])
        return folded

    def store_range(self, key: int, n_bytes: int, field_index: int, value) -> None:
        if n_bytes <= 0:
            return
        if self.sync is not None:
            self.sync.enter(key)
        _, runs = self.impl.fold_or_store(key, n_bytes, field_index, True, value)
        self._bill_runs(runs, self.fields[field_index])
