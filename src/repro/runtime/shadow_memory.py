"""Offset-based shadow memory (paper sections 3.2.2 and 5.3).

The fastest address-keyed mapping: ``slot = base + (addr >> g) * value_bytes``
— one shift, one multiply, one memory access.  The price is address-space
reservation proportional to the whole program address space; ALDAcc only
selects it when the *shadow factor* (metadata bytes per program byte after
granularity) is at most the threshold (default 3).

Committed footprint is billed per touched 4 KiB shadow page, mirroring
demand paging of a large virtual reservation.  Slots are contiguous, so
a range operation is arithmetic: its first and last slot, the pages
between them, and one span for the caller to bill as a wide access.
Storage is columnar in 4096-slot chunks, so within a chunk the range's
values are one slice of each field's column.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.runtime.metadata import Slot, count_materialized, new_columns, split_defaults
from repro.vm.memory import AddressSpace

_PAGE = 4096
#: slots per storage chunk (a power of two)
_CHUNK_BITS = 12
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
_MARKS = b"\x01" * (1 << _CHUNK_BITS)

#: End of program-visible address space that shadow mappings must cover.
PROGRAM_SPACE_END = AddressSpace.STACK_BASE + 64 * AddressSpace.STACK_STRIDE


class ShadowMemory:
    """Directly indexed shadow of the program address space."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        granularity: int,
        defaults: Sequence[object],
        name: str = "shadow",
    ) -> None:
        if granularity not in (1, 2, 4, 8):
            raise ValueError(f"unsupported granularity {granularity}")
        self.meter = meter
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._fill, self._factories = split_defaults(defaults)
        span = (PROGRAM_SPACE_END >> self._shift) * value_bytes
        self.base = space.reserve(span, align=_PAGE, label=f"{name}-span")
        self._chunks: Dict[int, list] = {}
        self._touched_pages = set()

    def _chunk(self, number: int) -> list:
        columns = self._chunks.get(number)
        if columns is None:
            columns = self._chunks[number] = new_columns(self._fill, _CHUNK_MASK + 1)
        return columns

    def lookup(self, key: int) -> Slot:
        self.meter.cycles(1)  # shift+add address arithmetic
        index = key >> self._shift
        address = self.base + index * self.value_bytes
        page = address >> 12
        if page not in self._touched_pages:
            self._touched_pages.add(page)
            self.meter.footprint(_PAGE)
        columns = self._chunks.get(index >> _CHUNK_BITS)
        if columns is None:
            columns = self._chunk(index >> _CHUNK_BITS)
        offset = index & _CHUNK_MASK
        columns[-1][offset] = 1
        return address, columns, offset

    def fold_or_store(self, key: int, n_bytes: int, index: int, store: bool = False, value=None):
        """OR field ``index`` over the slots covering ``[key, key+n_bytes)``,
        or store ``value`` there (one copy per slot when it has ``copy``).

        Bills 1 cycle and the footprint of each newly touched page;
        returns ``(folded, runs)`` with the slots' single
        ``(first, last)`` address span, or no span for an empty range.
        Within one chunk, a scalar store or fold is a slice operation.
        """
        self.meter.cycles(1)
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        if last < first:
            return 0, ()
        value_bytes = self.value_bytes
        lo = self.base + first * value_bytes
        hi = self.base + last * value_bytes
        page = lo >> 12
        if page == hi >> 12:
            if page not in self._touched_pages:
                self._touched_pages.add(page)
                self.meter.footprint(_PAGE)
        else:
            self._commit_pages(lo, hi)
        number = first >> _CHUNK_BITS
        if number == last >> _CHUNK_BITS and (
            not store and self._factories[index] is None
            or store and not hasattr(value, "copy")
        ):
            # The common case: a scalar store or fold within one chunk.
            columns = self._chunks.get(number)
            if columns is None:
                columns = self._chunk(number)
            a = first & _CHUNK_MASK
            b = a + last - first + 1
            columns[-1][a:b] = _MARKS[a:b]
            if store:
                columns[index][a:b] = [value] * (b - a)
                return 0, ((lo, hi),)
            values = columns[index][a:b]
            folded = 0
            if any(values):
                for current in values:
                    folded |= current
            return folded, ((lo, hi),)
        return self._fold_or_store_chunks(first, last, index, store, value), ((lo, hi),)

    def _commit_pages(self, lo: int, hi: int) -> None:
        """Bill the footprint of each new page under slots ``lo..hi``."""
        # Slots no wider than a page leave no page between lo and hi
        # without a slot start; wider ones are paged slot by slot.
        if self.value_bytes <= _PAGE:
            pages = range(lo >> 12, (hi >> 12) + 1)
        else:
            pages = [address >> 12 for address in range(lo, hi + 1, self.value_bytes)]
        touched = self._touched_pages
        for page in pages:
            if page not in touched:
                touched.add(page)
                self.meter.footprint(_PAGE)

    def _fold_or_store_chunks(self, first: int, last: int, index: int, store: bool, value):
        """:meth:`fold_or_store` chunk by chunk, for ranges across chunks,
        copied stores and set folds; the footprint is already billed."""
        copyable = store and hasattr(value, "copy")
        factory = self._factories[index]
        folded = 0
        for number in range(first >> _CHUNK_BITS, (last >> _CHUNK_BITS) + 1):
            columns = self._chunk(number)
            a = max(first, number << _CHUNK_BITS) & _CHUNK_MASK
            b = (min(last, number << _CHUNK_BITS | _CHUNK_MASK) & _CHUNK_MASK) + 1
            columns[-1][a:b] = _MARKS[a:b]
            column = columns[index]
            if copyable:
                for offset in range(a, b):
                    column[offset] = value.copy()
            elif store:
                column[a:b] = [value] * (b - a)
            elif factory is None:
                for current in column[a:b]:
                    folded |= current
            else:
                for offset in range(a, b):
                    current = column[offset]
                    if current is None:
                        current = column[offset] = factory()
                    folded |= current
        return folded

    def __len__(self) -> int:
        return count_materialized(self._chunks.values())
