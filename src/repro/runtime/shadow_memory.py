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
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.vm.memory import AddressSpace

_PAGE = 4096

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
        make_values: Callable[[], list],
        name: str = "shadow",
    ) -> None:
        if granularity not in (1, 2, 4, 8):
            raise ValueError(f"unsupported granularity {granularity}")
        self.meter = meter
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._make_values = make_values
        span = (PROGRAM_SPACE_END >> self._shift) * value_bytes
        self.base = space.reserve(span, align=_PAGE, label=f"{name}-span")
        self._data: Dict[int, list] = {}
        self._touched_pages = set()

    def _slot(self, index: int) -> Tuple[int, list]:
        address = self.base + index * self.value_bytes
        page = address >> 12
        if page not in self._touched_pages:
            self._touched_pages.add(page)
            self.meter.footprint(_PAGE)
        storage = self._data.get(index)
        if storage is None:
            storage = self._make_values()
            self._data[index] = storage
        return address, storage

    def lookup(self, key: int) -> Tuple[int, list]:
        self.meter.cycles(1)  # shift+add address arithmetic
        return self._slot(key >> self._shift)

    def fold_or_store(self, key: int, n_bytes: int, index: int, store: bool = False, value=None):
        """OR field ``index`` over the slots covering ``[key, key+n_bytes)``,
        or store ``value`` there (one copy per slot when it has ``copy``).

        Bills 1 cycle and the footprint of each newly touched page;
        returns ``(folded, runs)`` with the slots' single
        ``(first, last)`` address span, or no span for an empty range.
        """
        self.meter.cycles(1)
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        if last < first:
            return 0, ()
        value_bytes = self.value_bytes
        lo = self.base + first * value_bytes
        hi = self.base + last * value_bytes
        # Slots no wider than a page leave no page between lo and hi
        # without a slot start; wider ones are paged slot by slot.
        if value_bytes <= _PAGE:
            pages = range(lo >> 12, (hi >> 12) + 1)
        else:
            pages = [address >> 12 for address in range(lo, hi + 1, value_bytes)]
        touched = self._touched_pages
        for page in pages:
            if page not in touched:
                touched.add(page)
                self.meter.footprint(_PAGE)
        data = self._data
        make_values = self._make_values
        folded = 0
        if store:
            copyable = hasattr(value, "copy")
            for slot in range(first, last + 1):
                storage = data.get(slot)
                if storage is None:
                    storage = data[slot] = make_values()
                storage[index] = value.copy() if copyable else value
        else:
            for slot in range(first, last + 1):
                storage = data.get(slot)
                if storage is None:
                    storage = data[slot] = make_values()
                folded |= storage[index]
        return folded, ((lo, hi),)

    def __len__(self) -> int:
        return len(self._data)
