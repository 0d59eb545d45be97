"""Two-level page-table map for address-sized key domains.

ALDAcc selects this over offset shadow memory when the shadow factor
exceeds the threshold (paper section 5.3): it commits memory only for
populated pages at the cost of one extra dependent access (the directory
walk) on every lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.runtime.metadata import fold_or_store_slots

#: bytes of metadata committed per data page (an OS page), independent of
#: the value size — fat records get fewer entries per page, like a real
#: chunked shadow map (Umbra-style), not a fixed entry count
_PAGE_BYTES = 4096
_MIN_PAGE_ENTRIES = 64
_DIR_SPAN = 8 * 1024 * 1024  # directory entries are 8-byte pointers


class PageTableMap:
    """key -> record map with on-demand page allocation."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        granularity: int,
        make_values: Callable[[], list],
        name: str = "pagetable",
    ) -> None:
        if granularity not in (1, 2, 4, 8):
            raise ValueError(f"unsupported granularity {granularity}")
        self.meter = meter
        self.space = space
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._make_values = make_values
        self._name = name
        self.page_entries = max(_MIN_PAGE_ENTRIES, _PAGE_BYTES // value_bytes)
        self.dir_base = space.reserve(_DIR_SPAN, label=f"{name}-dir")
        self.meter.footprint(_DIR_SPAN // 1024)  # sparse directory commit
        self._pages: Dict[int, Tuple[int, Dict[int, list]]] = {}

    def _page(self, top: int) -> Tuple[int, Dict[int, list]]:
        # Directory walk: two dependent accesses (root entry, then the
        # second-level directory entry) before the data page itself.
        self.meter.touch(self.dir_base + (top % 512) * 8, 8)
        self.meter.touch(self.dir_base + 4096 + (top % (_DIR_SPAN // 8)) * 8, 8)
        page = self._pages.get(top)
        if page is None:
            page_bytes = self.page_entries * self.value_bytes
            base = self.space.reserve(page_bytes, label=f"{self._name}-page")
            self.meter.footprint(page_bytes)
            page = (base, {})
            self._pages[top] = page
        return page

    def _slot(self, index: int) -> Tuple[int, list]:
        top, low = divmod(index, self.page_entries)
        page_base, entries = self._page(top)
        address = page_base + low * self.value_bytes
        storage = entries.get(low)
        if storage is None:
            storage = self._make_values()
            entries[low] = storage
        return address, storage

    def lookup(self, key: int) -> Tuple[int, list]:
        self.meter.cycles(2)  # index split + bounds math
        return self._slot(key >> self._shift)

    def fold_or_store(self, key: int, n_bytes: int, index: int, store: bool = False, value=None):
        """Range form of :meth:`lookup`: 2 cycles per range, then each
        covered slot's directory walk in order; returns the data runs."""
        self.meter.cycles(2)
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        return fold_or_store_slots(
            self._slot, range(first, last + 1), index, store, value, self.value_bytes
        )

    @property
    def committed_pages(self) -> int:
        return len(self._pages)

    def __len__(self) -> int:
        return sum(len(entries) for _, entries in self._pages.values())
