"""Unit tests for the four map backing structures."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.array_map import ArrayMap, KeyInterner
from repro.runtime.hash_map import HashMap
from repro.runtime.metadata import MetadataSpace
from repro.runtime.page_table import PageTableMap
from repro.runtime.shadow_memory import ShadowMemory
from repro.vm.cache import CacheSim
from repro.vm.profile import CostMeter, Profile


@pytest.fixture
def meter():
    return CostMeter(Profile(), CacheSim())


@pytest.fixture
def space():
    return MetadataSpace.fresh()


def make_values():
    return [0]


class TestShadowMemory:
    def test_lookup_is_stable(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        addr1, storage1 = shadow.lookup(0x1000_0000)
        addr2, storage2 = shadow.lookup(0x1000_0000)
        assert addr1 == addr2
        assert storage1 is storage2

    def test_granularity_coalesces_subword(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        _, a = shadow.lookup(0x1000_0000)
        _, b = shadow.lookup(0x1000_0007)  # same word
        _, c = shadow.lookup(0x1000_0008)  # next word
        assert a is b
        assert a is not c

    def test_byte_granularity_separates(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 1, make_values)
        _, a = shadow.lookup(0x1000_0000)
        _, b = shadow.lookup(0x1000_0001)
        assert a is not b

    def test_slots_in_range(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        _, runs = shadow.fold_or_store(0x1000_0000, 17, 0)  # 3 words
        assert len(shadow) == 3
        ((lo, hi),) = runs
        assert hi - lo == 2  # one contiguous span of 3 one-byte slots

    def test_slot_addresses_offset_linear(self, meter, space):
        shadow = ShadowMemory(meter, space, 4, 8, make_values)
        addr0, _ = shadow.lookup(0x1000_0000)
        addr1, _ = shadow.lookup(0x1000_0008)
        assert addr1 - addr0 == 4  # value_bytes

    def test_footprint_billed_per_page(self, space):
        profile = Profile()
        meter = CostMeter(profile, CacheSim())
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        shadow.lookup(0x1000_0000)
        shadow.lookup(0x1000_0008)  # same shadow page
        assert profile.metadata_bytes == 4096
        shadow.lookup(0x2000_0000)  # far away: new page
        assert profile.metadata_bytes == 8192

    def test_rejects_bad_granularity(self, meter, space):
        with pytest.raises(ValueError, match="granularity"):
            ShadowMemory(meter, space, 1, 3, make_values)


class TestPageTable:
    def test_roundtrip(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, make_values)
        _, storage = table.lookup(0x1234_5678)
        storage[0] = 42
        _, again = table.lookup(0x1234_5678)
        assert again[0] == 42

    def test_pages_committed_on_demand(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, make_values)
        table.lookup(0x1000_0000)
        table.lookup(0x1000_0100)  # same page
        assert table.committed_pages == 1
        table.lookup(0x5000_0000)
        assert table.committed_pages == 2

    def test_lookup_costs_more_than_shadow(self, space):
        profile_pt = Profile()
        pt = PageTableMap(CostMeter(profile_pt, CacheSim()), space, 1, 8, make_values)
        profile_sh = Profile()
        sh = ShadowMemory(CostMeter(profile_sh, CacheSim()), MetadataSpace.fresh(),
                          1, 8, make_values)
        # warm both, then measure a hot lookup
        pt.lookup(0x1000_0000)
        sh.lookup(0x1000_0000)
        before_pt, before_sh = profile_pt.instr_cycles, profile_sh.instr_cycles
        pt.lookup(0x1000_0000)
        sh.lookup(0x1000_0000)
        assert (profile_pt.instr_cycles - before_pt) > (
            profile_sh.instr_cycles - before_sh
        )

    def test_len_counts_entries(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, make_values)
        table.lookup(0x1000_0000)
        table.lookup(0x1000_0008)
        assert len(table) == 2


class TestArrayMap:
    def test_dense_keys(self, meter, space):
        array = ArrayMap(meter, space, 8, 16, make_values)
        _, storage = array.lookup(3)
        storage[0] = 9
        assert array.lookup(3)[1][0] == 9

    def test_out_of_domain_wraps(self, meter, space):
        array = ArrayMap(meter, space, 8, 4, make_values)
        _, a = array.lookup(1)
        _, b = array.lookup(5)  # 5 % 4 == 1
        assert a is b

    def test_footprint_upfront(self, space):
        profile = Profile()
        ArrayMap(CostMeter(profile, CacheSim()), space, 8, 100, make_values)
        assert profile.metadata_bytes == 800

    def test_addresses_dense(self, meter, space):
        array = ArrayMap(meter, space, 16, 8, make_values)
        addr0, _ = array.lookup(0)
        addr1, _ = array.lookup(1)
        assert addr1 - addr0 == 16

    def test_bad_domain(self, meter, space):
        with pytest.raises(ValueError, match="positive"):
            ArrayMap(meter, space, 8, 0, make_values)

    def test_range_yields_single_entry(self, meter, space):
        array = ArrayMap(meter, space, 8, 8, make_values)
        _, runs = array.fold_or_store(2, 64, 0)
        assert len(array) == 1
        address, _ = array.lookup(2)
        assert runs == [(address, address)]


class TestKeyInterner:
    def test_dense_assignment_in_order(self, meter, space):
        interner = KeyInterner(meter, space, 16)
        assert interner.intern(0xAAAA) == 0
        assert interner.intern(0xBBBB) == 1
        assert interner.intern(0xAAAA) == 0  # stable

    def test_overflow_wraps_and_counts(self, meter, space):
        interner = KeyInterner(meter, space, 2)
        interner.intern(1)
        interner.intern(2)
        assert interner.intern(3) == 0  # wrapped
        assert interner.overflowed == 1

    def test_len(self, meter, space):
        interner = KeyInterner(meter, space, 8)
        interner.intern(10)
        interner.intern(20)
        assert len(interner) == 2


class TestHashMap:
    def test_roundtrip(self, meter, space):
        table = HashMap(meter, space, 8, 8, make_values)
        _, storage = table.lookup(0x1000_0000)
        storage[0] = 5
        assert table.lookup(0x1000_0000)[1][0] == 5

    def test_footprint_per_entry(self, space):
        profile = Profile()
        table = HashMap(CostMeter(profile, CacheSim()), space, 8, 8, make_values)
        base = profile.metadata_bytes
        table.lookup(0x1000_0000)
        table.lookup(0x2000_0000)
        assert profile.metadata_bytes - base == 2 * (8 + 24)

    def test_range(self, meter, space):
        table = HashMap(meter, space, 8, 8, make_values)
        _, runs = table.fold_or_store(0x1000_0000, 24, 0)
        assert len(table) == 3
        assert len(runs) == 3  # hash entries are never adjacent


@given(keys=st.lists(st.integers(0x1000_0000, 0x1000_4000), min_size=1, max_size=40),
       impl_name=st.sampled_from(["shadow", "pagetable", "hash"]))
@settings(max_examples=40)
def test_impls_behave_like_dict(keys, impl_name):
    """All address-keyed structures implement the same mapping semantics."""
    meter = CostMeter(Profile(), CacheSim())
    space = MetadataSpace.fresh()
    cls = {"shadow": ShadowMemory, "pagetable": PageTableMap, "hash": HashMap}[impl_name]
    impl = cls(meter, space, 8, 8, make_values)
    model = {}
    for position, key in enumerate(keys):
        _, storage = impl.lookup(key)
        storage[0] = position
        model[key >> 3] = position
    for key in keys:
        assert impl.lookup(key)[1][0] == model[key >> 3]


# ----------------------------------------------------------------------
# The range billing rule (docs/COSTMODEL.md, "Range operations"),
# written out slot by slot and compared against each structure's
# single-call fold_or_store.
# ----------------------------------------------------------------------

PROGRAM_BASE = 0x1000_0000


class RangeModel:
    """Bills a range operation slot by slot, as the cost model states it.

    Owns its own meter, cache and a copy of the structure's address
    space; the cache sees the model's touches in the rule's order, so
    cache statistics that match after every operation also check the
    order of the structure's touches, not only their number.
    """

    def __init__(self, impl, space, kind, offset, size):
        self.impl = impl
        self.kind = kind
        self.offset = offset
        self.size = size
        self.profile = Profile()
        self.cache = CacheSim()
        self.meter = CostMeter(self.profile, self.cache)
        self.space = copy.deepcopy(space)  # reserves what impl reserves next
        self.values = {}  # slot key -> record
        self.pages = set()  # shadow pages / page-table pages already committed
        self.addresses = {}  # hash/page-table slot -> data address

    # -- per-slot rules -------------------------------------------------
    def _shadow_slot(self, index):
        address = self.impl.base + index * self.impl.value_bytes
        if address >> 12 not in self.pages:
            self.pages.add(address >> 12)
            self.meter.footprint(4096)
        return address

    def _pagetable_slot(self, index):
        impl = self.impl
        top, low = divmod(index, impl.page_entries)
        self.meter.touch(impl.dir_base + (top % 512) * 8, 8)
        self.meter.touch(impl.dir_base + 4096 + (top % (1024 * 1024)) * 8, 8)
        if top not in self.addresses:
            page_bytes = impl.page_entries * impl.value_bytes
            self.addresses[top] = self.space.reserve(page_bytes)
            self.meter.footprint(page_bytes)
        return self.addresses[top] + low * impl.value_bytes

    def _hash_slot(self, index):
        self.meter.cycles(3)
        bucket = (index * 0x9E3779B97F4A7C15) & 0xFFFF
        self.meter.touch(self.impl.bucket_base + bucket * 8, 8)
        if index not in self.addresses:
            entry_bytes = self.impl.value_bytes + 24
            self.addresses[index] = self.space.reserve(entry_bytes, align=16) + 24
            self.meter.footprint(entry_bytes)
        self.meter.touch(self.addresses[index] - 24, 8)
        return self.addresses[index]

    def _array_slot(self, index):
        return self.impl.base + index * self.impl.value_bytes

    # -- one range operation ------------------------------------------
    def apply(self, key, n_bytes, index, store, value):
        impl = self.impl
        if self.kind == "array":
            slots = [key % impl.domain]  # the single containing entry
        else:
            shift = impl.granularity.bit_length() - 1
            slots = range(key >> shift, ((key + n_bytes - 1) >> shift) + 1)
        slot_address = getattr(self, f"_{self.kind}_slot")
        self.meter.cycles({"shadow": 1, "pagetable": 2, "hash": 0, "array": 1}[self.kind])
        folded = 0
        addresses = []
        for slot in slots:
            addresses.append(slot_address(slot))
            record = self.values.setdefault(slot, make_record())
            if store:
                record[index] = value
            else:
                folded |= record[index]
        # one wide touch per run of adjacent slots
        run_start = None
        for position, address in enumerate(addresses):
            if run_start is None:
                run_start = address
            if position + 1 == len(addresses) or addresses[position + 1] != (
                address + impl.value_bytes
            ):
                self.meter.touch(run_start + self.offset, address - run_start + self.size)
                run_start = None
        return folded


def make_record():
    return [0, 0]


RANGE_CONFIGS = {
    # name: (structure, granularity, value_bytes)
    "shadow-g1-v1": (ShadowMemory, 1, 1),
    "shadow-g8-v1": (ShadowMemory, 8, 1),
    "shadow-g1-v48": (ShadowMemory, 1, 48),
    "shadow-g8-v48": (ShadowMemory, 8, 48),
    "shadow-g8-v8192": (ShadowMemory, 8, 8192),  # slots wider than a page
    "pagetable-g1-v1": (PageTableMap, 1, 1),
    "pagetable-g8-v8": (PageTableMap, 8, 8),
    "pagetable-g8-v48": (PageTableMap, 8, 48),
    "hash-g1-v8": (HashMap, 1, 8),
    "hash-g8-v8": (HashMap, 8, 8),
    "array-v8": (ArrayMap, None, 8),
}
_KIND = {ShadowMemory: "shadow", PageTableMap: "pagetable", HashMap: "hash", ArrayMap: "array"}

# Keys cluster around 4 KiB boundaries, which are both shadow-page and
# page-table-page boundaries of the program address space at these sizes.
range_keys = st.builds(
    lambda page, delta: PROGRAM_BASE + page * 4096 + delta,
    st.integers(0, 4),
    st.one_of(st.integers(-24, 24), st.integers(0, 4095)),
)
range_lengths = st.one_of(st.just(0), st.integers(1, 24), st.integers(25, 5000))
range_ops = st.lists(
    st.tuples(st.booleans(), range_keys, range_lengths, st.integers(0, 7)),
    min_size=1,
    max_size=8,
)


def _profile_view(profile, cache, base_bytes=0):
    return (profile.instr_cycles, profile.metadata_ops,
            profile.metadata_bytes - base_bytes, copy.copy(cache.stats))


@pytest.mark.parametrize("config", sorted(RANGE_CONFIGS))
@given(ops=range_ops, field=st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_range_rule_matches_slot_by_slot_model(config, ops, field):
    cls, granularity, value_bytes = RANGE_CONFIGS[config]
    kind = _KIND[cls]
    profile = Profile()
    cache = CacheSim()
    meter = CostMeter(profile, cache)
    space = MetadataSpace.fresh()
    if cls is ArrayMap:
        impl = ArrayMap(meter, space, value_bytes, 16, make_record)
    else:
        impl = cls(meter, space, value_bytes, granularity, make_record)
    base_bytes = profile.metadata_bytes
    # field 1 sits mid-record when the record has room for two fields
    offset, size = (8, 8) if field and value_bytes >= 16 else (0, min(value_bytes, 8))
    model = RangeModel(impl, space, kind, offset, size)
    for store, key, n_bytes, value in ops:
        if kind == "array":
            key = (key - PROGRAM_BASE) % 32  # ids, some beyond the domain
        folded, runs = impl.fold_or_store(key, n_bytes, field, store, value)
        for lo, hi in runs:
            meter.touch(lo + offset, hi - lo + size)
        expected = model.apply(key, n_bytes, field, store, value)
        assert folded == expected
        assert _profile_view(profile, cache, base_bytes) == _profile_view(
            model.profile, model.cache
        )
        assert len(impl) == len(model.values)


@pytest.mark.parametrize("config", sorted(RANGE_CONFIGS))
def test_range_store_copies_once_per_slot(config):
    cls, granularity, value_bytes = RANGE_CONFIGS[config]
    meter = CostMeter(Profile(), CacheSim())
    if cls is ArrayMap:
        impl = ArrayMap(meter, MetadataSpace.fresh(), value_bytes, 16, make_record)
    else:
        impl = cls(meter, MetadataSpace.fresh(), value_bytes, granularity, make_record)

    class Template:
        copies = 0

        def copy(self):
            Template.copies += 1
            return Template()

    template = Template()
    keys = [3] if cls is ArrayMap else range(PROGRAM_BASE, PROGRAM_BASE + 24)
    impl.fold_or_store(keys[0], 24, 1, True, template)
    records = {id(record): record for record in (impl.lookup(k)[1] for k in keys)}
    stored = [record[1] for record in records.values()]
    assert Template.copies == len(impl) == len(stored)
    assert template not in stored
    assert len({id(value) for value in stored}) == len(stored)
