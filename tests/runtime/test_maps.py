"""Unit tests for the four map backing structures."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.array_map import ArrayMap, KeyInterner
from repro.runtime.bitvector import BitVecSet
from repro.runtime.hash_map import HashMap
from repro.runtime.metadata import CoalescedMap, FieldSpec, MetadataSpace
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


DEFAULTS = [0]


def same_storage(a, b):
    """Two slots share storage: the same columns at the same offset."""
    return a[1] is b[1] and a[2] == b[2]


class TestShadowMemory:
    def test_lookup_is_stable(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, DEFAULTS)
        slot1 = shadow.lookup(0x1000_0000)
        slot2 = shadow.lookup(0x1000_0000)
        assert slot1[0] == slot2[0]
        assert same_storage(slot1, slot2)

    def test_granularity_coalesces_subword(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, DEFAULTS)
        a = shadow.lookup(0x1000_0000)
        b = shadow.lookup(0x1000_0007)  # same word
        c = shadow.lookup(0x1000_0008)  # next word
        assert same_storage(a, b)
        assert not same_storage(a, c)

    def test_byte_granularity_separates(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 1, DEFAULTS)
        a = shadow.lookup(0x1000_0000)
        b = shadow.lookup(0x1000_0001)
        assert not same_storage(a, b)

    def test_slots_in_range(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, DEFAULTS)
        _, runs = shadow.fold_or_store(0x1000_0000, 17, 0)  # 3 words
        assert len(shadow) == 3
        ((lo, hi),) = runs
        assert hi - lo == 2  # one contiguous span of 3 one-byte slots

    def test_slot_addresses_offset_linear(self, meter, space):
        shadow = ShadowMemory(meter, space, 4, 8, DEFAULTS)
        addr0 = shadow.lookup(0x1000_0000)[0]
        addr1 = shadow.lookup(0x1000_0008)[0]
        assert addr1 - addr0 == 4  # value_bytes

    def test_footprint_billed_per_page(self, space):
        profile = Profile()
        meter = CostMeter(profile, CacheSim())
        shadow = ShadowMemory(meter, space, 1, 8, DEFAULTS)
        shadow.lookup(0x1000_0000)
        shadow.lookup(0x1000_0008)  # same shadow page
        assert profile.metadata_bytes == 4096
        shadow.lookup(0x2000_0000)  # far away: new page
        assert profile.metadata_bytes == 8192

    def test_rejects_bad_granularity(self, meter, space):
        with pytest.raises(ValueError, match="granularity"):
            ShadowMemory(meter, space, 1, 3, DEFAULTS)


class TestPageTable:
    def test_roundtrip(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, DEFAULTS)
        _, columns, offset = table.lookup(0x1234_5678)
        columns[0][offset] = 42
        _, again, at = table.lookup(0x1234_5678)
        assert again[0][at] == 42

    def test_pages_committed_on_demand(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, DEFAULTS)
        table.lookup(0x1000_0000)
        table.lookup(0x1000_0100)  # same page
        assert table.committed_pages == 1
        table.lookup(0x5000_0000)
        assert table.committed_pages == 2

    def test_lookup_costs_more_than_shadow(self, space):
        profile_pt = Profile()
        pt = PageTableMap(CostMeter(profile_pt, CacheSim()), space, 1, 8, DEFAULTS)
        profile_sh = Profile()
        sh = ShadowMemory(CostMeter(profile_sh, CacheSim()), MetadataSpace.fresh(),
                          1, 8, DEFAULTS)
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
        table = PageTableMap(meter, space, 8, 8, DEFAULTS)
        table.lookup(0x1000_0000)
        table.lookup(0x1000_0008)
        assert len(table) == 2


class TestArrayMap:
    def test_dense_keys(self, meter, space):
        array = ArrayMap(meter, space, 8, 16, DEFAULTS)
        _, columns, offset = array.lookup(3)
        columns[0][offset] = 9
        _, again, at = array.lookup(3)
        assert again[0][at] == 9

    def test_out_of_domain_wraps(self, meter, space):
        array = ArrayMap(meter, space, 8, 4, DEFAULTS)
        a = array.lookup(1)
        b = array.lookup(5)  # 5 % 4 == 1
        assert same_storage(a, b)

    def test_footprint_upfront(self, space):
        profile = Profile()
        ArrayMap(CostMeter(profile, CacheSim()), space, 8, 100, DEFAULTS)
        assert profile.metadata_bytes == 800

    def test_addresses_dense(self, meter, space):
        array = ArrayMap(meter, space, 16, 8, DEFAULTS)
        addr0 = array.lookup(0)[0]
        addr1 = array.lookup(1)[0]
        assert addr1 - addr0 == 16

    def test_bad_domain(self, meter, space):
        with pytest.raises(ValueError, match="positive"):
            ArrayMap(meter, space, 8, 0, DEFAULTS)

    def test_range_yields_single_entry(self, meter, space):
        array = ArrayMap(meter, space, 8, 8, DEFAULTS)
        _, runs = array.fold_or_store(2, 64, 0)
        assert len(array) == 1
        address = array.lookup(2)[0]
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
        table = HashMap(meter, space, 8, 8, DEFAULTS)
        _, columns, offset = table.lookup(0x1000_0000)
        columns[0][offset] = 5
        _, again, at = table.lookup(0x1000_0000)
        assert again[0][at] == 5

    def test_footprint_per_entry(self, space):
        profile = Profile()
        table = HashMap(CostMeter(profile, CacheSim()), space, 8, 8, DEFAULTS)
        base = profile.metadata_bytes
        table.lookup(0x1000_0000)
        table.lookup(0x2000_0000)
        assert profile.metadata_bytes - base == 2 * (8 + 24)

    def test_range(self, meter, space):
        table = HashMap(meter, space, 8, 8, DEFAULTS)
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
    impl = cls(meter, space, 8, 8, DEFAULTS)
    model = {}
    for position, key in enumerate(keys):
        _, columns, offset = impl.lookup(key)
        columns[0][offset] = position
        model[key >> 3] = position
    for key in keys:
        _, columns, offset = impl.lookup(key)
        assert columns[0][offset] == model[key >> 3]


# ----------------------------------------------------------------------
# The range billing rule (docs/COSTMODEL.md, "Range operations"),
# written out slot by slot over eagerly built records and compared
# against each structure's columnar storage, single-call fold_or_store
# and point lookups.
# ----------------------------------------------------------------------

PROGRAM_BASE = 0x1000_0000


def new_set():
    return BitVecSet.universe(8)


#: per-field defaults: two scalars (one nonzero) and a lazily built set
RECORD_DEFAULTS = [0, 5, new_set]
SET_FIELD = 2


def make_record():
    """The eager record the slot-by-slot model keeps per slot."""
    return [0, 5, new_set()]


def record_fields(value_bytes):
    """FieldSpecs for RECORD_DEFAULTS inside a ``value_bytes`` record;
    fields that do not fit side by side share offset 0."""
    fields = []
    for position, default in enumerate(RECORD_DEFAULTS):
        offset = 8 * position if 8 * position + 8 <= value_bytes else 0
        factory = default if callable(default) else (lambda default=default: default)
        kind = "set" if callable(default) else "int"
        fields.append(FieldSpec(f"f{position}", offset, min(8, value_bytes), kind, factory))
    return fields


class RangeModel:
    """Bills each operation slot by slot, as the cost model states it.

    Owns its own meter, cache and a copy of the structure's address
    space; the cache sees the model's touches in the rule's order, so
    cache statistics that match after every operation also check the
    order of the structure's touches, not only their number.
    """

    def __init__(self, impl, space, kind, fields):
        self.impl = impl
        self.kind = kind
        self.fields = fields
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

    def slots(self, key, n_bytes):
        if self.kind == "array":
            return [key % self.impl.domain]  # the single containing entry
        shift = self.impl.granularity.bit_length() - 1
        return range(key >> shift, ((key + n_bytes - 1) >> shift) + 1)

    def _resolve(self, slots):
        """Bill the per-operation cycles and each slot; returns addresses."""
        self.meter.cycles({"shadow": 1, "pagetable": 2, "hash": 0, "array": 1}[self.kind])
        slot_address = getattr(self, f"_{self.kind}_slot")
        addresses = []
        for slot in slots:
            addresses.append(slot_address(slot))
            self.values.setdefault(slot, make_record())
        return addresses

    # -- operations ---------------------------------------------------
    def range_op(self, key, n_bytes, index, store, value):
        if n_bytes <= 0:  # CoalescedMap bills nothing for an empty range
            return None if store else 0
        field = self.fields[index]
        slots = self.slots(key, n_bytes)
        addresses = self._resolve(slots)
        folded = 0
        for slot in slots:
            record = self.values[slot]
            if store:
                record[index] = value.copy() if hasattr(value, "copy") else value
            else:
                folded |= record[index]
        # one wide touch per run of adjacent slots
        run_start = None
        for position, address in enumerate(addresses):
            if run_start is None:
                run_start = address
            if position + 1 == len(addresses) or addresses[position + 1] != (
                address + self.impl.value_bytes
            ):
                self.meter.touch(run_start + field.offset, address - run_start + field.size)
                run_start = None
        return None if store else folded

    def point_op(self, key, index, store, value):
        field = self.fields[index]
        slots = self.slots(key, 1)
        (address,) = self._resolve(slots)
        self.meter.touch(address + field.offset, field.size)
        record = self.values[slots[0]]
        if store:
            record[index] = value
            return None
        return record[index]


def peek_records(impl, kind, slots):
    """Each slot's record as stored, read without billing the structure's
    own meter, with a never-loaded set field read as a fresh default."""
    meter = impl.meter
    impl.meter = CostMeter(Profile(), CacheSim())
    try:
        records = {}
        for slot in slots:
            key = slot if kind == "array" else slot << (impl.granularity.bit_length() - 1)
            _, columns, offset = impl.lookup(key)
            records[slot] = [
                column[offset] if column[offset] is not None else RECORD_DEFAULTS[i]()
                for i, column in enumerate(columns[: len(RECORD_DEFAULTS)])
            ]
        return records
    finally:
        impl.meter = meter


RANGE_CONFIGS = {
    # name: (structure, granularity, value_bytes)
    "shadow-g1-v1": (ShadowMemory, 1, 1),
    "shadow-g8-v1": (ShadowMemory, 8, 1),
    "shadow-g1-v24": (ShadowMemory, 1, 24),  # slots straddle shadow pages
    "shadow-g8-v24": (ShadowMemory, 8, 24),
    "shadow-g1-v48": (ShadowMemory, 1, 48),
    "shadow-g8-v48": (ShadowMemory, 8, 48),
    "shadow-g1-v5000": (ShadowMemory, 1, 5000),  # slots wider than a page
    "shadow-g8-v8192": (ShadowMemory, 8, 8192),
    "pagetable-g1-v1": (PageTableMap, 1, 1),
    "pagetable-g8-v8": (PageTableMap, 8, 8),
    "pagetable-g8-v24": (PageTableMap, 8, 24),
    "pagetable-g8-v48": (PageTableMap, 8, 48),
    "hash-g1-v8": (HashMap, 1, 8),
    "hash-g8-v8": (HashMap, 8, 8),
    "array-v8": (ArrayMap, None, 8),
}
_KIND = {ShadowMemory: "shadow", PageTableMap: "pagetable", HashMap: "hash", ArrayMap: "array"}

# Keys cluster around 4 KiB boundaries, which are both shadow-page and
# page-table-page boundaries of the program address space at these
# sizes, and storage-chunk boundaries at granularity 1; 32 KiB multiples
# are chunk boundaries at granularity 8.
range_keys = st.builds(
    lambda page, delta: PROGRAM_BASE + page * 4096 + delta,
    st.sampled_from([0, 1, 2, 3, 4, 8, 16]),
    st.one_of(st.integers(-24, 24), st.integers(0, 4095)),
)
range_lengths = st.one_of(st.just(0), st.integers(1, 24), st.integers(25, 5000))
# (point?, store?, key, n_bytes, field, value); range loads fold the
# scalar fields only, since sets do not fold.
map_ops = st.lists(
    st.one_of(
        st.tuples(st.just(False), st.just(False), range_keys, range_lengths,
                  st.integers(0, 1), st.integers(0, 7)),
        st.tuples(st.just(False), st.just(True), range_keys, range_lengths,
                  st.integers(0, SET_FIELD), st.integers(0, 255)),
        st.tuples(st.just(True), st.booleans(), range_keys, st.just(1),
                  st.integers(0, SET_FIELD), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=8,
)


def _profile_view(profile, cache, base_bytes=0):
    return (profile.instr_cycles, profile.metadata_ops,
            profile.metadata_bytes - base_bytes, copy.copy(cache.stats))


def _build(cls, meter, space, granularity, value_bytes, defaults):
    if cls is ArrayMap:
        return ArrayMap(meter, space, value_bytes, 16, defaults)
    return cls(meter, space, value_bytes, granularity, defaults)


def run_against_model(config, ops):
    cls, granularity, value_bytes = RANGE_CONFIGS[config]
    kind = _KIND[cls]
    profile = Profile()
    cache = CacheSim()
    meter = CostMeter(profile, cache)
    space = MetadataSpace.fresh()
    impl = _build(cls, meter, space, granularity, value_bytes, RECORD_DEFAULTS)
    base_bytes = profile.metadata_bytes
    fields = record_fields(value_bytes)
    cmap = CoalescedMap("m", impl, fields, meter)
    model = RangeModel(impl, space, kind, fields)
    for point, store, key, n_bytes, field, value in ops:
        if kind == "array":
            key = (key - PROGRAM_BASE) % 32  # ids, some beyond the domain
        if field == SET_FIELD:
            value = BitVecSet(8, value)
        if point:
            slot = cmap.lookup(key)
            got = cmap.store(slot, field, value) if store else cmap.load(slot, field)
            expected = model.point_op(key, field, store, value)
        elif store:
            got = cmap.store_range(key, n_bytes, field, value)
            expected = model.range_op(key, n_bytes, field, store, value)
        else:
            got = cmap.load_range(key, n_bytes, field)
            expected = model.range_op(key, n_bytes, field, store, value)
        assert got == expected
        assert _profile_view(profile, cache, base_bytes) == _profile_view(
            model.profile, model.cache
        )
        assert len(impl) == len(model.values)
        assert peek_records(impl, kind, model.values) == model.values


def straddling(edge):
    """Ops across ``edge``, each side touched by point ops first."""
    return [
        (True, True, edge - 8, 1, 0, 3),
        (True, False, edge + 8, 1, SET_FIELD, 0),
        (False, True, edge - 16, 40, 0, 6),
        (False, False, edge - 24, 64, 0, 0),
        (False, True, edge - 16, 40, SET_FIELD, 9),
        (True, False, edge, 1, SET_FIELD, 0),
        (False, False, edge - 4000, 8000, 1, 0),
    ]


@pytest.mark.parametrize("config", sorted(RANGE_CONFIGS))
@given(ops=map_ops)
# storage-chunk boundaries at granularity 1 and 8
@example(ops=straddling(PROGRAM_BASE + 4096) + straddling(PROGRAM_BASE + 32768))
@settings(max_examples=30, deadline=None)
def test_range_rule_matches_slot_by_slot_model(config, ops):
    run_against_model(config, ops)


@pytest.mark.parametrize("config", sorted(RANGE_CONFIGS))
def test_range_store_copies_once_per_slot(config):
    cls, granularity, value_bytes = RANGE_CONFIGS[config]
    meter = CostMeter(Profile(), CacheSim())
    impl = _build(cls, meter, MetadataSpace.fresh(), granularity, value_bytes, [0, 0])

    class Template:
        copies = 0

        def copy(self):
            Template.copies += 1
            return Template()

    template = Template()
    keys = [3] if cls is ArrayMap else range(PROGRAM_BASE, PROGRAM_BASE + 24)
    impl.fold_or_store(keys[0], 24, 1, True, template)
    stored = {
        (id(columns), offset): columns[1][offset]
        for _, columns, offset in (impl.lookup(k) for k in keys)
    }
    stored = list(stored.values())
    assert Template.copies == len(impl) == len(stored)
    assert template not in stored
    assert len({id(value) for value in stored}) == len(stored)


@pytest.mark.parametrize("config", sorted(RANGE_CONFIGS))
def test_lazy_set_default_equals_eager(config):
    """A set field stays unbuilt until its first load, which builds the
    same value an eager default would have; later loads see that set."""
    cls, granularity, value_bytes = RANGE_CONFIGS[config]
    meter = CostMeter(Profile(), CacheSim())
    impl = _build(cls, meter, MetadataSpace.fresh(), granularity, value_bytes,
                  RECORD_DEFAULTS)
    cmap = CoalescedMap("m", impl, record_fields(value_bytes), meter)
    key = 3 if cls is ArrayMap else PROGRAM_BASE + 64
    slot = cmap.lookup(key)
    assert slot[1][SET_FIELD][slot[2]] is None
    built = cmap.load(slot, SET_FIELD)
    assert built == make_record()[SET_FIELD]
    assert cmap.load(cmap.lookup(key), SET_FIELD) is built
