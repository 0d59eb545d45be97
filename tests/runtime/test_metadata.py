"""Unit tests for MetadataSpace, FieldSpec, and CoalescedMap."""

import pytest

from repro.runtime.bitvector import BitVecSet
from repro.runtime.metadata import CoalescedMap, FieldSpec, MetadataSpace, column_defaults
from repro.runtime.shadow_memory import ShadowMemory
from repro.runtime.sync import SyncPolicy
from repro.vm.cache import CacheSim
from repro.vm.profile import CostMeter, Profile


class TestMetadataSpace:
    def test_reservations_disjoint(self):
        space = MetadataSpace.fresh()
        a = space.reserve(100)
        b = space.reserve(100)
        assert b >= a + 100

    def test_alignment(self):
        space = MetadataSpace.fresh()
        space.reserve(3)
        aligned = space.reserve(8, align=64)
        assert aligned % 64 == 0

    def test_fresh_spaces_disjoint(self):
        a = MetadataSpace.fresh().reserve(8)
        b = MetadataSpace.fresh().reserve(8)
        assert abs(a - b) >= MetadataSpace.STRIDE - 64

    def test_virtual_bytes_tracked(self):
        space = MetadataSpace.fresh()
        space.reserve(1000, label="x")
        assert space.virtual_bytes == 1000
        assert space.labels[0][0] == "x"

    def test_bad_reservation(self):
        with pytest.raises(ValueError):
            MetadataSpace.fresh().reserve(0)


def build_map(fields_spec, memo=None, sync=False, granularity=8):
    """Two-field coalesced map over shadow memory for tests."""
    profile = Profile()
    meter = CostMeter(profile, CacheSim())
    space = MetadataSpace.fresh()
    fields = []
    offset = 0
    for name, size, factory in fields_spec:
        fields.append(FieldSpec(name, offset, size, "int", factory))
        offset += size
    impl = ShadowMemory(meter, space, max(1, offset), granularity, column_defaults(fields))
    policy = SyncPolicy(meter, space, memo=memo) if sync else None
    return CoalescedMap("m", impl, fields, meter, sync=policy, memo=memo), profile


class TestCoalescedMap:
    def test_get_set_roundtrip(self):
        cmap, _ = build_map([("a", 8, lambda: 0)])
        cmap.set(0x1000_0000, 0, 42)
        assert cmap.get(0x1000_0000, 0) == 42

    def test_defaults_from_factory(self):
        cmap, _ = build_map([("a", 8, lambda: 7)])
        assert cmap.get(0x1000_0000, 0) == 7

    def test_universe_set_default(self):
        profile = Profile()
        meter = CostMeter(profile, CacheSim())
        space = MetadataSpace.fresh()
        def factory():
            return BitVecSet.universe(16, meter)

        field = FieldSpec("locks", 0, 8, "set", factory)
        impl = ShadowMemory(meter, space, 8, 8, [factory])
        cmap = CoalescedMap("m", impl, [field], meter)
        assert cmap.get(0x1000_0000, 0).is_universe()

    def test_fields_independent(self):
        cmap, _ = build_map([("a", 8, lambda: 0), ("b", 8, lambda: 0)])
        slot = cmap.lookup(0x1000_0000)
        cmap.store(slot, 0, 1)
        cmap.store(slot, 1, 2)
        assert cmap.load(slot, 0) == 1
        assert cmap.load(slot, 1) == 2

    def test_field_index_by_name(self):
        cmap, _ = build_map([("a", 8, lambda: 0), ("b", 8, lambda: 0)])
        assert cmap.field_index("b") == 1

    def test_range_store_then_fold(self):
        cmap, _ = build_map([("label", 1, lambda: 0)], granularity=1)
        cmap.store_range(0x1000_0000, 8, 0, 1)
        assert cmap.load_range(0x1000_0000, 8, 0) == 1
        assert cmap.load_range(0x1000_0000, 16, 0) == 1   # half poisoned -> fold 1
        assert cmap.load_range(0x1000_0008, 8, 0) == 0

    def test_range_fold_is_or(self):
        cmap, _ = build_map([("label", 1, lambda: 0)], granularity=1)
        cmap.store_range(0x1000_0000, 1, 0, 4)
        cmap.store_range(0x1000_0001, 1, 0, 2)
        assert cmap.load_range(0x1000_0000, 2, 0) == 6

    def test_zero_length_range(self):
        cmap, _ = build_map([("label", 1, lambda: 0)], granularity=1)
        cmap.store_range(0x1000_0000, 0, 0, 9)
        assert cmap.load_range(0x1000_0000, 0, 0) == 0

    def test_range_store_copies_copyable_values(self):
        profile = Profile()
        meter = CostMeter(profile, CacheSim())
        space = MetadataSpace.fresh()
        def factory():
            return BitVecSet.empty(8, meter)

        field = FieldSpec("s", 0, 8, "set", factory)
        impl = ShadowMemory(meter, space, 8, 8, [factory])
        cmap = CoalescedMap("m", impl, [field], meter)
        template = BitVecSet.empty(8, meter)
        template.add(1)
        cmap.store_range(0x1000_0000, 16, 0, template)
        first = cmap.get(0x1000_0000, 0)
        second = cmap.get(0x1000_0008, 0)
        assert first is not second  # independent copies
        first.add(2)
        assert not second.contains(2)


class TestMemoization:
    def test_memo_skips_repeat_lookup_cost(self):
        memo = {}
        cmap, profile = build_map([("a", 8, lambda: 0)], memo=memo)
        cmap.lookup(0x1000_0000)
        cost_first = profile.instr_cycles
        cmap.lookup(0x1000_0000)
        assert profile.instr_cycles == cost_first  # memo hit: free

    def test_memo_cleared_resets(self):
        memo = {}
        cmap, profile = build_map([("a", 8, lambda: 0)], memo=memo)
        cmap.lookup(0x1000_0000)
        cost_first = profile.instr_cycles
        memo.clear()
        cmap.lookup(0x1000_0000)
        assert profile.instr_cycles > cost_first

    def test_line_memo_makes_second_field_access_free(self):
        memo = {}
        cmap, profile = build_map(
            [("a", 4, lambda: 0), ("b", 4, lambda: 0)], memo=memo
        )
        slot = cmap.lookup(0x1000_0000)
        cmap.load(slot, 0)
        cost = profile.instr_cycles
        cmap.load(slot, 1)  # same line, same event -> register hit
        assert profile.instr_cycles == cost

    def test_without_memo_each_access_billed(self):
        cmap, profile = build_map([("a", 4, lambda: 0), ("b", 4, lambda: 0)])
        slot = cmap.lookup(0x1000_0000)
        cmap.load(slot, 0)
        cost = profile.instr_cycles
        cmap.load(slot, 1)
        assert profile.instr_cycles > cost


class TestSyncIntegration:
    def test_sync_billed_on_lookup(self):
        memo = None
        cmap_sync, profile_sync = build_map([("a", 8, lambda: 0)], sync=True)
        cmap_plain, profile_plain = build_map([("a", 8, lambda: 0)])
        cmap_sync.lookup(0x1000_0000)
        cmap_plain.lookup(0x1000_0000)
        assert profile_sync.instr_cycles > profile_plain.instr_cycles

    def test_sync_memoized_per_event(self):
        memo = {}
        cmap, profile = build_map([("a", 8, lambda: 0)], memo=memo, sync=True)
        cmap.load_range(0x1000_0000, 8, 0)
        cost = profile.instr_cycles
        cmap.load_range(0x1000_0000, 8, 0)  # same stripe, same event
        second_cost = profile.instr_cycles - cost
        assert second_cost < cost
