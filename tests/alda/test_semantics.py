"""Unit tests for ALDA semantic analysis: typing and language restrictions."""

import pytest

from repro.alda import check_program, parse_program
from repro.alda.types import ScalarValue, SetValue
from repro.errors import AldaTypeError


def check(source):
    return check_program(parse_program(source))


class TestTypeDecls:
    def test_resolved_type_attributes(self):
        info = check("lid := lockid : 256")
        lid = info.types["lid"]
        assert lid.base == "lockid"
        assert lid.bound == 256
        assert lid.domain == 256
        assert lid.storage_bytes == 1

    def test_storage_widths(self):
        info = check("a := threadid : 4\nb := int64\nc := lockid : 300")
        assert info.types["a"].storage_bytes == 1
        assert info.types["b"].storage_bytes == 8
        assert info.types["c"].storage_bytes == 2

    def test_sync_inherited_through_alias(self):
        info = check("a := pointer : sync\nb := a")
        assert info.types["b"].sync

    def test_duplicate_type(self):
        with pytest.raises(AldaTypeError, match="duplicate type"):
            check("a := int8\na := int16")

    def test_unknown_base(self):
        with pytest.raises(AldaTypeError, match="unknown type"):
            check("a := ghost")

    def test_nonpositive_bound(self):
        with pytest.raises(AldaTypeError, match="positive"):
            check("a := int8 : 0")

    def test_address_like(self):
        info = check("a := pointer\nb := pointer : 16")
        assert info.types["a"].is_address_like
        assert not info.types["b"].is_address_like  # bounded


class TestMetaDecls:
    def test_map_resolution(self):
        info = check("m = universe::map(pointer, int8)")
        map_info = info.maps["m"]
        assert map_info.universe
        assert isinstance(map_info.value, ScalarValue)

    def test_set_value_resolution(self):
        info = check("lid := lockid : 64\nm = map(threadid, universe::set(lid))")
        value = info.maps["m"].value
        assert isinstance(value, SetValue)
        assert value.universe
        assert value.fixed_domain == 64
        assert value.storage_bytes == 8

    def test_unbounded_set_storage_is_handle(self):
        info = check("m = map(threadid, set(pointer))")
        assert info.maps["m"].value.storage_bytes == 8
        assert info.maps["m"].value.fixed_domain is None

    def test_sync_from_key(self):
        info = check("a := pointer : sync\nm = map(a, int8)")
        assert info.maps["m"].sync

    def test_nested_map_rejected_with_hint(self):
        with pytest.raises(AldaTypeError, match="escape hatch"):
            check("m = map(pointer, map(threadid, int64))")

    def test_standalone_set_rejected(self):
        with pytest.raises(AldaTypeError, match="wrap sets in a map"):
            check("s = set(lockid)")

    def test_bare_scalar_rejected(self):
        with pytest.raises(AldaTypeError, match="must be a map"):
            check("x = int64")

    def test_duplicate_metadata(self):
        with pytest.raises(AldaTypeError, match="duplicate metadata"):
            check("m = map(pointer, int8)\nm = map(pointer, int8)")


class TestHandlerBodies:
    def test_unknown_name_no_locals(self):
        with pytest.raises(AldaTypeError, match="no local variables"):
            check("onX(int64 v) { alda_assert(ghost, 0); }")

    def test_map_as_value_rejected(self):
        with pytest.raises(AldaTypeError, match="used as a value"):
            check("m = map(pointer, int8)\nonX(int64 v) { alda_assert(m, 0); }")

    def test_const_usable(self):
        check("const A = 3\nonX(int64 v) { alda_assert(v, A); }")

    def test_set_scalar_mix_rejected(self):
        source = """
        m = map(pointer, set(threadid))
        onX(pointer p) { alda_assert(m[p] + 1, 0); }
        """
        with pytest.raises(AldaTypeError, match="mix set and scalar"):
            check(source)

    def test_set_set_and_allowed(self):
        check("""
        m = map(pointer, set(threadid))
        n = map(pointer, set(threadid))
        onX(pointer p) { m[p] = m[p] & n[p]; }
        """)

    def test_set_plus_set_rejected(self):
        with pytest.raises(AldaTypeError, match="not defined on sets"):
            check("""
            m = map(pointer, set(threadid))
            onX(pointer p) { m[p] = m[p] + m[p]; }
            """)

    def test_set_elem_type_mismatch(self):
        with pytest.raises(AldaTypeError, match="set type mismatch"):
            check("""
            m = map(pointer, set(threadid))
            n = map(pointer, set(lockid))
            onX(pointer p) { m[p] = m[p] & n[p]; }
            """)

    def test_assign_scalar_into_set_entry(self):
        with pytest.raises(AldaTypeError, match="assigning int"):
            check("""
            m = map(pointer, set(threadid))
            onX(pointer p) { m[p] = 3; }
            """)

    def test_return_type_checked(self):
        with pytest.raises(AldaTypeError, match="returns a value but declares none"):
            check("onX(int64 v) { return v; }")

    def test_missing_return_value(self):
        with pytest.raises(AldaTypeError, match="must return"):
            check("int64 onX(int64 v) { return; }")

    def test_set_return_rejected(self):
        with pytest.raises(AldaTypeError, match="must return a scalar"):
            check("""
            m = map(pointer, set(threadid))
            int64 onX(pointer p) { return m[p]; }
            """)

    def test_void_in_condition_rejected(self):
        with pytest.raises(AldaTypeError, match="void"):
            check("""
            m = map(pointer, int8)
            onX(pointer p) { if (m.set(p, 1)) { return; } }
            """)

    def test_duplicate_param(self):
        with pytest.raises(AldaTypeError, match="duplicate parameter"):
            check("onX(int64 v, int64 v) { return; }")


class TestMethods:
    def test_find_returns_scalar(self):
        check("""
        m = map(pointer, set(threadid))
        onX(pointer p, threadid t) { alda_assert(m[p].find(t), 0); }
        """)

    def test_add_is_void(self):
        with pytest.raises(AldaTypeError, match="void"):
            check("""
            m = map(pointer, set(threadid))
            onX(pointer p, threadid t) { alda_assert(m[p].add(t), 0); }
            """)

    def test_unknown_set_method(self):
        with pytest.raises(AldaTypeError, match="unknown set method"):
            check("""
            m = map(pointer, set(threadid))
            onX(pointer p, threadid t) { m[p].clear(t); }
            """)

    def test_set_method_on_scalar_entry(self):
        with pytest.raises(AldaTypeError, match="non-set"):
            check("""
            m = map(pointer, int8)
            onX(pointer p, threadid t) { m[p].add(t); }
            """)

    def test_range_set_arity(self):
        check("""
        m = map(pointer, int8)
        onX(pointer p, int64 s) { m.set(p, 1, s); }
        """)

    def test_range_set_on_set_value_rejected(self):
        with pytest.raises(AldaTypeError, match="only defined for scalar"):
            check("""
            m = map(pointer, set(threadid))
            onX(pointer p, int64 s, threadid t) { m.set(p, m[p], s); }
            """)

    def test_range_get_on_set_value_rejected(self):
        with pytest.raises(AldaTypeError, match="range map.get is only defined"):
            check("""
            address := pointer
            lid := lockid : 256
            s = map(address, set(lid))
            onX(pointer p, int64 n) { alda_assert(s.get(p, n), 0); }
            """)

    def test_map_set_value_type_checked(self):
        with pytest.raises(AldaTypeError, match="map.set value"):
            check("""
            m = map(pointer, set(threadid))
            onX(pointer p) { m.set(p, 3); }
            """)

    def test_unknown_map_method(self):
        with pytest.raises(AldaTypeError, match="unknown map method"):
            check("""
            m = map(pointer, int8)
            onX(pointer p) { m.erase(p); }
            """)


class TestCallsAndRecursion:
    def test_handler_call_arity(self):
        with pytest.raises(AldaTypeError, match="takes 2 arguments"):
            check("""
            f(int64 a, int64 b) { return; }
            g(int64 a) { f(a); }
            """)

    def test_direct_recursion_rejected(self):
        with pytest.raises(AldaTypeError, match="recursive"):
            check("f(int64 a) { f(a); }")

    def test_mutual_recursion_rejected(self):
        with pytest.raises(AldaTypeError, match="recursive"):
            check("""
            f(int64 a) { g(a); }
            g(int64 a) { f(a); }
            """)

    def test_acyclic_calls_fine(self):
        check("""
        int64 leaf(int64 a) { return a; }
        mid(int64 a) { alda_assert(leaf(a), 0); }
        """)

    def test_externals_collected(self):
        info = check("onX(int64 v) { alda_assert(vc_magic(v), 0); }")
        assert "vc_magic" in info.externals

    def test_alda_assert_arity(self):
        with pytest.raises(AldaTypeError, match="takes 2"):
            check("onX(int64 v) { alda_assert(v); }")

    def test_ptr_offset_returns_scalar(self):
        check("""
        m = map(pointer, int8)
        onX(pointer p) { m[ptr_offset(p, 8)] = 1; }
        """)


class TestInsertChecks:
    def test_unknown_handler(self):
        with pytest.raises(AldaTypeError, match="unknown handler"):
            check("insert after LoadInst call ghost($1)")

    def test_unknown_instruction_kind(self):
        with pytest.raises(AldaTypeError, match="unknown instruction kind"):
            check("onX(pointer p) { return; }\ninsert after FooInst call onX($1)")

    def test_arity_mismatch(self):
        with pytest.raises(AldaTypeError, match="insertion passes"):
            check("onX(pointer p) { return; }\ninsert after LoadInst call onX($1, $t)")

    def test_result_in_before_rejected(self):
        with pytest.raises(AldaTypeError, match="only available in 'after'"):
            check("onX(pointer p) { return; }\ninsert before LoadInst call onX($r)")

    def test_sizeof_result_in_before_allowed(self):
        check("onX(int64 s) { return; }\ninsert before LoadInst call onX(sizeof($r))")

    def test_operand_index_out_of_range(self):
        with pytest.raises(AldaTypeError, match="out of range"):
            check("onX(pointer p) { return; }\ninsert after LoadInst call onX($2)")

    def test_store_has_two_operands(self):
        check("onX(pointer p) { return; }\ninsert after StoreInst call onX($2)")
