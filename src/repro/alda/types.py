"""ALDA's type system: six primitive types, sync and domain specifiers.

A named type (``address := pointer : sync``) resolves to an
:class:`AldaType` carrying its base primitive, bit width, synchronization
requirement, and optional domain bound (the ``number`` specifier).  The
compiler's layout phase consumes these to pick storage widths and
structures (paper section 4.1: "ALDA compilers can leverage its type
declaration [to] infer a type's domain size").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.errors import AldaTypeError

#: base primitive -> bit width
PRIMITIVE_BITS: Dict[str, int] = {
    "int8": 8,
    "int16": 16,
    "int32": 32,
    "int64": 64,
    "pointer": 64,
    "lockid": 64,
    "threadid": 16,
}

#: key kinds with address-space-sized domains (unless bounded)
ADDRESS_LIKE = frozenset({"pointer"})

#: key kinds whose raw values are sparse and need interning when bounded
INTERNABLE = frozenset({"lockid", "pointer"})


@dataclass(frozen=True)
class AldaType:
    """A resolved (possibly named) primitive type."""

    name: str
    base: str
    sync: bool = False
    bound: Optional[int] = None

    @property
    def bits(self) -> int:
        return PRIMITIVE_BITS[self.base]

    @property
    def domain(self) -> Optional[int]:
        """Number of distinct values, when statically known to be small."""
        if self.bound is not None:
            return self.bound
        if self.bits <= 16:
            return 1 << self.bits
        return None

    @property
    def storage_bytes(self) -> int:
        """Bytes needed to store one value, narrowed by a domain bound."""
        if self.bound is not None:
            bits = max(1, (self.bound - 1).bit_length())
            for width in (8, 16, 32, 64):
                if bits <= width:
                    return width // 8
        return self.bits // 8

    @property
    def is_address_like(self) -> bool:
        return self.base in ADDRESS_LIKE and self.bound is None


def builtin_types() -> Dict[str, AldaType]:
    return {name: AldaType(name, name) for name in PRIMITIVE_BITS}


# ----------------------------------------------------------------------
# metadata value shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalarValue:
    """A map value that is a single primitive."""

    type: AldaType

    @property
    def storage_bytes(self) -> int:
        return self.type.storage_bytes


@dataclass(frozen=True)
class SetValue:
    """A map value (or standalone metadata) that is a set of elements."""

    elem: AldaType
    universe: bool = False

    @property
    def fixed_domain(self) -> Optional[int]:
        return self.elem.domain

    @property
    def storage_bytes(self) -> int:
        """Bit-vector bytes when fixed; 8 (a handle) when dynamic."""
        domain = self.fixed_domain
        if domain is not None:
            return max(8, (domain + 7) // 8)
        return 8


ValueShape = Union[ScalarValue, SetValue]


@dataclass(frozen=True)
class MapInfo:
    """A resolved global metadata map declaration."""

    name: str
    key: AldaType
    value: ValueShape
    universe: bool = False

    @property
    def sync(self) -> bool:
        return self.key.sync


def resolve_type(name: str, table: Dict[str, AldaType], line: int = 0) -> AldaType:
    try:
        return table[name]
    except KeyError:
        raise AldaTypeError(f"unknown type {name!r}", line) from None
