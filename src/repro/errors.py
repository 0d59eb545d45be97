"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy is intentionally shallow: one base class (:class:`ReproError`)
so callers can catch anything originating from the library, one class per
subsystem boundary so tests can assert on the precise failure site.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class IRError(ReproError):
    """Malformed IR: validation failures, unknown labels, bad operands."""


class VMError(ReproError):
    """Runtime failure inside the virtual machine."""


class MemoryFault(VMError):
    """Access to unmapped or protected simulated memory."""

    def __init__(self, address: int, note: str = "") -> None:
        detail = f"memory fault at address {address:#x}"
        if note:
            detail = f"{detail}: {note}"
        super().__init__(detail)
        self.address = address


class DeadlockError(VMError):
    """Every runnable thread is blocked; the scheduler cannot make progress."""


class AldaError(ReproError):
    """Base class for errors in the ALDA front end."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, col {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class AldaSyntaxError(AldaError):
    """Lexical or grammatical error in an ALDA source program."""


class AldaTypeError(AldaError):
    """Semantic error: bad types, undeclared names, restricted constructs."""


class CompileError(ReproError):
    """ALDAcc pipeline failure (layout, codegen, or instrumentation)."""


class InsertOperandError(CompileError):
    """An insert reads ``$N`` past the operands its instrumented call has."""


class ExternalFunctionError(ReproError):
    """An escape-hatch external function was missing or misbehaved."""
