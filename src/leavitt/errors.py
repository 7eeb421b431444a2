"""Exception hierarchy shared by all leavitt modules.

Every failure mode has its own class so callers (and the CLI exit-code
mapping) can dispatch on type.  ``LeavittError`` is the common base;
``ParseError`` carries a file path and line number; ``ResourceLimitError``
signals that a configured or fixed bound was passed, not a wrong input.
"""

from __future__ import annotations


class LeavittError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LeavittError):
    """Malformed input text; carries the offending location."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        where = []
        if path is not None:
            where.append(path)
        if line is not None:
            where.append(f"line {line}")
        prefix = ":".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ResourceLimitError(LeavittError):
    """A configured or fixed enumeration or size bound was exceeded."""


class InternalConsistencyError(LeavittError):
    """An invariant the library guarantees failed; indicates a bug."""


class MeetJoinFailureError(InternalConsistencyError):
    """Lattice search found no meet or join for a pair of elements."""


# -- field / polynomial errors -------------------------------------------

class FieldMismatchError(LeavittError):
    """Operands live over different coefficient fields."""


class DivisionByZeroError(LeavittError, ZeroDivisionError):
    pass


class ZeroPolynomialError(LeavittError):
    pass


class ConstantPolynomialError(LeavittError):
    pass


class ZeroConstantTermError(LeavittError):
    pass


class ZeroElementError(LeavittError):
    pass


class UnitElementError(LeavittError):
    """The Laurent element generates the whole ring (a unit λxⁿ)."""


class NotCoprimeError(LeavittError):
    pass


class ProductMismatchError(LeavittError):
    pass


# -- digraph errors --------------------------------------------------------

class UnknownVertexError(LeavittError):
    pass


class UnknownArrowError(LeavittError):
    pass


class NotHereditaryError(LeavittError):
    pass


class NotAdmissibleError(LeavittError):
    pass


class NotRowFiniteError(LeavittError):
    pass


class NotAcyclicError(LeavittError):
    pass


class MalformedMorphismError(LeavittError):
    pass


# -- ideal / quotient errors ----------------------------------------------

class InvalidIdealError(LeavittError):
    """An ideal presentation failed validation; carries the violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations) or "invalid ideal presentation")


class CycleHasExitError(LeavittError):
    pass


class CyclesNotDisjointError(LeavittError):
    pass


class NotDlfError(LeavittError):
    """A canonical polynomial generator is not a product of distinct linear factors."""


class UnsupportedShapeError(LeavittError):
    """The digraph shape falls outside an operation's domain (ω class, unsevered cycle, ...)."""


# -- K-theory errors --------------------------------------------------------

class MalformedGeneratorsError(LeavittError):
    pass
