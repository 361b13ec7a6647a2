"""Exception hierarchy with stable CLI exit codes.

Exit-code contract for the command line tool: 1 for usage errors,
2 for violated preconditions or malformed data, 3 for exceeded caps.
Library errors carry their exit code so the CLI can map them uniformly.
"""


class AgripError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class PreconditionError(AgripError):
    """An operation was called outside its documented preconditions."""

    exit_code = 2


class UsageError(AgripError):
    """A rejected command line; carries the usage text to print first."""

    exit_code = 1

    def __init__(self, message, usage=""):
        super().__init__(message)
        self.usage = usage


class CapExceeded(AgripError):
    """A configured enumeration or size cap would be exceeded."""

    exit_code = 3


# -- finite fields ------------------------------------------------------

class CompositeCharacteristic(PreconditionError):
    pass


class ReducibleModulus(PreconditionError):
    pass


class DivisionByZero(PreconditionError, ZeroDivisionError):
    pass


class FieldTooLarge(CapExceeded):
    pass


# -- measurement matrices -----------------------------------------------

class SingleColumn(PreconditionError):
    pass


class DegenerateShape(PreconditionError):
    pass


class ZeroCoherence(PreconditionError):
    """Coherence is zero, so the sparsity bound is vacuous."""


class PairScanCapExceeded(CapExceeded):
    pass


class FormatError(PreconditionError):
    """Malformed matrix file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# -- constructions -------------------------------------------------------

class PoleEvalOverlap(PreconditionError):
    pass


class DegreeTooLarge(PreconditionError):
    pass


class RankDeficient(PreconditionError):
    pass


class DuplicateColumns(PreconditionError):
    pass


class PointCountMismatch(AgripError):
    pass


class EnumerationCapExceeded(CapExceeded):
    pass


class PolytopeTooLarge(CapExceeded):
    pass


class ColumnCapExceeded(CapExceeded):
    pass


class BasisCapExceeded(CapExceeded):
    pass


# -- sign schemes ---------------------------------------------------------

class NonBinaryInput(PreconditionError):
    pass


class NoNonvanishingBasisFunction(PreconditionError):
    pass


# -- verification ----------------------------------------------------------

class OracleCapExceeded(CapExceeded):
    pass


class GcdConditionViolated(PreconditionError):
    pass
