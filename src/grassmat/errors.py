"""Exception types shared across the library.

Everything derives from GrassmatError so callers can catch library
errors in one clause while argument bugs (TypeError and friends) still
surface normally.
"""


class GrassmatError(Exception):
    """Base class for all library-specific errors."""


class ContextMismatchError(GrassmatError):
    """Operands were built over different (n, m, ring) contexts."""


class MixedRingsError(ContextMismatchError):
    """Operands belong to different coefficient rings."""


class IndexOutOfRangeError(GrassmatError):
    """Generator or matrix index outside the declared range."""


class NonIncreasingIndicesError(GrassmatError):
    """Monomial index tuple is not strictly increasing."""


class NonScalarEntriesError(GrassmatError):
    """A matrix expected to have degree-0 entries has higher-degree terms."""


class DegreeTooLargeError(GrassmatError):
    """Requested evaluation exceeds the configured degree guard."""


class GroupTooLargeError(GrassmatError):
    """Young subgroup order exceeds the configured enumeration guard."""


class LengthMismatchError(GrassmatError):
    """An argument list has the wrong length for the requested identity."""


class BadCharacteristicError(GrassmatError):
    """Ring characteristic violates a construction's precondition."""


class DuplicateLambdasError(GrassmatError):
    """Eigenvalues that must be distinct are not: given, defaulted or drawn."""


class BadPartitionError(GrassmatError):
    """Multiplicity partition is malformed for the requested witness."""


class HypothesisViolationError(GrassmatError):
    """Instance data violates a lemma hypothesis it was declared to satisfy."""
