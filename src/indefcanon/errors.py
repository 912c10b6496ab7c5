"""Exception hierarchy.

Every error carries a stable ``code`` string so the CLI can report failures
by name and scripts can dispatch on them without parsing messages.
"""


class CanonError(Exception):
    """Base class for all library errors."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class SingularMatrixError(CanonError):
    """A linear solve was rejected because the matrix is numerically singular."""

    code = "SINGULAR"


class NotHermitianError(CanonError):
    """An inner-product matrix deviates from its conjugate transpose beyond tolerance."""

    code = "NOT_HERMITIAN"


class SingularInnerProductError(CanonError):
    """The inner-product matrix H fails the conditioning check."""

    code = "SINGULAR_H"


class NotConjugateSymmetricError(CanonError):
    """A basis fails the conjugate-symmetry check."""

    code = "NOT_CS"


class StructureMismatchError(CanonError):
    """The matrix contradicts the declared Jordan structure."""

    code = "STRUCTURE_MISMATCH"


class EigenvalueDriftError(CanonError):
    """No spectrum point of the matrix lies within the matching radius of a declared eigenvalue."""

    code = "EIGENVALUE_DRIFT"


class DegenerateGramError(CanonError):
    """A chain Gram anchor is too small to normalize."""

    code = "DEGENERATE_GRAM"


class SingularBasisError(CanonError):
    """Assembled chain basis fails the conditioning check."""

    code = "SINGULAR_BASIS"


class PureImaginaryAnchorError(CanonError):
    """A pair-block Gram anchor has (numerically) no real part.

    The phase-normalization step divides by the absolute real part of the
    anchor, so this configuration cannot be processed.
    """

    code = "PURE_IMAGINARY_ANCHOR"

    def __init__(self, message: str = "", block_index: int | None = None):
        super().__init__(message)
        self.block_index = block_index


class NotUnitTriangularError(CanonError):
    """Input to the Toeplitz inverse square root is not unit lower triangular."""

    code = "NOT_UNIT_TRIANGULAR"


class NotRealError(CanonError):
    """A matrix expected to be real carries an imaginary part beyond tolerance."""

    code = "NOT_REAL"


class AmbiguousMatchError(CanonError):
    """Eigenvalue matching could not produce an unambiguous bijection."""

    code = "AMBIGUOUS_MATCH"


class KindMismatchError(CanonError):
    """Eigenvalue matching would pair a real eigenvalue with a nonreal one."""

    code = "KIND_MISMATCH"


class RetryExhaustedError(CanonError):
    """Instance generation ran out of conditioning re-draws."""

    code = "RETRY_EXHAUSTED"


class DeltaUnreachableError(CanonError):
    """Perturbation rescaling found no nonzero fit under the requested magnitude."""

    code = "DELTA_UNREACHABLE"


class TrialError(RuntimeError):
    """A stability trial raised an error outside the library's contract.

    Not a :class:`CanonError`: it is a fault, not a recordable trial
    status.  It carries the trial's coordinates, so a failure in a pool
    worker can be reproduced in-process.
    """

    def __init__(self, message: str = "", delta: float | None = None,
                 index: int | None = None, seed: int | None = None):
        super().__init__(message)
        self.delta = delta
        self.index = index
        self.seed = seed
