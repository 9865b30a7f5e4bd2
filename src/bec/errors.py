"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to catch gets its own class so
that tests (and the CLI exit-code mapping) can distinguish bad input from
numerical breakdown from genuine domain obstructions.
"""


class BecError(Exception):
    """Base class for all package errors."""


class ContractViolation(BecError):
    """Input violates a documented precondition (wrong shape, non-Hermitian, ...)."""


class NumericalFailure(BecError):
    """An iterative kernel failed to converge; carries the offending data."""

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data


class DomainError(BecError):
    """Mathematically ill-posed request (zero polynomial, mass = 0, ...)."""


class NoGapError(DomainError):
    """No spectral gap of the bulk bands around the requested energy."""


class GaplessPointError(DomainError):
    """The symbol has an eigenvalue too close to the requested level at some k."""


class BoundaryOfRegularityError(DomainError):
    """A decay exponent sits on the imaginary axis: z is not in the resolvent
    set of the full-line operator, so one-sided decaying solutions degenerate."""


class DegenerateExponentError(DomainError):
    """Two decay exponents coincide (Jordan-chain situation, unsupported)."""


class TripleDegeneracyError(DomainError):
    """The boundary-jet map of the deficiency basis loses rank, so the
    boundary triple cannot be evaluated on it."""


class InadmissibleConditionError(DomainError):
    """(A, B) fails the self-adjointness admissibility test (iA+B singular
    or AB* non-Hermitian)."""


class InsufficientResolutionError(BecError):
    """Sampling too coarse for a guaranteed answer (phase jump >= pi/2, ...)."""


class LostBandError(BecError):
    """Band continuation failed to reconnect after the maximum number of
    step-halvings."""


class NotComparableError(DomainError):
    """Two objects whose difference must decay at infinity do not actually
    approach each other (relative Chern / relative winding preconditions)."""


class ModelFileError(BecError):
    """Malformed model file: unknown section/key, bad literal, bad matrix."""
