"""Exception hierarchy shared by all seqrac modules."""

import operator


class SeqracError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SeqracError):
    """A matrix expected to be Hermitian is not (beyond tolerance)."""


class NotPsd(SeqracError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class CompletenessViolated(SeqracError):
    """Effects or POVM elements do not sum to the identity."""


class BlochNormExceeded(SeqracError):
    """A Bloch vector lies outside the unit ball."""


class DomainError(SeqracError):
    """A scalar argument lies outside its documented domain."""


def require_integer(value, what: str) -> int:
    """``value`` through ``operator.index``; :class:`DomainError` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


class InvalidStrategy(SeqracError):
    """A strategy component fails validation."""


class InvalidPovm(SeqracError):
    """An object passed where a binary POVM is required is not one."""


class InfeasiblePair(SeqracError):
    """A witness pair admits no qubit model (empty sharpness interval)."""


class ConvergenceFailure(SeqracError):
    """A numerical search stalled above its target tolerance."""


class InequalityViolation(SeqracError):
    """A sampled operator inequality was violated beyond tolerance."""


class _DocumentPathError(SeqracError):
    """An error located in a strategy document.

    ``path`` locates the offending entry, e.g. ``"instruments[0].kraus[1]"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DocumentError(_DocumentPathError):
    """A strategy document is structurally malformed."""


class DocumentInvariantError(_DocumentPathError):
    """A well-formed strategy document describes an invalid component."""
