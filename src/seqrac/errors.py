"""Exception hierarchy shared by all seqrac modules."""

import math
import numbers
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
    """A numeric argument is not a number, not finite, or outside its documented domain."""


def require_integer(value, what: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` through ``operator.index``, within ``[lo, hi]``; :class:`DomainError`
    if it is not an integer (``bool`` is not) or out of range."""
    try:
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if not lo <= value <= hi:
        raise DomainError(f"{what} = {value!r} outside [{lo}, {hi}]")
    return value


def require_real(value, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float within ``[lo, hi]``; :class:`DomainError` if it is not a
    real number (``bool`` is not), not finite, or out of range."""
    try:
        # A float (numpy's too) skips the ABC check, which costs about a microsecond.
        if not (isinstance(value, float) or isinstance(value, numbers.Real) and type(value) is not bool):
            raise TypeError
        value = float(value)  # OverflowError for an int beyond the float range
    except (TypeError, OverflowError):
        raise DomainError(f"{what} must be a finite real number, got {value!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{what} = {value!r} is not finite")
    if not lo <= value <= hi:
        raise DomainError(f"{what} = {value!r} outside [{lo:g}, {hi:g}]")
    return value


def require_tol(tol, what: str = "tol") -> float:
    """A tolerance: a float >= 0 passes at once (``inf`` switches a check off); anything else goes
    through ``require_real(tol, what, 0.0)``, so NaN, negatives and non-numbers raise."""
    return tol if isinstance(tol, float) and tol >= 0.0 else require_real(tol, what, 0.0)


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
