"""2x2 complex linear algebra for qubit objects.

Everything here is deterministic: eigenvalues and square roots of 2x2
matrices are computed from the characteristic polynomial rather than
iterative routines, so repeated runs give identical bits and errors stay at
machine precision.  Polar factors come from LAPACK's SVD, which keeps them
at machine precision near rank one, where a root of ``K^dag K`` does not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BlochNormExceeded,
    CompletenessViolated,
    DomainError,
    NotHermitian,
    NotPsd,
    require_real,
    require_tol,
)

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# Slack of the validity checks of every qubit object (hermiticity, trace,
# positivity, completeness, Bloch norm).
HERM_TOL = 1e-9
# Largest real or imaginary part of a matrix entry: squares and sums of a few
# squares of such entries stay far below the float maximum of about 1.8e308.
MAX_ENTRY = 1e150


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray  # unit 2-vector, phase-fixed


# The short real dot.  Its rounding is OpenBLAS's ``ddot`` kernel's: on SkylakeX
# kernels it differs from the sequential sum on about a fifth of the squared
# lengths of random 3-vectors, on Haswell kernels never.  Every length and
# overlap of a real vector goes through these three, so that choice is made here.
def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x . y`` of two real 1-D float arrays, by one ``ddot``."""
    return float(x.dot(y))


def _norm(v: np.ndarray) -> float:
    """Length of a real 1-D float array: ``np.linalg.norm``'s operations, bit for bit."""
    return math.sqrt(_dot(v, v))


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`_dot` of each pair of rows of two ``(n, k)`` real arrays, one ``ddot`` per row:
    a stacked ``vecdot``, ``einsum`` or ``norm`` matches OpenBLAS only per kernel."""
    return np.array([a.dot(b) for a, b in zip(x, y)])


def _has_bool(v) -> bool:
    """Whether a list or tuple holds a ``bool`` or ``np.bool_``, at any depth of lists and tuples."""
    return isinstance(v, (list, tuple)) and any(type(x) in (bool, np.bool_) or _has_bool(x) for x in v)


def as_matrix2(m) -> np.ndarray:
    """Coerce input to a complex 2x2 array with parts in ``[-MAX_ENTRY, MAX_ENTRY]``;
    :class:`DomainError` otherwise (``bool`` entries of a list or array are not numbers)."""
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"expected a 2x2 matrix: {exc}") from None
    if a.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {a.shape}")
    if _has_bool(m) or isinstance(m, np.ndarray) and m.dtype == bool:
        raise DomainError(f"expected a 2x2 matrix of numbers, got {m!r}")
    return _bounded(a, "matrix")


def _bounded(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` if every real and imaginary part is within ``MAX_ENTRY``, else :class:`DomainError`."""
    entries = a.ravel().tolist()
    # NaN fails both comparisons, so this one pass screens NaN and inf too.
    if not all(abs(z.real) <= MAX_ENTRY >= abs(z.imag) for z in entries):
        if not all(map(cmath.isfinite, entries)):
            raise DomainError(f"{what} has entries that are not finite")
        raise DomainError(f"{what} has entries beyond {MAX_ENTRY:g}, too large to square")
    return a


def _hermitian_part(m, tol: float) -> np.ndarray:
    """Entries of ``0.5 * (a + a^dag)`` for ``a = as_matrix2(m)``, as a flat array.

    :class:`NotHermitian` if an entry of ``a - a^dag`` has a modulus (libm's ``hypot``
    on Python complex numbers) above ``tol``, a number >= 0 (``inf`` skips the test).
    The halving stays a numpy product: numpy fuses multiply-adds on CPUs with FMA,
    which can set the sign of a zero."""
    tol = require_tol(tol)
    a00, a01, a10, a11 = as_matrix2(m).ravel().tolist()
    c00, c01, c10, c11 = a00.conjugate(), a01.conjugate(), a10.conjugate(), a11.conjugate()
    dev = max(abs(a00 - c00), abs(a01 - c10), abs(a10 - c01), abs(a11 - c11))
    if dev > tol:
        raise NotHermitian(f"hermiticity deviation {dev:.3e}")
    return 0.5 * np.array([a00 + c00, a01 + c10, a10 + c01, a11 + c11])


def _spectrum(h00: complex, h01: complex, h11: complex) -> tuple[float, float]:
    """Eigenvalue mean and half-gap of the Hermitian 2x2 matrix with entries ``h00``, ``h01``,
    ``h11`` (Python scalars); ``abs`` of a Python complex is libm's ``hypot``, as ``np.hypot`` is."""
    a, d = h00.real, h11.real
    return 0.5 * (a + d), abs(complex(0.5 * (a - d), abs(h01)))


def _psd_part(m, tol: float, what: str = "") -> tuple[np.ndarray, list]:
    """:func:`_hermitian_part` of ``m`` and its four entries as Python complex numbers;
    :class:`NotPsd` if the smaller eigenvalue is below ``-tol`` (``what`` starts the message)."""
    h = _hermitian_part(m, tol)
    entries = h.tolist()
    mid, half_gap = _spectrum(entries[0], entries[1], entries[3])
    if mid - half_gap < -tol:
        raise NotPsd(f"{what}negative eigenvalue {mid - half_gap:.3e}")
    return h, entries


def max_eigenpair(h, tol: float = HERM_TOL) -> EigenPair:
    """Largest eigenvalue and unit eigenvector of a Hermitian 2x2 matrix.

    Degenerate spectra resolve deterministically to ``(1, 0)``; otherwise
    the eigenvector is phase-fixed so its first significant component is
    real positive.
    """
    h00, b, _, h11 = _hermitian_part(h, tol).tolist()
    lam, vec = _top_eigenvector(h00, b, h11)
    vec = np.array(vec, dtype=complex)
    vec /= np.linalg.norm(vec)  # no change to a unit basis vector
    # The phase fix: a unit vector's second entry has modulus about 1 if its first is tiny.
    pivot = vec[0] if abs(vec[0]) > 1e-12 else vec[1]
    return EigenPair(lam, vec * (abs(pivot) / pivot))


def _top_eigenvector(h00: complex, b: complex, h11: complex) -> tuple[float, list]:
    """Largest eigenvalue of the Hermitian 2x2 matrix with entries ``h00``, ``h01 = b``, ``h11``
    (Python scalars) and a nonzero eigenvector, as two Python numbers, before normalisation."""
    a, d = h00.real, h11.real
    mid, half_gap = _spectrum(h00, b, h11)
    lam = mid + half_gap
    scale = max(abs(a), abs(d), abs(b), 1.0)
    degenerate = 2.0 * half_gap <= 1e-14 * scale  # every direction is an eigenvector
    if degenerate or abs(b) <= 1e-16 * scale:
        return lam, [1.0, 0.0] if degenerate or a >= d else [0.0, 1.0]
    # Pick the algebraically larger residual column for stability.
    return lam, [lam - d, b.conjugate()] if a >= d else [b, lam - a]


def matrix_sqrt_psd(m, tol: float = HERM_TOL) -> np.ndarray:
    """Positive square root of a PSD 2x2 matrix (closed form).

    For PSD ``M`` with trace t and determinant D,
    ``sqrt(M) = (M + sqrt(D) I) / sqrt(t + 2 sqrt(D))``.
    """
    h, (h00, h01, _, h11) = _psd_part(m, tol)
    t = max(h00.real + h11.real, 0.0)
    # A numpy square: it overflows to inf where a Python float ** 2 raises.
    det = max(h00.real * h11.real - np.float64(abs(h01)) ** 2, 0.0)
    root_det = math.sqrt(det)
    denom_sq = t + 2.0 * root_det
    if denom_sq <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (h.reshape(2, 2) + root_det * ID2) / math.sqrt(denom_sq)


def _sqrt_psd_rows(effects: np.ndarray) -> np.ndarray:
    """``matrix_sqrt_psd(E, tol=inf)`` of each matrix of a C-contiguous ``(n, 2, 2)`` stack,
    bit for bit: the squared off-diagonal modulus is a numpy scalar ``** 2``
    of ``np.hypot`` (libm's ``pow`` and ``hypot``, as in the scalar path; an
    array ``** 2`` multiplies, and numpy's vectorised complex ``abs`` may
    differ in the last bit).  :class:`DomainError` on a non-finite entry.
    """
    if not np.isfinite(effects).all():
        raise DomainError("matrix has entries that are not finite")
    h = 0.5 * (effects + effects.conj().transpose(0, 2, 1))
    h00 = h[:, 0, 0].real
    h11 = h[:, 1, 1].real
    t = h00 + h11
    t = np.where(0.0 > t, 0.0, t)
    off_sq = np.array([x**2 for x in np.hypot(h[:, 0, 1].real, h[:, 0, 1].imag)])
    det = h00 * h11 - off_sq
    root_det = np.sqrt(np.where(0.0 > det, 0.0, det))
    denom_sq = t + 2.0 * root_det
    zero = denom_sq <= 0.0
    scale = np.sqrt(np.where(zero, 1.0, denom_sq))
    roots = (h + root_det[:, None, None] * ID2) / scale[:, None, None]
    roots[zero] = 0.0
    return roots


def _max_eigvalue_rows(m: np.ndarray) -> np.ndarray:
    """``max_eigenpair(M, tol=inf).value`` of each matrix of an ``(n, 2, 2)`` stack, bit for
    bit (moduli by ``np.hypot``, libm's ``hypot``); :class:`DomainError` if not finite."""
    if not np.isfinite(m).all():
        raise DomainError("matrix has entries that are not finite")
    m = 0.5 * (m + m.conj().transpose(0, 2, 1))
    a = m[:, 0, 0].real
    d = m[:, 1, 1].real
    return 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.hypot(m[:, 0, 1].real, m[:, 0, 1].imag))


def perp_vector(v: np.ndarray) -> np.ndarray:
    """Canonical unit vector orthogonal to a unit 2-vector."""
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def polar_decompose(k) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors ``(U, P)`` with ``K = U P``, ``P = sqrt(K^dag K)``, from the SVD.

    With ``K = W S V^dag``, ``P = V S V^dag`` and ``U = W V^dag``.  On
    (near-)rank-deficient input the unitary is completed canonically:
    the remaining orthonormal input direction maps to the canonical
    orthonormal complement of the image, with +1 phase.  ``K = 0`` yields
    ``U = I``.
    """
    w, s, vh = np.linalg.svd(as_matrix2(k))
    p = (vh.conj().T * s) @ vh
    if s[1] > 1e-13 * s[0]:
        return w @ vh, p
    u0 = w[:, 0]
    v0 = vh[0].conj()
    return np.outer(u0, v0.conj()) + np.outer(perp_vector(u0), perp_vector(v0).conj()), p


def bloch_decompose(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Write Hermitian ``H = c0 I + c . sigma``; returns ``(c0, c)``."""
    c0 = 0.5 * (h[0, 0].real + h[1, 1].real)
    cx = h[1, 0].real
    cy = h[1, 0].imag
    cz = 0.5 * (h[0, 0].real - h[1, 1].real)
    return c0, np.array([cx, cy, cz])


def bloch_compose(c0: float, c: np.ndarray) -> np.ndarray:
    """Hermitian matrix ``c0 I + c . sigma`` from Bloch data (an array or a sequence)."""
    cx, cy, cz = float(c[0]), float(c[1]), float(c[2])
    return np.array(
        [[c0 + cz, cx - 1j * cy], [cx + 1j * cy, c0 - cz]], dtype=complex
    )


def _bloch_compose_rows(c0, c: np.ndarray) -> np.ndarray:
    """:func:`bloch_compose` of each row of an ``(n, 3)`` array, as an ``(n, 2, 2)`` stack.

    Every entry takes the float operations it takes in :func:`bloch_compose`,
    so each matrix has the same bits.  ``c0`` is a float or an ``(n,)`` array.
    """
    cx, cy, cz = c[:, 0], c[:, 1], c[:, 2]
    out = np.empty((len(c), 2, 2), dtype=complex)
    out[:, 0, 0] = c0 + cz
    out[:, 0, 1] = cx - 1j * cy
    out[:, 1, 0] = cx + 1j * cy
    out[:, 1, 1] = c0 - cz
    return out


def bloch_from_matrix(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a density matrix ``rho = (I + n . sigma)/2``."""
    _, c = bloch_decompose(as_matrix2(rho))
    return 2.0 * c


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix with its Bloch-vector view.

    Direct construction is trusted (no checks); use :func:`state_from_bloch`
    or :meth:`from_matrix` for validated construction.  Instances are
    immutable and safe to share across threads.
    """

    matrix: np.ndarray
    bloch: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "QubitState":
        h = _psd_part(m, HERM_TOL, "density matrix has ")[0].reshape(2, 2)
        tr = h[0, 0].real + h[1, 1].real
        if abs(tr - 1.0) > HERM_TOL:
            raise NotPsd(f"trace {float(tr)!r} != 1")
        return cls(h, 2.0 * bloch_decompose(h)[1])

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def _vector3(v, what: str) -> np.ndarray:
    """``v`` as a float array of shape ``(3,)`` within ``MAX_ENTRY``, else :class:`DomainError`
    (``bool`` entries of a list are not numbers)."""
    try:
        a = np.asarray(v)
        valid = a.dtype.kind in "iuf" and a.shape == (3,) and not _has_bool(v)
    except ValueError:  # ragged nesting
        valid = False
    if not valid:
        raise DomainError(f"{what} must have 3 components that are real numbers, got {v!r}")
    x, y, z = a.tolist()
    if not (abs(x) <= MAX_ENTRY and abs(y) <= MAX_ENTRY and abs(z) <= MAX_ENTRY):
        _bounded(a, what)  # the same test, run again to raise its error
    return a.astype(float, copy=False)


def state_from_bloch(n) -> QubitState:
    """Qubit state ``(I + n . sigma)/2`` from a Bloch vector in the unit ball."""
    vec = _vector3(n, "Bloch vector")
    norm = _norm(vec)
    if norm > 1.0 + HERM_TOL:
        raise BlochNormExceeded(f"|n| = {norm!r} exceeds 1")
    return QubitState(bloch_compose(0.5, 0.5 * vec), vec.copy())


@dataclass(frozen=True)
class BinaryPovm:
    """Two-effect qubit measurement ``(E0, E1)`` with observable Bloch data.

    ``c0`` and ``cvec`` parameterize the observable
    ``E0 - E1 = c0 I + cvec . sigma``; positivity of the effects forces
    ``|cvec| - 1 <= c0 <= 1 - |cvec|``.  Direct construction is trusted;
    use :func:`validate_povm` for checked construction.
    """

    effects: tuple[np.ndarray, np.ndarray]
    c0: float
    cvec: np.ndarray

    @property
    def sharpness(self) -> float:
        """Length of the observable Bloch vector."""
        return _norm(self.cvec)

    def observable(self) -> np.ndarray:
        return self.effects[0] - self.effects[1]

    @classmethod
    def from_observable(cls, c0: float, cvec) -> "BinaryPovm":
        """Build ``E_b = ((1 + (-1)^b c0) I + (-1)^b cvec . sigma)/2``."""
        c = _vector3(cvec, "observable vector")
        c0 = require_real(c0, "offset")
        norm = _norm(c)
        if norm - 1.0 > HERM_TOL or abs(c0) - (1.0 - norm) > HERM_TOL:
            raise NotPsd(f"offset {c0!r} with |c| = {norm!r} breaks positivity")
        entries = c.tolist()
        e0 = bloch_compose(0.5 * (1.0 + c0), [0.5 * v for v in entries])
        e1 = bloch_compose(0.5 * (1.0 - c0), [-0.5 * v for v in entries])
        return cls((e0, e1), c0, c.copy())


def validate_povm(e0, e1) -> BinaryPovm:
    """Check a two-effect measurement and return it with Bloch data filled in."""
    effects = [_psd_part(e, HERM_TOL, what)[0].reshape(2, 2)
               for what, e in (("E0 has ", e0), ("E1 has ", e1))]
    dev = float(np.max(np.abs(effects[0] + effects[1] - ID2)))
    if dev > HERM_TOL:
        raise CompletenessViolated(f"effects sum to identity + {dev:.3e}")
    c0, cvec = bloch_decompose(effects[0] - effects[1])
    return BinaryPovm((effects[0], effects[1]), c0, cvec)


def projective_povm(axis) -> BinaryPovm:
    """Sharp measurement along a unit Bloch axis."""
    a = _vector3(axis, "measurement axis")
    norm = _norm(a)
    if norm == 0.0:
        raise DomainError(f"measurement axis {a!r} is zero")
    return BinaryPovm.from_observable(0.0, a / norm)
