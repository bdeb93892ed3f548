"""Closed-form 2x2 complex linear algebra for qubit objects.

Everything here is deterministic and loop-free: eigenvalues, square roots
and polar factors of 2x2 matrices are computed from the characteristic
polynomial rather than iterative routines, so repeated runs give identical
bits and errors stay at machine precision.
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
)

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


# Default slack of the validity checks (hermiticity, trace, positivity,
# completeness, Bloch norm); each check takes its own ``tol=`` argument.
HERM_TOL = 1e-9


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray  # unit 2-vector, phase-fixed


def as_matrix2(m) -> np.ndarray:
    """Coerce input to a finite complex 2x2 array; :class:`DomainError` otherwise."""
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected a 2x2 matrix: {exc}") from None
    if a.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not all(map(cmath.isfinite, a.ravel().tolist())):
        raise DomainError("matrix has non-finite entries")
    return a


def herm_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of a finite 2x2 ``m`` from its own adjoint.

    Computed on the four entries as Python complex numbers, each modulus
    by libm's ``hypot`` (numpy's vectorised complex ``abs`` may differ in
    the last bit).
    """
    a00, a01, a10, a11 = m.ravel().tolist()
    return max(
        abs(a00 - a00.conjugate()),
        abs(a01 - a10.conjugate()),
        abs(a10 - a01.conjugate()),
        abs(a11 - a11.conjugate()),
    )


def require_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    a = as_matrix2(m)
    dev = herm_deviation(a)
    if dev > tol:
        raise NotHermitian(f"hermiticity deviation {dev:.3e}")
    return 0.5 * (a + a.conj().T)


def eigvals_hermitian(h: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (descending) of a Hermitian 2x2 matrix, closed form."""
    h00, h01, _, h11 = h.ravel().tolist()
    a = h00.real
    d = h11.real
    half_gap = np.hypot(0.5 * (a - d), abs(h01))
    mid = 0.5 * (a + d)
    return mid + half_gap, mid - half_gap


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rescale a unit vector so its first significant component is real > 0."""
    pivot = v[0] if abs(v[0]) > 1e-12 else v[1]
    mag = abs(pivot)
    if mag == 0.0:
        return v
    return v * (mag / pivot)


def max_eigenpair(h, tol: float = HERM_TOL) -> EigenPair:
    """Largest eigenvalue and unit eigenvector of a Hermitian 2x2 matrix.

    Degenerate spectra resolve deterministically to ``(1, 0)``; otherwise
    the eigenvector is phase-fixed so its first significant component is
    real positive.
    """
    m = require_hermitian(h, tol)
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    half_gap = np.hypot(0.5 * (a - d), abs(b))
    lam = 0.5 * (a + d) + half_gap
    scale = max(abs(a), abs(d), abs(b), 1.0)
    if 2.0 * half_gap <= 1e-14 * scale:
        # Fully degenerate: every direction is an eigenvector.
        return EigenPair(float(lam), np.array([1.0, 0.0], dtype=complex))
    if abs(b) <= 1e-16 * scale:
        vec = np.array([1.0, 0.0] if a >= d else [0.0, 1.0], dtype=complex)
        return EigenPair(float(lam), vec)
    # Pick the algebraically larger residual column for stability.
    if a >= d:
        vec = np.array([lam - d, np.conj(b)], dtype=complex)
    else:
        vec = np.array([b, lam - a], dtype=complex)
    vec /= np.linalg.norm(vec)
    return EigenPair(float(lam), _phase_fix(vec))


def matrix_sqrt_psd(m, tol: float = HERM_TOL) -> np.ndarray:
    """Positive square root of a PSD 2x2 matrix (closed form).

    For PSD ``M`` with trace t and determinant D,
    ``sqrt(M) = (M + sqrt(D) I) / sqrt(t + 2 sqrt(D))``.
    """
    h = require_hermitian(m, tol)
    lo = eigvals_hermitian(h)[1]
    if lo < -tol:
        raise NotPsd(f"negative eigenvalue {lo:.3e}")
    h00, h01, _, h11 = h.ravel().tolist()
    t = max(h00.real + h11.real, 0.0)
    # A numpy square: it overflows to inf where a Python float ** 2 raises.
    det = max(h00.real * h11.real - np.float64(abs(h01)) ** 2, 0.0)
    root_det = math.sqrt(det)
    denom_sq = t + 2.0 * root_det
    if denom_sq <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (h + root_det * ID2) / math.sqrt(denom_sq)


def perp_vector(v: np.ndarray) -> np.ndarray:
    """Canonical unit vector orthogonal to a unit 2-vector."""
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def polar_decompose(k) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors ``(U, P)`` with ``K = U P``, ``P = sqrt(K^dag K)``.

    On (near-)rank-deficient input the unitary is completed canonically:
    the remaining orthonormal input direction maps to the canonical
    orthonormal complement of the image, with +1 phase.  ``K = 0`` yields
    ``U = I``.
    """
    kk = as_matrix2(k)
    gram = kk.conj().T @ kk
    gram = 0.5 * (gram + gram.conj().T)
    p = matrix_sqrt_psd(gram, tol=np.inf)  # gram is PSD by construction
    lam0, lam1 = eigvals_hermitian(gram)
    sigma0 = np.sqrt(max(lam0, 0.0))
    sigma1 = np.sqrt(max(lam1, 0.0))
    if sigma0 <= 0.0:
        return ID2.copy(), np.zeros((2, 2), dtype=complex)
    v0 = max_eigenpair(gram, tol=np.inf).vector
    v1 = perp_vector(v0)
    u0 = kk @ v0 / sigma0
    u0 /= np.linalg.norm(u0)
    if sigma1 > 1e-13 * sigma0:
        u1 = kk @ v1 / sigma1
        u1 /= np.linalg.norm(u1)
    else:
        u1 = perp_vector(u0)
    u = np.outer(u0, v0.conj()) + np.outer(u1, v1.conj())
    return u, p


def bloch_decompose(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Write Hermitian ``H = c0 I + c . sigma``; returns ``(c0, c)``."""
    c0 = 0.5 * (h[0, 0].real + h[1, 1].real)
    cx = h[1, 0].real
    cy = h[1, 0].imag
    cz = 0.5 * (h[0, 0].real - h[1, 1].real)
    return c0, np.array([cx, cy, cz])


def bloch_compose(c0: float, c: np.ndarray) -> np.ndarray:
    """Hermitian matrix ``c0 I + c . sigma`` from Bloch data."""
    cx, cy, cz = float(c[0]), float(c[1]), float(c[2])
    return np.array(
        [[c0 + cz, cx - 1j * cy], [cx + 1j * cy, c0 - cz]], dtype=complex
    )


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
    def from_matrix(cls, m, tol: float = HERM_TOL) -> "QubitState":
        h = require_hermitian(m, tol)
        tr = h[0, 0].real + h[1, 1].real
        if abs(tr - 1.0) > tol:
            raise NotPsd(f"trace {tr!r} != 1")
        if eigvals_hermitian(h)[1] < -tol:
            raise NotPsd("density matrix has a negative eigenvalue")
        return cls(h, bloch_from_matrix(h))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def state_from_bloch(n, tol: float = HERM_TOL) -> QubitState:
    """Qubit state ``(I + n . sigma)/2`` from a Bloch vector in the unit ball."""
    vec = np.asarray(n, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise DomainError(f"Bloch vector {vec!r} is not finite")
    if norm > 1.0 + tol:
        raise BlochNormExceeded(f"|n| = {norm!r} exceeds 1")
    return QubitState(bloch_compose(0.5, 0.5 * vec), vec.copy())


def maximally_mixed() -> QubitState:
    return QubitState(0.5 * ID2, np.zeros(3))


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
        return float(np.linalg.norm(self.cvec))

    def observable(self) -> np.ndarray:
        return self.effects[0] - self.effects[1]

    @classmethod
    def from_observable(cls, c0: float, cvec, tol: float = HERM_TOL) -> "BinaryPovm":
        """Build ``E_b = ((1 + (-1)^b c0) I + (-1)^b cvec . sigma)/2``."""
        c = np.asarray(cvec, dtype=float)
        norm = float(np.linalg.norm(c))
        if not math.isfinite(c0 + norm):
            raise DomainError(f"offset {c0!r} or observable vector {c!r} is not finite")
        if norm - 1.0 > tol or abs(c0) - (1.0 - norm) > tol:
            raise NotPsd(f"offset {c0!r} with |c| = {norm!r} breaks positivity")
        e0 = bloch_compose(0.5 * (1.0 + c0), 0.5 * c)
        e1 = bloch_compose(0.5 * (1.0 - c0), -0.5 * c)
        return cls((e0, e1), float(c0), c.copy())


def validate_povm(e0, e1, tol: float = HERM_TOL) -> BinaryPovm:
    """Check a two-effect measurement and return it with Bloch data filled in."""
    effects = []
    for name, e in (("E0", e0), ("E1", e1)):
        h = require_hermitian(e, tol)
        lo = eigvals_hermitian(h)[1]
        if lo < -tol:
            raise NotPsd(f"{name} has negative eigenvalue {lo:.3e}")
        effects.append(h)
    dev = float(np.max(np.abs(effects[0] + effects[1] - ID2)))
    if dev > tol:
        raise CompletenessViolated(f"effects sum to identity + {dev:.3e}")
    c0, cvec = bloch_decompose(effects[0] - effects[1])
    return BinaryPovm((effects[0], effects[1]), c0, cvec)


def projective_povm(axis) -> BinaryPovm:
    """Sharp measurement along a unit Bloch axis."""
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    if not 0.0 < norm < math.inf:
        raise DomainError(f"measurement axis {a!r} is zero or not finite")
    return BinaryPovm.from_observable(0.0, a / norm)


def rotation_from_unitary(u: np.ndarray) -> np.ndarray:
    """SO(3) rotation R with ``U (v.sigma) U^dag = (R v).sigma``."""
    r = np.empty((3, 3))
    for j, pj in enumerate(PAULIS):
        img = u @ pj @ u.conj().T
        _, col = bloch_decompose(img)
        r[:, j] = col
    return r


def unitary_from_rotation(r: np.ndarray) -> np.ndarray:
    """SU(2) element realizing an SO(3) rotation (Shepperd quaternion)."""
    t = r[0, 0] + r[1, 1] + r[2, 2]
    if t > max(r[0, 0], r[1, 1], r[2, 2]):
        s = 2.0 * np.sqrt(max(t + 1.0, 0.0))
        w = 0.25 * s
        x = (r[2, 1] - r[1, 2]) / s
        y = (r[0, 2] - r[2, 0]) / s
        z = (r[1, 0] - r[0, 1]) / s
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = 2.0 * np.sqrt(max(1.0 + r[0, 0] - r[1, 1] - r[2, 2], 0.0))
        w = (r[2, 1] - r[1, 2]) / s
        x = 0.25 * s
        y = (r[0, 1] + r[1, 0]) / s
        z = (r[0, 2] + r[2, 0]) / s
    elif r[1, 1] >= r[2, 2]:
        s = 2.0 * np.sqrt(max(1.0 + r[1, 1] - r[0, 0] - r[2, 2], 0.0))
        w = (r[0, 2] - r[2, 0]) / s
        x = (r[0, 1] + r[1, 0]) / s
        y = 0.25 * s
        z = (r[1, 2] + r[2, 1]) / s
    else:
        s = 2.0 * np.sqrt(max(1.0 + r[2, 2] - r[0, 0] - r[1, 1], 0.0))
        w = (r[1, 0] - r[0, 1]) / s
        x = (r[0, 2] + r[2, 0]) / s
        y = (r[1, 2] + r[2, 1]) / s
        z = 0.25 * s
    return w * ID2 - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
