"""Closed-form trade-off boundary, sharpness certification, and self-testing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import DomainError, InfeasiblePair
from .linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    matrix_sqrt_psd,
    polar_decompose,
    unitary_from_rotation,
)
from .scenario import Strategy, WitnessPair, conjugate_strategy, witness_ab

SQRT2 = np.sqrt(2.0)
W_AB_MAX = 0.25 * (2.0 + SQRT2)          # optimal single-step witness
W_AC_TRIVIAL = 0.125 * (4.0 + SQRT2)     # below this the upper bound is 1
CLASSICAL_BOUND = 0.75
FEASIBILITY_TOL = 1e-7


def round_reported(value: float, digits: int = 4, guard: int = 8) -> float:
    """Decimal half-up rounding as used for reported witness values.

    A guard quantization absorbs numerical dust first, so a value that is
    mathematically ...x5 (like 0.71375) rounds up even when the computed
    float sits a hair below it.  The 8-digit guard matches the precision
    of typical inputs (for example a sharpness given as 0.70710678).
    NaN and infinities raise :class:`DomainError`.
    """
    if not math.isfinite(value):
        raise DomainError(f"cannot round {value!r}")
    d = Decimal(repr(float(value)))
    d = d.quantize(Decimal(1).scaleb(-guard), rounding=ROUND_HALF_UP)
    d = d.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP)
    return float(d)


def witness_level(name: str, value: float, tol: float, lower: float = 0.5) -> float:
    """``value`` clamped to ``[lower, (2 + sqrt(2))/4]``.

    Raises :class:`DomainError` for NaN, infinities, and values outside
    that range by more than ``tol``.
    """
    if not (math.isfinite(value) and lower - tol <= value <= W_AB_MAX + tol):
        raise DomainError(f"{name} = {value!r} outside [{lower:g}, (2+sqrt(2))/4]")
    return float(min(max(value, lower), W_AB_MAX))


def boundary_wac(alpha: float, tol: float = 1e-9) -> float:
    """Largest Alice-Charlie witness compatible with ``w_ab = alpha``.

    ``(4 + sqrt(2) + sqrt(16 a - 16 a^2 - 2)) / 8`` on
    ``alpha in [1/2, (2 + sqrt(2))/4]``.
    """
    witness_level("alpha", alpha, tol)
    radicand = max(16.0 * alpha - 16.0 * alpha * alpha - 2.0, 0.0)
    return float(0.125 * (4.0 + SQRT2 + np.sqrt(radicand)))


def equal_witness_point() -> float:
    """The fixed point ``boundary_wac(a) = a``, namely ``(5 + 2 sqrt(2))/10``."""
    return float((5.0 + 2.0 * SQRT2) / 10.0)


def sharpness_lower(w_ab: float, tol: float = 1e-9) -> float:
    """Smallest instrument sharpness compatible with an observed ``w_ab``.

    ``max(0, sqrt(2) (2 w_ab - 1))`` on ``w_ab in [0, (2 + sqrt(2))/4]``;
    values above the quantum maximum are unphysical.
    """
    witness_level("w_ab", w_ab, tol, lower=0.0)
    return max(0.0, float(SQRT2 * (2.0 * w_ab - 1.0)))


def sharpness_upper(w_ac: float, tol: float = 1e-9) -> float:
    """Largest instrument sharpness compatible with an observed ``w_ac``.

    Trivially 1 for ``w_ac <= (4 + sqrt(2))/8``; otherwise
    ``2 sqrt((2 + sqrt(2) - 4 w_ac)(2 w_ac - 1))``, clamped to [0, 1].
    """
    witness_level("w_ac", w_ac, tol)
    if w_ac <= W_AC_TRIVIAL:
        return 1.0
    radicand = max((2.0 + SQRT2 - 4.0 * w_ac) * (2.0 * w_ac - 1.0), 0.0)
    return float(min(1.0, 2.0 * np.sqrt(radicand)))


@dataclass(frozen=True)
class SharpnessInterval:
    """Certified range ``[lower, upper]`` for the instrument sharpness."""

    lower: float
    upper: float

    def rounded(self, digits: int = 4) -> tuple[float, float]:
        return round_reported(self.lower, digits), round_reported(self.upper, digits)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def certify_interval(w: WitnessPair, tol: float = FEASIBILITY_TOL) -> SharpnessInterval:
    """Sharpness interval certified by an observed witness pair.

    Raises :class:`InfeasiblePair` when no qubit strategy reproduces the
    pair (a lower bound above 1, a ``w_ac`` beyond the quantum maximum, or
    crossed bounds beyond ``tol``).
    """
    for name, value in (("w_ab", w.w_ab), ("w_ac", w.w_ac)):
        if not np.isfinite(value) or value < -tol or value > 1.0 + tol:
            raise DomainError(f"{name} = {value!r} outside [0, 1]")
    lower = sharpness_lower(w.w_ab, tol=np.inf)
    if lower > 1.0 + tol:
        raise InfeasiblePair(
            f"w_ab = {w.w_ab!r} requires sharpness {lower:.4f} > 1"
        )
    if w.w_ac > W_AB_MAX + tol:
        raise InfeasiblePair(f"w_ac = {w.w_ac!r} exceeds the quantum maximum")
    upper = sharpness_upper(w.w_ac, tol=np.inf)
    lower = min(lower, 1.0)
    if lower > upper + tol:
        raise InfeasiblePair(
            f"bounds cross: lower {lower:.6f} > upper {upper:.6f}"
        )
    # Boundary pairs can cross by float dust inside tol; keep lower <= upper.
    return SharpnessInterval(lower, max(upper, lower))


def _symmetrize(w: WitnessPair) -> tuple[float, float]:
    """Map both witnesses to their bit-flip representatives in [1/2, 1].

    Raises :class:`DomainError` for NaN and infinities.
    """
    if not (math.isfinite(w.w_ab) and math.isfinite(w.w_ac)):
        raise DomainError(f"witness pair {tuple(w)!r} is not finite")
    return max(w.w_ab, 1.0 - w.w_ab), max(w.w_ac, 1.0 - w.w_ac)


def in_classical_set(w: WitnessPair, tol: float = 1e-12) -> bool:
    """Whether both symmetrized witnesses respect the classical bound 3/4."""
    a, c = _symmetrize(w)
    return a <= CLASSICAL_BOUND + tol and c <= CLASSICAL_BOUND + tol


def in_quantum_set(w: WitnessPair, tol: float = FEASIBILITY_TOL) -> bool:
    """Whether the symmetrized pair lies under the quantum trade-off curve."""
    a, c = _symmetrize(w)
    if a > W_AB_MAX + tol or c > W_AB_MAX + tol:
        return False
    return c <= boundary_wac(min(a, W_AB_MAX)) + tol


@dataclass(frozen=True)
class SelfTestReport:
    """Deviation of a strategy from the unique optimal form.

    All metrics are measured after aligning Bob's fitted measurement axes
    with the x and z reference axes, so they are invariant under a
    collective unitary change of frame.  Every field is >= 0 and all
    vanish (to ~1e-9) exactly when the strategy has square pure
    antipodal preparations, equal-sharpness zero-offset instruments along
    the square's diagonals with one common unitary, and sharp measurements
    aligned with that unitary's image of the diagonals.
    """

    purity_defects: tuple[float, float, float, float]
    antipodality_defects: tuple[float, float]
    square_angle_defect: float
    bob_offsets: tuple[float, float]
    bob_sharpness_defect: float
    unitary_spread: float
    charlie_alignment_defects: tuple[float, float]

    def max_defect(self) -> float:
        return max(
            *self.purity_defects,
            *self.antipodality_defects,
            self.square_angle_defect,
            *self.bob_offsets,
            self.bob_sharpness_defect,
            self.unitary_spread,
            *self.charlie_alignment_defects,
        )


def _orthonormal_frame(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Rotation sending ``a0 -> x`` and (Gram-Schmidt of) ``a1 -> z``."""
    e1 = a0 / np.linalg.norm(a0)
    raw = a1 - np.dot(a1, e1) * e1
    norm = np.linalg.norm(raw)
    # a1 parallel to a0 completes the frame from the least-aligned axis
    e3 = raw / norm if norm >= 1e-12 else _least_aligned_perp(e1)
    e2 = np.cross(e3, e1)
    return np.vstack([e1, e2, e3])


def _least_aligned_perp(v: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to ``v``, from the least-aligned coordinate axis."""
    pick = int(np.argmin(np.abs(v)))
    raw = np.eye(3)[pick] - v[pick] * v
    return raw / np.linalg.norm(raw)


def _fit_alignment_unitary(s: Strategy) -> np.ndarray:
    """SU(2) element whose conjugation maps Bob's axes onto x and z."""
    axes = []
    for inst in s.instruments:
        c = inst.povm.cvec
        norm = np.linalg.norm(c)
        axes.append(c / norm if norm > 1e-12 else None)
    if axes[0] is None and axes[1] is None:
        return ID2.copy()
    if axes[0] is None:
        axes[0] = _least_aligned_perp(axes[1])
    if axes[1] is None:
        axes[1] = _least_aligned_perp(axes[0])
    rotation = _orthonormal_frame(axes[0], axes[1])
    return unitary_from_rotation(rotation)


def _common_unitary_defect(instruments) -> tuple[float, np.ndarray]:
    """Best single unitary explaining all Kraus operators, and its residual.

    Minimizes ``sum_yb || K_yb - U sqrt(M_yb) ||_F^2`` over unitary ``U``
    (orthogonal Procrustes); returns the worst per-operator residual.  This
    stays well defined for rank-deficient Kraus operators, where the polar
    unitary itself is not unique.
    """
    cross = np.zeros((2, 2), dtype=complex)
    roots = []
    for inst in instruments:
        for k in inst.all_kraus():
            gram = k.conj().T @ k
            root = matrix_sqrt_psd(0.5 * (gram + gram.conj().T), tol=np.inf)
            roots.append((k, root))
            cross += k @ root  # root is Hermitian
    u_fit = polar_decompose(cross)[0]
    worst = max(float(np.linalg.norm(k - u_fit @ root)) for k, root in roots)
    return worst, u_fit


def selftest_report(s: Strategy) -> SelfTestReport:
    """Measure how far a strategy sits from the optimal-pair form."""
    aligned = conjugate_strategy(s, _fit_alignment_unitary(s))

    blochs = aligned.preparations.bloch_vectors()
    purity = tuple(max(0.0, 1.0 - float(np.linalg.norm(n))) for n in blochs)
    antipodality = (
        float(np.linalg.norm(blochs[0] + blochs[3])),
        float(np.linalg.norm(blochs[1] + blochs[2])),
    )
    d0 = blochs[0] - blochs[3]
    d1 = blochs[1] - blochs[2]
    n0, n1 = np.linalg.norm(d0), np.linalg.norm(d1)
    if n0 < 1e-12 or n1 < 1e-12:
        square_angle = np.pi / 2.0
    else:
        cosang = float(np.clip(np.dot(d0, d1) / (n0 * n1), -1.0, 1.0))
        square_angle = abs(np.arccos(cosang) - np.pi / 2.0)

    offsets = tuple(abs(float(inst.povm.c0)) for inst in aligned.instruments)
    eta_pred = SQRT2 * (2.0 * witness_ab(aligned) - 1.0)
    sharpness_defect = max(
        abs(inst.povm.sharpness - eta_pred) for inst in aligned.instruments
    )

    spread, u_fit = _common_unitary_defect(aligned.instruments)

    targets = (u_fit @ SIGMA_X @ u_fit.conj().T, u_fit @ SIGMA_Z @ u_fit.conj().T)
    charlie = tuple(
        float(np.linalg.norm(povm.observable() - target))
        for povm, target in zip(aligned.measurements, targets)
    )

    return SelfTestReport(
        purity_defects=purity,
        antipodality_defects=antipodality,
        square_angle_defect=float(square_angle),
        bob_offsets=offsets,
        bob_sharpness_defect=float(sharpness_defect),
        unitary_spread=spread,
        charlie_alignment_defects=charlie,
    )
