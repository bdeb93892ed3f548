"""Closed-form trade-off boundary, sharpness certification, and self-testing."""

from __future__ import annotations

from dataclasses import astuple, dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import InfeasiblePair, require_real, require_tol
from .linalg import bloch_compose, polar_decompose
from .scenario import Strategy, WitnessPair, witness_ab

SQRT2 = np.sqrt(2.0)
W_AB_MAX = 0.25 * (2.0 + SQRT2)          # optimal single-step witness
W_AC_TRIVIAL = 0.125 * (4.0 + SQRT2)     # below this the upper bound is 1
CLASSICAL_BOUND = 0.75
FEASIBILITY_TOL = 1e-7


def round_reported(value: float) -> float:
    """Decimal half-up rounding to the 4 decimals of reported witness values.

    A guard quantization absorbs numerical dust first, so a value that is
    mathematically ...x5 (like 0.71375) rounds up even when the computed
    float sits a hair below it.  The 8-digit guard matches the precision
    of typical inputs (for example a sharpness given as 0.70710678).
    NaN, infinities and values beyond 1e19 raise :class:`DomainError`.
    """
    value = require_real(value, "reported value", -1e19, 1e19)  # 8 decimals in 28 digits
    d = Decimal(repr(value)).quantize(Decimal("1e-8"), rounding=ROUND_HALF_UP)
    return float(d.quantize(Decimal("1e-4"), rounding=ROUND_HALF_UP))


def witness_level(name: str, value: float, tol: float, lower: float = 0.5) -> float:
    """``value`` clamped to ``[lower, (2 + sqrt(2))/4]``; :class:`DomainError` if it
    is not a finite real number or leaves that range by more than ``tol``."""
    tol = require_tol(tol)
    value = require_real(value, name, lower - tol, W_AB_MAX + tol)
    return float(min(max(value, lower), W_AB_MAX))


def boundary_wac(alpha: float) -> float:
    """Largest Alice-Charlie witness compatible with ``w_ab = alpha``.

    ``(4 + sqrt(2) + sqrt(16 a - 16 a^2 - 2)) / 8`` on
    ``alpha in [1/2, (2 + sqrt(2))/4]``.
    """
    witness_level("alpha", alpha, 1e-9)
    radicand = max(16.0 * alpha - 16.0 * alpha * alpha - 2.0, 0.0)
    return float(0.125 * (4.0 + SQRT2 + np.sqrt(radicand)))


def equal_witness_point() -> float:
    """The fixed point ``boundary_wac(a) = a``, namely ``(5 + 2 sqrt(2))/10``."""
    return float((5.0 + 2.0 * SQRT2) / 10.0)


def _required_sharpness(w_ab: float):
    """``sqrt(2) (2 w_ab - 1)``, signed and unclamped: the instrument
    sharpness that an observed ``w_ab`` demands."""
    return SQRT2 * (2.0 * w_ab - 1.0)


def sharpness_lower(w_ab: float, tol: float = 1e-9) -> float:
    """Smallest instrument sharpness compatible with an observed ``w_ab``.

    ``max(0, sqrt(2) (2 w_ab - 1))`` on ``w_ab in [0, (2 + sqrt(2))/4]``;
    values above the quantum maximum are unphysical.
    """
    witness_level("w_ab", w_ab, tol, lower=0.0)
    return max(0.0, float(_required_sharpness(w_ab)))


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

    def rounded(self) -> tuple[float, float]:
        return round_reported(self.lower), round_reported(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def certify_interval(w: WitnessPair, tol: float = FEASIBILITY_TOL) -> SharpnessInterval:
    """Sharpness interval certified by an observed witness pair.

    Raises :class:`InfeasiblePair` when no qubit strategy reproduces the
    pair (a lower bound above 1, a ``w_ac`` beyond the quantum maximum, or
    crossed bounds beyond ``tol``).
    """
    tol = require_tol(tol)
    w_ab, w_ac = (require_real(value, name, -tol, 1.0 + tol) for name, value in zip(w._fields, w))
    lower = sharpness_lower(w_ab, tol=np.inf)
    if lower > 1.0 + tol:
        raise InfeasiblePair(f"w_ab = {w_ab!r} requires sharpness {lower:.4f} > 1")
    if w_ac > W_AB_MAX + tol:
        raise InfeasiblePair(f"w_ac = {w_ac!r} exceeds the quantum maximum")
    upper = sharpness_upper(w_ac, tol=np.inf)
    lower = min(lower, 1.0)
    if lower > upper + tol:
        raise InfeasiblePair(
            f"bounds cross: lower {lower:.6f} > upper {upper:.6f}"
        )
    # Boundary pairs can cross by float dust inside tol; keep lower <= upper.
    return SharpnessInterval(lower, max(upper, lower))


def _symmetrize(w: WitnessPair) -> tuple[float, float]:
    """Both witnesses as bit-flip representatives in [1/2, 1]; :class:`DomainError`
    unless both are finite real numbers."""
    a, c = require_real(w.w_ab, "w_ab"), require_real(w.w_ac, "w_ac")
    return max(a, 1.0 - a), max(c, 1.0 - c)


def in_classical_set(w: WitnessPair) -> bool:
    """Whether both symmetrized witnesses respect the classical bound 3/4 (to 1e-12)."""
    return max(_symmetrize(w)) <= CLASSICAL_BOUND + 1e-12


def in_quantum_set(w: WitnessPair, tol: float = FEASIBILITY_TOL) -> bool:
    """Whether the symmetrized pair lies under the quantum trade-off curve."""
    tol = require_tol(tol)
    a, c = _symmetrize(w)
    if a > W_AB_MAX + tol or c > W_AB_MAX + tol:
        return False
    return c <= boundary_wac(min(a, W_AB_MAX)) + tol


@dataclass(frozen=True)
class SelfTestReport:
    """Deviation of a strategy from the unique optimal form.

    Every field is measured in the strategy's own frame and is invariant
    under a collective unitary change of frame.  Charlie's targets are
    ``u_fit``'s image of Bob's own axes, with ``u_fit`` the one unitary
    that best explains Bob's Kraus operators.  Every field is >= 0 and all
    vanish exactly when the strategy has square pure antipodal
    preparations, equal-sharpness zero-offset instruments along the
    square's diagonals with one common unitary, and sharp measurements
    aligned with that unitary's image of the diagonals; canonical forms,
    in any frame, reach about 1e-15.
    """

    purity_defects: tuple[float, float, float, float]
    antipodality_defects: tuple[float, float]
    square_angle_defect: float
    bob_offsets: tuple[float, float]
    bob_sharpness_defect: float
    unitary_spread: float
    charlie_alignment_defects: tuple[float, float]

    def max_defect(self) -> float:
        return max(x for v in astuple(self) for x in (v if isinstance(v, tuple) else (v,)))


def _least_aligned_perp(v: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to ``v``, from the least-aligned coordinate axis."""
    pick = int(np.argmin(np.abs(v)))
    raw = np.eye(3)[pick] - v[pick] * v
    return raw / np.linalg.norm(raw)


def _bob_frame(s: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """Bob's first unit axis and the Gram-Schmidt part of his second, which play x and z.
    A missing axis (sharpness <= 1e-12) or a parallel second one is completed by
    :func:`_least_aligned_perp`; with no axis at all the frame is ``(x, z)``."""
    axes = []
    for inst in s.instruments:
        c = inst.povm.cvec
        norm = np.linalg.norm(c)
        axes.append(c / norm if norm > 1e-12 else None)
    e_x, a_z = axes
    if e_x is None and a_z is None:
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    if e_x is None:
        e_x = _least_aligned_perp(a_z)
    if a_z is None:
        a_z = _least_aligned_perp(e_x)
    raw = a_z - np.dot(a_z, e_x) * e_x
    norm = np.linalg.norm(raw)
    return e_x, raw / norm if norm >= 1e-12 else _least_aligned_perp(e_x)


def _common_unitary_defect(instruments) -> tuple[float, np.ndarray]:
    """Best single unitary explaining all Kraus operators, and its residual.

    Minimizes ``sum_yb || K_yb - U sqrt(M_yb) ||_F^2`` over unitary ``U``
    (orthogonal Procrustes) with ``sqrt(M_yb)`` the polar factor ``P`` of
    ``K_yb``; returns the worst per-operator residual.  This stays well
    defined for rank-deficient Kraus operators, where the polar unitary
    itself is not unique.
    """
    cross = np.zeros((2, 2), dtype=complex)
    roots = []
    for k in np.concatenate([inst.kraus for inst in instruments]):
        root = polar_decompose(k)[1]
        roots.append((k, root))
        cross += k @ root  # root is Hermitian
    u_fit = polar_decompose(cross)[0]
    worst = max(float(np.linalg.norm(k - u_fit @ root)) for k, root in roots)
    return worst, u_fit


def selftest_report(s: Strategy) -> SelfTestReport:
    """Measure how far a strategy sits from the optimal-pair form;
    :class:`InvalidStrategy` naming the component if ``s`` is not valid."""
    s.validate()
    blochs = np.array([st.bloch for st in s.preparations])
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

    offsets = tuple(abs(float(inst.povm.c0)) for inst in s.instruments)
    eta_pred = _required_sharpness(witness_ab(s))
    sharpness_defect = max(
        abs(inst.povm.sharpness - eta_pred) for inst in s.instruments
    )

    spread, u_fit = _common_unitary_defect(s.instruments)
    charlie = tuple(
        float(np.linalg.norm(povm.observable() - u_fit @ bloch_compose(0.0, e) @ u_fit.conj().T))
        for povm, e in zip(s.measurements, _bob_frame(s))
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
