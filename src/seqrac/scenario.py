"""Prepare-transform-measure data model and the two correlation witnesses.

Alice prepares one of four qubit states indexed by the bit pair
``x = (x0, x1)``, Bob applies one of two binary instruments (input ``y``),
and Charlie performs one of two binary measurements (input ``z``).  Witness
``w_ab`` scores Bob guessing bit ``x_y``; witness ``w_ac`` scores Charlie
guessing bit ``x_z`` on the post-instrument state.

All formulas use the unnormalized branch states ``K rho K^dag``, so
zero-probability branches never divide by zero.  Everything here is a pure
function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CompletenessViolated, DomainError, InvalidStrategy
from .linalg import (
    HERM_TOL,
    ID2,
    BinaryPovm,
    QubitState,
    _psd_part,
    _vector3,
    as_matrix2,
    bloch_decompose,
    matrix_sqrt_psd,
    polar_decompose,
    validate_povm,
)

INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# Per score w and input pair x, where E_{x_0|0} and E_{x_1|1} sit in _guess_scores' effect stack.
_GUESSES = np.array([[[4 * w + x0, 4 * w + 2 + x1] for x0, x1 in INPUT_PAIRS] for w in (0, 1)])


@dataclass(frozen=True)
class BinaryInstrument:
    """Binary-outcome instrument with one Kraus operator per outcome, ``K_b = U_b sqrt(M_b)``.

    ``kraus[b]`` is ``K_b`` and ``unitaries[b]`` its polar unitary ``U_b``, each a
    ``(2, 2, 2)`` array indexed by outcome; ``povm`` holds the induced measurement
    ``M_b = K_b^dag K_b``.  These are the extremal instruments of the paper's
    self-test; a convex mixture of them, which needs more operators per outcome,
    is not represented.  Direct construction is trusted; use :meth:`from_kraus`
    or :meth:`from_polar` to validate.
    """

    kraus: np.ndarray
    povm: BinaryPovm
    unitaries: np.ndarray

    @classmethod
    def from_kraus(cls, k0, k1) -> "BinaryInstrument":
        """Instrument of Kraus operators ``k0``, ``k1``; :func:`validate_povm` of ``K^dag K`` checks it."""
        kraus = np.array([as_matrix2(k0), as_matrix2(k1)])
        m = 0.0 + kraus.conj().transpose(0, 2, 1) @ kraus  # from 0.0, as the per-operator sum was: no -0.0
        return cls(kraus, validate_povm(*m), np.array([polar_decompose(k)[0] for k in kraus]))

    @classmethod
    def from_polar(cls, unitaries, povm: BinaryPovm) -> "BinaryInstrument":
        """Instrument ``K_b = U_b sqrt(M_b)`` from the pair ``(U_0, U_1)``;
        :class:`DomainError` if that is not a pair of finite 2x2 matrices,
        :class:`CompletenessViolated` if one is not unitary (:func:`_unitary_pair`)."""
        return cls._from_unitaries(_unitary_pair(unitaries), povm)

    @classmethod
    def _from_unitaries(cls, unitaries: np.ndarray, povm: BinaryPovm) -> "BinaryInstrument":
        """:meth:`from_polar` unchecked, for a ``(2, 2, 2)`` stack that is unitary by construction."""
        roots = np.array([matrix_sqrt_psd(e) for e in povm.effects])
        return cls(unitaries @ roots, povm, unitaries)

    @classmethod
    def luders(cls, povm: BinaryPovm) -> "BinaryInstrument":
        """Instrument with ``K_b = sqrt(M_b)`` (trivial unitary part)."""
        kraus = np.array([matrix_sqrt_psd(e, tol=np.inf) for e in povm.effects])
        return cls(kraus, povm, np.array([ID2, ID2]))


def _unitary_pair(unitaries) -> np.ndarray:
    """``(U_0, U_1)`` as a ``(2, 2, 2)`` array.  :class:`DomainError` if it is not a pair
    of finite 2x2 matrices, :class:`CompletenessViolated` if an entry of some
    ``U^dag U - I`` exceeds ``HERM_TOL`` in modulus."""
    try:
        u0, u1 = unitaries
    except (TypeError, ValueError):
        raise DomainError(f"polar unitaries must be a pair (U0, U1), got {unitaries!r}") from None
    us = np.array([as_matrix2(u0), as_matrix2(u1)])
    dev = max(float(np.abs(u.conj().T @ u - ID2).max()) for u in us)
    if dev > HERM_TOL:
        raise CompletenessViolated(f"polar unitaries have U^dag U = I + {dev:.3e}")
    return us


def _operator_array(a, what: str) -> np.ndarray:
    """``a``; :class:`DomainError` unless it is one C-contiguous complex ``(2, 2, 2)`` array."""
    if type(a) is not np.ndarray or a.dtype != complex or a.shape != (2, 2, 2) or not a.flags.c_contiguous:
        got = f"{a.dtype} array of shape {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
        raise DomainError(f"{what} must be one C-contiguous complex (2, 2, 2) array, got {got}")
    return a


def _same_views(stored, rebuilt, what: str) -> None:
    """:class:`DomainError` unless ``stored``'s fields have ``rebuilt``'s shapes and values, to HERM_TOL."""
    views = [(getattr(stored, f.name), getattr(rebuilt, f.name)) for f in fields(rebuilt)]
    gap = np.max([abs(np.subtract(v, r)).max() if np.shape(v) == np.shape(r) else np.nan for v, r in views])
    if not gap <= HERM_TOL:  # NaN fails
        raise DomainError(f"{what} by {gap:.3e}")


@dataclass(frozen=True)
class Strategy:
    """Full prepare-transform-measure strategy.

    ``preparations`` holds Alice's four states, the one for input ``x = (x0, x1)``
    at index ``2 x0 + x1``; ``instruments`` and ``measurements`` are indexed by
    Bob's input ``y`` and Charlie's input ``z`` respectively.
    """

    preparations: tuple[QubitState, QubitState, QubitState, QubitState]
    instruments: tuple[BinaryInstrument, BinaryInstrument]
    measurements: tuple[BinaryPovm, BinaryPovm]

    def validate(self) -> "Strategy":
        """Match every stored view to its component's validated rebuild; raises InvalidStrategy naming it."""
        for name, count in (("preparations", 4), ("instruments", 2), ("measurements", 2)):
            part = getattr(self, name)
            got = len(part) if isinstance(part, (tuple, list)) else type(part).__name__
            if got != count:
                raise InvalidStrategy(f"{name}: need a tuple or list of {count}, got {got}")
        for i, st in enumerate(self.preparations):
            try:
                _vector3(st.bloch, "Bloch vector")
                _same_views(st, QubitState.from_matrix(st.matrix), "matrix/bloch views disagree")
            except Exception as exc:
                raise InvalidStrategy(f"preparations[{i}]: {exc}") from exc
        for y, inst in enumerate(self.instruments):
            try:
                kraus, unitaries, _ = map(_operator_array, (inst.kraus, inst.unitaries, inst.povm.effects),
                                          ("Kraus operators", "polar unitaries", "POVM effects"))
                rebuilt = BinaryInstrument.from_kraus(*kraus).povm
                # K_b = U_b sqrt(M_b) holds iff U_b^dag K_b is positive semidefinite.
                for u, k in zip(_unitary_pair(unitaries), kraus):
                    _psd_part(u.conj().T @ k, HERM_TOL, "U^dag K has ")
                _same_views(inst.povm, rebuilt, "stored POVM disagrees with Kraus operators")
            except Exception as exc:
                raise InvalidStrategy(f"instruments[{y}]: {exc}") from exc
        for z, povm in enumerate(self.measurements):
            try:
                rebuilt = validate_povm(*_operator_array(povm.effects, "POVM effects"))
                _same_views(povm, rebuilt, "stored POVM disagrees with its effects")
            except Exception as exc:
                raise InvalidStrategy(f"measurements[{z}]: {exc}") from exc
        return self


class WitnessPair(NamedTuple):
    w_ab: float
    w_ac: float


def _clamp_prob(p: float) -> float:
    if p < -HERM_TOL or p > 1.0 + HERM_TOL:
        raise InvalidStrategy(f"probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


# The types of joint_prob's six indices: 1.0 and True are not valid bits.
_INTS = (int,) * 6


def joint_prob(s: Strategy, x: tuple[int, int], y: int, z: int, b: int, c: int) -> float:
    """Outcome probability ``p(b, c | x, y, z) = tr[K rho K^dag C]``; the
    indices are ints 0 or 1, else :class:`DomainError`."""
    types = (type(x[0]), type(x[1])) if type(x) is tuple and len(x) == 2 else ()
    if types + (type(y), type(z), type(b), type(c)) != _INTS or not (
        x in INPUT_PAIRS and y in (0, 1) and z in (0, 1) and b in (0, 1) and c in (0, 1)
    ):
        raise DomainError(f"joint_prob needs x in {INPUT_PAIRS} and y, z, b, c in (0, 1), "
                          f"as ints; got {x!r}, {y!r}, {z!r}, {b!r}, {c!r}")
    rho = s.preparations[2 * x[0] + x[1]].matrix
    k = s.instruments[y].kraus[b]
    # 0.0 + K rho K^dag, as in _channel_sum: the output of branch b, with no -0.0 entry
    m = (0.0 + k @ rho @ k.conj().T) @ s.measurements[z].effects[c]
    # np.trace's sum, from 0.0: a bare m00 + m11 would keep a -0.0 that np.trace makes 0.0
    return _clamp_prob(float((0.0 + m[0, 0].real) + m[1, 1].real))


def _matrices(states: Iterable[QubitState]) -> np.ndarray:
    """The four density matrices as one ``(4, 2, 2)`` stack."""
    return np.array([st.matrix for st in states])


def _channel_sum(
    instruments: tuple[BinaryInstrument, BinaryInstrument], rhos: np.ndarray
) -> np.ndarray:
    """``sum_{y,b} K rho K^dag`` on a stack, every product from one stacked matmul, added
    as a per-operator loop adds: ``0 + K rho K^dag`` per operator, branch 0 plus branch 1,
    then instrument 0 plus instrument 1."""
    ops = np.concatenate((instruments[0].kraus, instruments[1].kraus))
    # Every term gets the loop's "0 +", which turns a -0.0 into 0.0.
    t = 0.0 + ops[:, None] @ rhos @ ops.conj().transpose(0, 2, 1)[:, None]
    return (t[0] + t[1]) + (t[2] + t[3])


def _guess_scores(ops: np.ndarray, povms: tuple[BinaryPovm, ...]) -> list[float]:
    """``sum_{x,i} tr(ops[w, x] E_{x_i|i})`` per ``w`` of a ``(k, 4, 2, 2)`` stack, ``k <= 2``, with
    ``povms[2 w + i]`` measuring guess ``i``: every effect from one constant index, every product
    from one stacked matmul, each score's traces added in the ``x``-major order of a loop."""
    effects = np.concatenate([p.effects for p in povms])[_GUESSES[: len(ops)]]
    prods = ops[:, :, None] @ effects
    totals = [0.0] * len(ops)
    # A plain loop, not sum(): Python 3.12+ compensates float sums.
    for i, tr in enumerate((prods[..., 0, 0].real + prods[..., 1, 1].real).ravel().tolist()):
        totals[i // 8] += tr
    return totals


def rac_success(states: Iterable[QubitState], povms: tuple[BinaryPovm, BinaryPovm]) -> float:
    """Average success of guessing bit ``x_y`` with measurement ``povms[y]``.

    Computes ``(1/8) sum_{x,y} tr(rho_x M_{x_y | y})`` for the four-state
    ensemble; this is the generic one-step random-access score.
    """
    return _guess_scores(_matrices(states)[None], povms)[0] / 8.0


def witness_pair(s: Strategy) -> WitnessPair:
    """Both witnesses, :func:`witness_ab` and :func:`witness_ac`, from one preparation stack."""
    rhos = _matrices(s.preparations)
    povms = (s.instruments[0].povm, s.instruments[1].povm, *s.measurements)
    w_ab, w_ac = _guess_scores(np.array([rhos, _channel_sum(s.instruments, rhos)]), povms)
    return WitnessPair(_clamp_prob(w_ab / 8.0), _clamp_prob(w_ac / 16.0))


def witness_ab(s: Strategy) -> float:
    """Alice-Bob witness ``(1/8) sum_{x,y} tr(rho_x M_{x_y|y})``."""
    return witness_pair(s).w_ab


def average_instrument_channel(
    states: Iterable[QubitState], instruments: tuple[BinaryInstrument, BinaryInstrument]
) -> tuple[QubitState, ...]:
    """Apply ``rho -> (1/2) sum_{y,b} K_{b|y} rho K_{b|y}^dag`` to each state."""
    acc = _channel_sum(instruments, _matrices(states))
    acc *= 0.5
    acc = 0.5 * (acc + acc.conj().transpose(0, 2, 1))
    return tuple(QubitState(m, 2.0 * bloch_decompose(m)[1]) for m in acc)


def effective_ensemble(s: Strategy) -> tuple[QubitState, ...]:
    """The four states reaching Charlie, averaged over Bob's inputs and outcomes."""
    return average_instrument_channel(s.preparations, s.instruments)


def witness_ac(s: Strategy) -> float:
    """Alice-Charlie witness ``(1/16) sum_{x,y,b,z} tr(K rho K^dag C_{x_z|z})``."""
    return witness_pair(s).w_ac


def conjugate_strategy(s: Strategy, u) -> Strategy:
    """Conjugate every state, Kraus operator and effect by one unitary."""
    try:
        v = as_matrix2(u)
    except DomainError as exc:
        raise DomainError(f"conjugation matrix: {exc}") from exc
    dev = float(np.max(np.abs(v @ v.conj().T - ID2)))
    if not dev <= HERM_TOL:
        raise DomainError(f"conjugation matrix is not unitary (|V V^dag - I| = {dev:.3e})")
    vh = v.conj().T
    # Stacked sandwiches: numpy's matmul makes one 2x2 product per matrix, as v @ m @ vh does.
    rhos = v @ _matrices(s.preparations) @ vh
    rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    preps = tuple(QubitState(m, 2.0 * bloch_decompose(m)[1]) for m in rhos)
    instruments = tuple(BinaryInstrument.from_kraus(*(v @ i.kraus @ vh)) for i in s.instruments)
    measurements = tuple(validate_povm(*(v @ p.effects @ vh)) for p in s.measurements)
    return Strategy(preps, instruments, measurements)


def difference_vectors(preparations: tuple[QubitState, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Signed Bloch sums ``m_z = sum_x (-1)^{x_z} n_x`` for ``z = 0, 1``.

    The traceless operator ``gamma_z = sum_x (-1)^{x_z} rho_x`` equals
    ``(m_z . sigma) / 2``.
    """
    n = np.array([st.bloch for st in preparations])
    m0 = (n[0] - n[3]) + (n[1] - n[2])
    m1 = (n[0] - n[3]) - (n[1] - n[2])
    return m0, m1
