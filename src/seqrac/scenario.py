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

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CompletenessViolated, DomainError, InvalidStrategy
from .linalg import (
    HERM_TOL,
    ID2,
    BinaryPovm,
    QubitState,
    as_matrix2,
    bloch_decompose,
    matrix_sqrt_psd,
    polar_decompose,
    validate_povm,
)

INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def input_index(x: tuple[int, int]) -> int:
    """Serialize the input pair as ``2*x0 + x1``."""
    return 2 * x[0] + x[1]


@dataclass(frozen=True)
class PreparationEnsemble:
    """Alice's four preparations, indexed by the input pair ``(x0, x1)``."""

    states: tuple[QubitState, QubitState, QubitState, QubitState]

    def state(self, x: tuple[int, int]) -> QubitState:
        return self.states[input_index(x)]

    def bloch_vectors(self) -> np.ndarray:
        return np.array([s.bloch for s in self.states])


@dataclass(frozen=True)
class BinaryInstrument:
    """Binary-outcome instrument; each outcome owns a tuple of Kraus operators.

    Standard (extremal) instruments carry one Kraus operator per outcome,
    ``K_b = U_b sqrt(M_b)``; the classical measure-and-reprepare embedding
    needs two on a branch, which is why the branches are tuples.  ``povm``
    holds the induced measurement ``M_b = sum_j K_bj^dag K_bj`` and
    ``unitaries`` the polar factors of the branch operators.  Direct
    construction is trusted; use :meth:`from_kraus` / :meth:`from_branches`
    to validate.
    """

    kraus: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    povm: BinaryPovm
    unitaries: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]

    @classmethod
    def from_branches(cls, branch0, branch1, tol: float = HERM_TOL) -> "BinaryInstrument":
        branches = tuple(
            tuple(as_matrix2(k) for k in branch) for branch in (branch0, branch1)
        )
        effects = []
        for branch in branches:
            m = np.zeros((2, 2), dtype=complex)
            for k in branch:
                m += k.conj().T @ k
            effects.append(0.5 * (m + m.conj().T))
        dev = float(np.max(np.abs(effects[0] + effects[1] - ID2)))
        if dev > tol:
            raise CompletenessViolated(f"Kraus operators sum to I + {dev:.3e}")
        povm = validate_povm(effects[0], effects[1], tol)
        unitaries = tuple(
            tuple(polar_decompose(k)[0] for k in branch) for branch in branches
        )
        return cls(branches, povm, unitaries)

    @classmethod
    def from_kraus(cls, k0, k1, tol: float = HERM_TOL) -> "BinaryInstrument":
        """Validate an extremal instrument (one Kraus operator per outcome)."""
        return cls.from_branches((k0,), (k1,), tol)

    @classmethod
    def from_polar(cls, unitaries, povm: BinaryPovm) -> "BinaryInstrument":
        """Extremal instrument ``K_b = U_b sqrt(M_b)``.

        ``unitaries`` holds one polar unitary per outcome in the branch
        layout of :attr:`unitaries`, ``((U_0,), (U_1,))``.
        """
        unitaries = tuple(tuple(branch) for branch in unitaries)
        kraus = tuple(
            (u[0] @ matrix_sqrt_psd(e),) for u, e in zip(unitaries, povm.effects)
        )
        return cls(kraus, povm, unitaries)

    @classmethod
    def luders(cls, povm: BinaryPovm) -> "BinaryInstrument":
        """Instrument with ``K_b = sqrt(M_b)`` (trivial unitary part)."""
        kraus = tuple((matrix_sqrt_psd(e, tol=np.inf),) for e in povm.effects)
        return cls(kraus, povm, ((ID2.copy(),), (ID2.copy(),)))

    def is_extremal(self) -> bool:
        return len(self.kraus[0]) == 1 and len(self.kraus[1]) == 1

    @property
    def kraus_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The two Kraus operators of an extremal instrument."""
        if not self.is_extremal():
            raise InvalidStrategy("instrument has multi-operator branches")
        return self.kraus[0][0], self.kraus[1][0]

    def apply_branch(self, rho: np.ndarray, b: int) -> np.ndarray:
        """Unnormalized branch output ``sum_j K_bj rho K_bj^dag``.

        ``rho`` is one 2x2 matrix or a stack of them, shape ``(n, 2, 2)``;
        each matrix of a stack gets the bits it would get on its own.
        """
        out = np.zeros(rho.shape, dtype=complex)
        for k in self.kraus[b]:
            out += k @ rho @ k.conj().T
        return out

    def apply_channel(self, rho: np.ndarray) -> np.ndarray:
        """Outcome-averaged output ``sum_b sum_j K_bj rho K_bj^dag``."""
        return self.apply_branch(rho, 0) + self.apply_branch(rho, 1)

    def all_kraus(self):
        for branch in self.kraus:
            yield from branch


@dataclass(frozen=True)
class Strategy:
    """Full prepare-transform-measure strategy.

    ``instruments`` and ``measurements`` are indexed by Bob's input ``y``
    and Charlie's input ``z`` respectively.
    """

    preparations: PreparationEnsemble
    instruments: tuple[BinaryInstrument, BinaryInstrument]
    measurements: tuple[BinaryPovm, BinaryPovm]

    def validate(self, tol: float = HERM_TOL) -> "Strategy":
        """Re-validate every component; raises InvalidStrategy naming it."""
        for i, st in enumerate(self.preparations.states):
            try:
                QubitState.from_matrix(st.matrix, tol)
            except Exception as exc:
                raise InvalidStrategy(f"preparations[{i}]: {exc}") from exc
            if np.max(np.abs(st.matrix - (0.5 * ID2 + 0.5 * _dot_sigma(st.bloch)))) > tol:
                raise InvalidStrategy(f"preparations[{i}]: matrix/bloch views disagree")
        for y, inst in enumerate(self.instruments):
            try:
                rebuilt = BinaryInstrument.from_branches(*inst.kraus, tol=tol)
            except Exception as exc:
                raise InvalidStrategy(f"instruments[{y}]: {exc}") from exc
            for own, derived in zip(inst.povm.effects, rebuilt.povm.effects):
                if np.max(np.abs(own - derived)) > tol:
                    raise InvalidStrategy(
                        f"instruments[{y}]: stored POVM disagrees with Kraus operators"
                    )
        for z, povm in enumerate(self.measurements):
            try:
                validate_povm(*povm.effects, tol=tol)
            except Exception as exc:
                raise InvalidStrategy(f"measurements[{z}]: {exc}") from exc
        return self


class WitnessPair(NamedTuple):
    w_ab: float
    w_ac: float


def _dot_sigma(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=complex
    )


def _clamp_prob(p: float, tol: float) -> float:
    if p < -tol or p > 1.0 + tol:
        raise InvalidStrategy(f"probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def joint_prob(s: Strategy, x: tuple[int, int], y: int, z: int, b: int, c: int) -> float:
    """Outcome probability ``p(b, c | x, y, z) = tr[K rho K^dag C]``."""
    rho = s.preparations.state(x).matrix
    effect = s.measurements[z].effects[c]
    branch = s.instruments[y].apply_branch(rho, b)
    p = float(np.trace(branch @ effect).real)
    return _clamp_prob(p, HERM_TOL)


def _matrices(states: Iterable[QubitState]) -> np.ndarray:
    """The four density matrices as one ``(4, 2, 2)`` stack."""
    return np.array([st.matrix for st in states])


def _channel_sum(
    instruments: tuple[BinaryInstrument, BinaryInstrument], rhos: np.ndarray
) -> np.ndarray:
    """``sum_{y,b,j} K rho K^dag`` on a stack, added as ``apply_channel`` adds."""
    acc = instruments[0].apply_channel(rhos)
    acc += instruments[1].apply_channel(rhos)
    return acc


def _guess_score(ops: np.ndarray, povms: tuple[BinaryPovm, BinaryPovm]) -> float:
    """``sum_{x,i} tr(ops_x E_{x_i|i})`` for a ``(4, 2, 2)`` stack ``ops``.

    The eight products come from one stacked matmul; their traces are added
    as Python floats in the ``x``-major order of a per-matrix loop.
    """
    effects = np.array([[povms[i].effects[x[i]] for i in (0, 1)] for x in INPUT_PAIRS])
    prods = ops[:, None] @ effects
    total = 0.0
    # A plain loop, not sum(): Python 3.12+ compensates float sums.
    for tr in (prods[..., 0, 0].real + prods[..., 1, 1].real).ravel().tolist():
        total += tr
    return total


def rac_success(states: Iterable[QubitState], povms: tuple[BinaryPovm, BinaryPovm]) -> float:
    """Average success of guessing bit ``x_y`` with measurement ``povms[y]``.

    Computes ``(1/8) sum_{x,y} tr(rho_x M_{x_y | y})`` for the four-state
    ensemble; this is the generic one-step random-access score.
    """
    return _guess_score(_matrices(states), povms) / 8.0


def witness_ab(s: Strategy) -> float:
    """Alice-Bob witness ``(1/8) sum_{x,y} tr(rho_x M_{x_y|y})``."""
    value = rac_success(s.preparations.states, tuple(i.povm for i in s.instruments))
    return _clamp_prob(value, HERM_TOL)


def average_instrument_channel(
    states: Iterable[QubitState], instruments: tuple[BinaryInstrument, BinaryInstrument]
) -> PreparationEnsemble:
    """Apply ``rho -> (1/2) sum_{y,b} K_{b|y} rho K_{b|y}^dag`` to each state."""
    acc = _channel_sum(instruments, _matrices(states))
    acc *= 0.5
    acc = 0.5 * (acc + acc.conj().transpose(0, 2, 1))
    return PreparationEnsemble(
        tuple(QubitState(m, 2.0 * bloch_decompose(m)[1]) for m in acc)
    )


def effective_ensemble(s: Strategy) -> PreparationEnsemble:
    """Ensemble reaching Charlie, averaged over Bob's inputs and outcomes."""
    return average_instrument_channel(s.preparations.states, s.instruments)


def witness_ac(s: Strategy) -> float:
    """Alice-Charlie witness ``(1/16) sum_{x,y,b,z} tr(K rho K^dag C_{x_z|z})``."""
    acc = _channel_sum(s.instruments, _matrices(s.preparations.states))
    return _clamp_prob(_guess_score(acc, s.measurements) / 16.0, HERM_TOL)


def witness_pair(s: Strategy) -> WitnessPair:
    return WitnessPair(witness_ab(s), witness_ac(s))


def conjugate_strategy(s: Strategy, u) -> Strategy:
    """Conjugate every state, Kraus operator and effect by one unitary."""
    try:
        v = as_matrix2(u)
    except DomainError as exc:
        raise DomainError(f"conjugation matrix: {exc}") from exc
    dev = float(np.max(np.abs(v @ v.conj().T - ID2)))
    if not dev <= 1e-9:
        raise DomainError(f"conjugation matrix is not unitary (|V V^dag - I| = {dev:.3e})")
    vh = v.conj().T

    def sandwich(m: np.ndarray) -> np.ndarray:
        return v @ m @ vh

    preps = []
    for st in s.preparations.states:
        m = sandwich(st.matrix)
        m = 0.5 * (m + m.conj().T)
        preps.append(QubitState(m, 2.0 * bloch_decompose(m)[1]))
    instruments = tuple(
        BinaryInstrument.from_branches(
            tuple(sandwich(k) for k in i.kraus[0]),
            tuple(sandwich(k) for k in i.kraus[1]),
        )
        for i in s.instruments
    )
    measurements = tuple(
        validate_povm(sandwich(p.effects[0]), sandwich(p.effects[1]))
        for p in s.measurements
    )
    return Strategy(PreparationEnsemble(tuple(preps)), instruments, measurements)


def difference_vectors(preparations: PreparationEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Signed Bloch sums ``m_z = sum_x (-1)^{x_z} n_x`` for ``z = 0, 1``.

    The traceless operator ``gamma_z = sum_x (-1)^{x_z} rho_x`` equals
    ``(m_z . sigma) / 2``.
    """
    n = preparations.bloch_vectors()
    m0 = (n[0] - n[3]) + (n[1] - n[2])
    m1 = (n[0] - n[3]) - (n[1] - n[2])
    return m0, m1
