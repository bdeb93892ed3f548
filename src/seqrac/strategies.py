"""Canonical quantum strategies, visibility noise, and the classical model."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidStrategy, require_integer, require_real
from .linalg import (
    BinaryPovm,
    QubitState,
    bloch_decompose,
    projective_povm,
    state_from_bloch,
)
from .scenario import (
    INPUT_PAIRS,
    BinaryInstrument,
    PreparationEnsemble,
    Strategy,
    WitnessPair,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
X_AXIS = np.array([1.0, 0.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def square_preparations() -> PreparationEnsemble:
    """Four pure states at ``((-1)^x0, 0, (-1)^x1) / sqrt(2)``.

    The Bloch vectors form a square in the xz-disk whose diagonals are the
    pairs with flipped input bits.
    """
    states = []
    for x0, x1 in INPUT_PAIRS:
        n = INV_SQRT2 * np.array([(-1.0) ** x0, 0.0, (-1.0) ** x1])
        states.append(state_from_bloch(n))
    return PreparationEnsemble(tuple(states))


def unsharp_axis_povm(axis: np.ndarray, eta: float) -> BinaryPovm:
    """Binary measurement with observable ``eta * (axis . sigma)``."""
    return BinaryPovm.from_observable(0.0, eta * axis)


def axis_instruments(eta_x: float, eta_z: float) -> tuple[BinaryInstrument, BinaryInstrument]:
    """Minimally disturbing instruments along x (``y = 0``) and z (``y = 1``)."""
    return (
        BinaryInstrument.luders(unsharp_axis_povm(X_AXIS, eta_x)),
        BinaryInstrument.luders(unsharp_axis_povm(Z_AXIS, eta_z)),
    )


def canonical_strategy(eta: float) -> Strategy:
    """Square preparations, unsharp x/z instruments, sharp x/z readout.

    Bob applies the minimally disturbing instrument (``K_b = sqrt(M_b)``)
    of the sharpness-``eta`` observables along x (``y = 0``) and z
    (``y = 1``); Charlie measures the same axes projectively.
    """
    eta = require_real(eta, "sharpness", 0.0, 1.0)
    measurements = (projective_povm(X_AXIS), projective_povm(Z_AXIS))
    return Strategy(square_preparations(), axis_instruments(eta, eta), measurements)


def canonical_witness_pair(eta: float) -> WitnessPair:
    """Closed-form witnesses of the canonical strategy.

    ``w_ab = (2 + eta sqrt(2))/4`` and
    ``w_ac = (4 + sqrt(2) + sqrt(2 - 2 eta^2))/8``.
    """
    eta = require_real(eta, "sharpness", 0.0, 1.0)
    w_ab = 0.25 * (2.0 + eta * np.sqrt(2.0))
    w_ac = 0.125 * (4.0 + np.sqrt(2.0) + np.sqrt(max(2.0 - 2.0 * eta * eta, 0.0)))
    return WitnessPair(float(w_ab), float(w_ac))


@dataclass(frozen=True)
class VisibilityTriple:
    """Visibilities of the preparations, instruments and measurements."""

    v_a: float
    v_b: float
    v_c: float

    def __post_init__(self):
        for f in fields(self):
            require_real(getattr(self, f.name), f.name, 0.0, 1.0)


def apply_visibility(s: Strategy, v: VisibilityTriple) -> Strategy:
    """Mix each device with its maximally mixed counterpart.

    Preparations shrink their Bloch vectors by ``v_a``.  Each instrument's
    observable Bloch vector shrinks by ``v_b`` (offset unchanged) and the
    Kraus operators are rebuilt as ``U_b sqrt(M'_b)`` with the original
    polar unitaries.  Charlie's observable Bloch vectors shrink by ``v_c``.
    """
    preps = PreparationEnsemble(
        tuple(state_from_bloch(v.v_a * st.bloch) for st in s.preparations.states)
    )
    instruments = []
    for inst in s.instruments:
        if not inst.is_extremal():
            raise InvalidStrategy(
                "visibility is only defined for single-Kraus instruments"
            )
        noisy = BinaryPovm.from_observable(inst.povm.c0, v.v_b * inst.povm.cvec)
        instruments.append(BinaryInstrument._from_unitaries(inst.unitaries, noisy))
    measurements = tuple(
        BinaryPovm.from_observable(p.c0, v.v_c * p.cvec) for p in s.measurements
    )
    return Strategy(preps, tuple(instruments), measurements)


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic one-bit-message strategy.

    ``encode[2*x0 + x1]`` is Alice's message bit; ``bob_out[2*m + y]`` is
    Bob's guess given message ``m`` and input ``y``; ``relay[2*m + y]`` is
    the bit forwarded to Charlie; ``charlie_out[2*m + z]`` is Charlie's
    guess.  The relay may depend on ``(m, y)`` only, which fixes the
    deterministic strategy space at ``16^4 = 65536``.
    """

    encode: tuple[int, int, int, int]
    bob_out: tuple[int, int, int, int]
    relay: tuple[int, int, int, int]
    charlie_out: tuple[int, int, int, int]

    def __post_init__(self):
        for f in fields(self):
            table = getattr(self, f.name)
            if len(table) != 4 or any(type(bit) is not int or bit not in (0, 1) for bit in table):
                raise InvalidStrategy(f"{f.name} must be four bits, got {table!r}")

    @classmethod
    def from_codes(cls, e: int, b: int, r: int, c: int) -> "ClassicalStrategy":
        """Build from four 4-bit codes; bit ``i`` of a code is table entry ``i``."""
        unpack = lambda n: tuple((n >> i) & 1 for i in range(4))
        return cls(*(unpack(require_integer(n, "code", 0, 15)) for n in (e, b, r, c)))

    @staticmethod
    def relay_first_bit() -> "ClassicalStrategy":
        """Alice sends ``x0``; Bob outputs and relays it; Charlie outputs it."""
        return ClassicalStrategy.from_codes(12, 12, 12, 12)  # every table (0, 0, 1, 1)


def enumerate_classical_strategies():
    """Yield all 65536 deterministic strategies."""
    for e, b, r, c in itertools.product(range(16), repeat=4):
        yield ClassicalStrategy.from_codes(e, b, r, c)


def witness_pair_classical(cs: ClassicalStrategy) -> WitnessPair:
    """Exact witnesses by enumerating all input tuples.

    Counts are divided by 8 and 16, so the floats are exact dyadics.
    """
    ab_hits = 0
    ac_hits = 0
    for x in INPUT_PAIRS:
        m = cs.encode[2 * x[0] + x[1]]
        for y in (0, 1):
            if cs.bob_out[2 * m + y] == x[y]:
                ab_hits += 1
            relayed = cs.relay[2 * m + y]
            for z in (0, 1):
                if cs.charlie_out[2 * relayed + z] == x[z]:
                    ac_hits += 1
    return WitnessPair(ab_hits / 8.0, ac_hits / 16.0)


_KET = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


def classical_to_strategy(cs: ClassicalStrategy) -> Strategy:
    """Embed a classical strategy into the qubit scenario.

    The message rides the computational basis: Alice prepares
    ``|encode(x)>``, Bob reads the basis bit and re-prepares the relay bit
    (outcome branch ``b`` collects the controlled operators
    ``|relay(m,y)><m|`` with ``bob_out(m,y) = b``), Charlie measures the
    basis and answers ``charlie_out``.  The embedded strategy reproduces
    the classical distribution exactly; when both messages share an
    outcome the branch holds two Kraus operators.
    """
    states = tuple(
        QubitState(
            np.outer(_KET[cs.encode[i]], _KET[cs.encode[i]].conj()),
            np.array([0.0, 0.0, 1.0 - 2.0 * cs.encode[i]]),
        )
        for i in range(4)
    )
    instruments = []
    for y in (0, 1):
        branches = ([], [])
        for m in (0, 1):
            op = np.outer(_KET[cs.relay[2 * m + y]], _KET[m].conj())
            branches[cs.bob_out[2 * m + y]].append(op)
        instruments.append(
            BinaryInstrument.from_branches(tuple(branches[0]), tuple(branches[1]))
        )
    measurements = []
    for z in (0, 1):
        effects = [np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)]
        for m in (0, 1):
            effects[cs.charlie_out[2 * m + z]] += np.outer(_KET[m], _KET[m].conj())
        c0, cvec = bloch_decompose(effects[0] - effects[1])
        measurements.append(BinaryPovm((effects[0], effects[1]), c0, cvec))
    return Strategy(PreparationEnsemble(states), tuple(instruments), tuple(measurements))
