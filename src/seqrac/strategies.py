"""Canonical quantum strategies and visibility noise."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import require_real
from .linalg import BinaryPovm, QubitState, projective_povm, state_from_bloch
from .scenario import (
    INPUT_PAIRS,
    BinaryInstrument,
    Strategy,
    WitnessPair,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
X_AXIS = np.array([1.0, 0.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def square_preparations() -> tuple[QubitState, ...]:
    """Four pure states at ``((-1)^x0, 0, (-1)^x1) / sqrt(2)``, indexed by ``2 x0 + x1``.

    The Bloch vectors form a square in the xz-disk whose diagonals are the
    pairs with flipped input bits.
    """
    states = []
    for x0, x1 in INPUT_PAIRS:
        n = INV_SQRT2 * np.array([(-1.0) ** x0, 0.0, (-1.0) ** x1])
        states.append(state_from_bloch(n))
    return tuple(states)


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
    preps = tuple(state_from_bloch(v.v_a * st.bloch) for st in s.preparations)
    instruments = tuple(
        BinaryInstrument.from_polar(
            inst.unitaries, BinaryPovm.from_observable(inst.povm.c0, v.v_b * inst.povm.cvec)
        )
        for inst in s.instruments
    )
    measurements = tuple(
        BinaryPovm.from_observable(p.c0, v.v_c * p.cvec) for p in s.measurements
    )
    return Strategy(preps, instruments, measurements)
