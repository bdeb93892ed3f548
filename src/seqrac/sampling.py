"""Seeded random generators for states, devices and whole strategies."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .linalg import BinaryPovm, QubitState, _norm, bloch_compose
from .scenario import BinaryInstrument, Strategy


def _flag(value, what: str) -> bool:
    """``value`` if it is a ``bool`` or ``np.bool_``, as a bool; :class:`DomainError` otherwise."""
    if type(value) not in (bool, np.bool_):
        raise DomainError(f"{what} must be a bool, got {value!r}")
    return bool(value)


# rng.random() and rng.standard_normal(k): the bits of uniform() and normal(size=k), cheaper.
def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / _norm(v)


def random_bloch_in_ball(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    norm, r = _norm(v), rng.random() ** (1.0 / 3.0)
    return np.array([x / norm * r for x in v.tolist()])  # random_unit_vector(rng) * r, entry by entry


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element via a uniform quaternion."""
    return np.array(_su2_entries(rng)).reshape(2, 2)


def _su2_entries(rng: np.random.Generator) -> list:
    """The entries of :func:`random_su2`, ``w I - i (x X + y Y + z Z)``, row by row as Python numbers."""
    q = rng.standard_normal(4)
    w, x, y, z = (q / _norm(q)).tolist()
    return [complex(w, -z), complex(-y, -x), complex(y, -x), complex(w, z)]


def random_state(rng: np.random.Generator) -> QubitState:
    n = random_bloch_in_ball(rng)
    return QubitState(bloch_compose(0.5, [0.5 * v for v in n.tolist()]), n)


def random_povm(rng: np.random.Generator, allow_offset: bool = True) -> BinaryPovm:
    """Random two-effect measurement; offsets stay inside the positivity cone."""
    allow_offset = _flag(allow_offset, "allow_offset")
    eta = rng.random()
    c0 = (-1.0 + 2.0 * rng.random()) * (1.0 - eta) if allow_offset else 0.0
    return BinaryPovm.from_observable(c0, eta * random_unit_vector(rng))


def random_instrument(rng: np.random.Generator, luders: bool = False) -> BinaryInstrument:
    luders = _flag(luders, "luders")
    povm = random_povm(rng)
    if luders:
        return BinaryInstrument.luders(povm)
    unitaries = np.array(_su2_entries(rng) + _su2_entries(rng)).reshape(2, 2, 2)
    return BinaryInstrument._from_unitaries(unitaries, povm)


def random_preparations(rng: np.random.Generator) -> tuple[QubitState, ...]:
    return tuple(random_state(rng) for _ in range(4))


def random_strategy(rng: np.random.Generator, luders: bool = False) -> Strategy:
    """Random valid strategy with generic instruments and measurements."""
    luders = _flag(luders, "luders")
    return Strategy(
        random_preparations(rng),
        (random_instrument(rng, luders), random_instrument(rng, luders)),
        (random_povm(rng), random_povm(rng)),
    )
