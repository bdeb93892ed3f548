"""Seeded random generators for states, devices and whole strategies."""

from __future__ import annotations

import numpy as np

from .linalg import BinaryPovm, QubitState, _norm, bloch_compose
from .scenario import BinaryInstrument, Strategy


# rng.random() and rng.standard_normal(k): the bits of uniform() and normal(size=k), cheaper.
def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / _norm(v)


def random_bloch_in_ball(rng: np.random.Generator) -> np.ndarray:
    return random_unit_vector(rng) * rng.random() ** (1.0 / 3.0)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element via a uniform quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = (q / _norm(q)).tolist()
    # w I - i (x X + y Y + z Z), entry by entry.
    return np.array([[complex(w, -z), complex(-y, -x)], [complex(y, -x), complex(w, z)]])


def random_state(rng: np.random.Generator) -> QubitState:
    n = random_bloch_in_ball(rng)
    return QubitState(bloch_compose(0.5, [0.5 * v for v in n.tolist()]), n)


def _draw_observable(rng: np.random.Generator, allow_offset: bool) -> tuple[float, np.ndarray]:
    """The draws of :func:`random_povm`: offset ``c0`` and observable vector."""
    eta = rng.random()
    c0 = (-1.0 + 2.0 * rng.random()) * (1.0 - eta) if allow_offset else 0.0
    return c0, eta * random_unit_vector(rng)


def random_povm(rng: np.random.Generator, allow_offset: bool = True) -> BinaryPovm:
    """Random two-effect measurement; offsets stay inside the positivity cone."""
    return BinaryPovm.from_observable(*_draw_observable(rng, allow_offset))


def random_instrument(rng: np.random.Generator, luders: bool = False) -> BinaryInstrument:
    povm = random_povm(rng)
    if luders:
        return BinaryInstrument.luders(povm)
    return BinaryInstrument._from_unitaries(np.array([random_su2(rng), random_su2(rng)]), povm)


def random_preparations(rng: np.random.Generator) -> tuple[QubitState, ...]:
    return tuple(random_state(rng) for _ in range(4))


def random_strategy(rng: np.random.Generator, luders: bool = False) -> Strategy:
    """Random valid strategy with generic instruments and measurements."""
    return Strategy(
        random_preparations(rng),
        (random_instrument(rng, luders), random_instrument(rng, luders)),
        (random_povm(rng), random_povm(rng)),
    )
