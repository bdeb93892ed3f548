"""Bit-exact draws: the sampling helpers against the ``uniform``/``normal`` calls they replace.

``seqrac.sampling`` and the optimizer's draws call ``rng.random()`` and
``rng.standard_normal(k)``.  numpy's ``uniform(lo, hi)`` is
``lo + (hi - lo) * random()`` and ``normal(size=k)`` is
``0 + 1 * standard_normal(k)``, so both give the same bits and leave the
generator in the same state.  The oracles below are the helpers as they
were written with ``uniform`` and ``normal``; each draw is compared by
``tobytes()`` or ``float.hex`` and the generator state afterwards by ``==``.
(An exactly zero normal draw, probability about 2^-53, would differ in its
sign; no seed here meets one.)
"""

import math

import numpy as np
import pytest

from seqrac import optimizer, sampling
from seqrac.analytics import W_AB_MAX
from seqrac.linalg import BinaryPovm
from seqrac.optimizer import HALF_PI
from conftest import frozen_fixed_charlie_value

DRAWS = 3000


def old_unit_vector(rng):
    v = rng.normal(size=3)
    return v / math.sqrt(v.dot(v))


def old_bloch_in_ball(rng):
    return old_unit_vector(rng) * rng.uniform() ** (1.0 / 3.0)


def old_su2(rng):
    q = rng.normal(size=4)
    w, x, y, z = (q / math.sqrt(q.dot(q))).tolist()
    return np.array([[complex(w, -z), complex(-y, -x)], [complex(y, -x), complex(w, z)]])


def old_draw_observable(rng, allow_offset):
    eta = rng.uniform()
    c0 = rng.uniform(-1.0, 1.0) * (1.0 - eta) if allow_offset else 0.0
    return c0, eta * old_unit_vector(rng)


def old_bound_draw(rng):
    return (*old_draw_observable(rng, True), rng.normal(size=3) * rng.uniform(0.0, 2.0))


def old_feasible_start(alpha, rng):
    for _ in range(256):
        theta = rng.uniform(0.0, HALF_PI)
        phi1 = rng.uniform(0.0, HALF_PI)
        if frozen_fixed_charlie_value(alpha, theta, phi1, 1.0, 1.0)[1] is not None:
            return theta, phi1
    return None


def _bits(value) -> str:
    """``tobytes()`` with dtype and shape for arrays, ``float.hex`` for scalars, per item."""
    if isinstance(value, tuple):
        return "|".join(map(_bits, value))
    if value is None:
        return "None"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}{value.tobytes().hex()}"
    return float(value).hex()


def _assert_same_stream(new, old, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(DRAWS):
        assert _bits(new(a)) == _bits(old(b)), i
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize(
    "new, old",
    [
        (sampling.random_unit_vector, old_unit_vector),
        (sampling.random_bloch_in_ball, old_bloch_in_ball),
        (sampling.random_su2, old_su2),
    ],
    ids=["unit_vector", "bloch_in_ball", "su2"],
)
def test_vector_draws_match_uniform_and_normal(new, old):
    _assert_same_stream(new, old, 1501)


@pytest.mark.parametrize("allow_offset", [True, False])
def test_observable_draw_matches(allow_offset):
    _assert_same_stream(
        lambda rng: sampling._draw_observable(rng, allow_offset),
        lambda rng: old_draw_observable(rng, allow_offset),
        [1502, allow_offset],
    )


@pytest.mark.parametrize("luders", [False, True])
def test_random_strategy_leaves_the_same_state(luders):
    # random_strategy's generator calls (24 without Lüders), in order: four states, two instruments
    # (POVM, then two unitaries unless Lüders), two POVMs.
    a, b = np.random.default_rng([1503, luders]), np.random.default_rng([1503, luders])
    for _ in range(300):
        sampling.random_strategy(a, luders)
        for _ in range(4):
            old_bloch_in_ball(b)
        for _ in range(2):  # Bob's instruments
            old_draw_observable(b, True)
            for _ in range(0 if luders else 2):
                old_su2(b)
        for _ in range(2):  # Charlie's measurements
            old_draw_observable(b, True)
    assert a.bit_generator.state == b.bit_generator.state


def test_bound_suite_draws_match():
    samples = 2000
    rng = np.random.default_rng(1504)
    lhs, rhs = optimizer._bound_suite(rng, samples)
    oracle = np.random.default_rng(1504)
    bounds = [
        optimizer.sandwich_eigenvalue_sum_bound(BinaryPovm.from_observable(c0, c), a)
        for c0, c, a in (old_bound_draw(oracle) for _ in range(samples))
    ]
    assert _bits(tuple(lhs.tolist())) == _bits(tuple(b.lhs for b in bounds))
    assert _bits(tuple(rhs.tolist())) == _bits(tuple(b.rhs for b in bounds))
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_feasible_start_draws_match():
    # Levels near W_AB_MAX reject most points, so some searches take many
    # draws and some give up after 256 pairs.
    alphas = np.linspace(0.5, W_AB_MAX + 0.01, 40).tolist()
    a, b = np.random.default_rng(1505), np.random.default_rng(1505)
    outcomes = set()
    for alpha in alphas:
        new, old = optimizer._random_feasible_start(alpha, a), old_feasible_start(alpha, b)
        assert _bits(new) == _bits(old), alpha
        outcomes.add(new is None)
    assert outcomes == {False, True}
    assert a.bit_generator.state == b.bit_generator.state
