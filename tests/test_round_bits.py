"""Bit identity of the see-saw round on Python scalars against the object path.

``optimizer._reduced_best_response`` repeats the float operations of
``charlie_best_response(strategy_from_reduced(...))`` without building a
validated strategy: the Lüders roots, the channel sums and both eigenpairs on
real Python floats, around one stacked real ``@`` (OpenBLAS ``dgemm``) and the
norm's ``ddot``.  It returns what the round reads: Charlie's overlaps
``cvec[0]`` and ``cvec[2]`` and the witness; ``tests/test_channel_bits.py`` pins
the object path's projectors.  ``linalg._sqrt_psd_rows`` repeats the float
operations of ``matrix_sqrt_psd(tol=inf)`` on a stack, and
``linalg._max_eigvalue_rows`` those of ``max_eigenpair(tol=inf).value``.
Each is compared with its oracle by ``tobytes()`` and ``float.hex``, never by
tolerance: on seeded points, on the corners of the angle box, and on
``hypothesis`` draws that reach the box's edges and one ``nextafter`` beyond.
Both paths run in one process, and CI checks them under Haswell kernels.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqrac import optimizer
from seqrac.errors import DomainError
from seqrac.linalg import (
    _bloch_compose_rows,
    _max_eigvalue_rows,
    _sqrt_psd_rows,
    matrix_sqrt_psd,
    max_eigenpair,
)
from seqrac.optimizer import (
    HALF_PI,
    OptimizerConfig,
    ReducedParameters,
    _reduced_best_response,
    _seesaw_round,
    charlie_best_response,
    seesaw,
    strategy_from_reduced,
)

EDGES = (0.0, HALF_PI)


def _points() -> list[tuple[float, float, float]]:
    """2000 seeded reduced points, then every corner of the ``[0, pi/2]^3``
    box and each edge value on one axis with the others random: sharp
    (``phi = 0``) and near-trivial (``phi = pi/2``) Lüders roots, ``theta``
    at 0 and pi/2."""
    rng = np.random.default_rng(4101)
    points = [tuple(map(float, rng.uniform(0.0, HALF_PI, 3))) for _ in range(2000)]
    points += list(itertools.product(EDGES, repeat=3))
    for axis, edge in itertools.product(range(3), EDGES):
        p = list(map(float, rng.uniform(0.0, HALF_PI, 3)))
        p[axis] = edge
        points.append(tuple(p))
    return points


def _oracle(theta, phi0, phi1):
    partial = strategy_from_reduced(ReducedParameters(theta, phi0, phi1))
    return charlie_best_response(partial.preparations, partial.instruments)


def _same_as_object_path(point, got) -> bool:
    """``got = (q0, q1, value)`` equals, by ``float.hex``, the object path's ``cvec[0]`` of the
    first measurement, ``cvec[2]`` of the second and its witness at ``point``."""
    povms, value = _oracle(*point)
    want = (povms[0].cvec[0], povms[1].cvec[2], value)
    return tuple(map(float.hex, got)) == tuple(map(float.hex, want))


def test_reduced_best_response_equals_object_path():
    mismatched = [p for p in _points() if not _same_as_object_path(p, _reduced_best_response(*p))]
    assert mismatched == []


# The edges of [0, pi/2] and one nextafter on either side; ReducedParameters
# admits angles up to 1e-12 outside the box.
_EDGE_ANGLES = [a for e in EDGES for a in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
_ANGLES = st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(0.0, HALF_PI))


@settings(max_examples=1500, deadline=None)
@given(_ANGLES, _ANGLES, _ANGLES)
@example(0.0, 0.0, 0.0)  # sharp Lüders roots, collapsed preparations
@example(HALF_PI, HALF_PI, HALF_PI)  # near-trivial roots
@example(math.nextafter(0.0, 1.0), math.nextafter(HALF_PI, math.inf), math.nextafter(0.0, -1.0))
def test_scalar_best_response_equals_object_path(theta, phi0, phi1):
    point = (theta, phi0, phi1)
    assert _same_as_object_path(point, _reduced_best_response(*point))


def test_round_reads_charlie_overlaps_as_bloch_decompose():
    rng = np.random.default_rng(4102)
    for _ in range(40):
        alpha = float(rng.uniform(0.5, 0.85))
        start = optimizer._random_feasible_start(alpha, rng)
        if start is None:
            continue
        q = tuple(map(float, rng.uniform(-1.0, 1.0, 2)))
        [(angles, _, (q0, q1), after)] = _seesaw_round(alpha, [(*start, *q)])
        assert _same_as_object_path(angles, (q0, q1, after))


def _effects() -> np.ndarray:
    """Random PSD, rank-one, zero and Lüders effects as one C-contiguous stack."""
    rng = np.random.default_rng(4103)
    rows = []
    for _ in range(500):
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        eta = rng.uniform(0.0, 1.0)
        rows.append((0.5 * (1.0 + rng.uniform(-1.0, 1.0) * (1.0 - eta)), 0.5 * eta * c))
        rows.append((0.5, 0.5 * c))  # rank one
    rows += [(0.0, np.zeros(3)), (0.5, np.zeros(3)), (0.5, 0.5 * np.array([0.0, 0.0, -1.0]))]
    return _bloch_compose_rows(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))


def test_sqrt_psd_rows_equals_scalar_root():
    effects = _effects()
    roots = _sqrt_psd_rows(effects)
    assert roots.shape == effects.shape
    for e, root in zip(effects, roots):
        assert root.tobytes() == matrix_sqrt_psd(e, tol=np.inf).tobytes()


def test_max_eigvalue_rows_equals_scalar_eigenvalue():
    # on the effects, and on sandwiches root @ op @ root as the checks suites build them
    effects = _effects()
    ops = _bloch_compose_rows(0.0, np.random.default_rng(4104).normal(size=(len(effects), 3)))
    for stack in (effects, _sqrt_psd_rows(effects) @ ops @ _sqrt_psd_rows(effects)):
        values = _max_eigvalue_rows(stack)
        assert values.shape == (len(stack),)
        for m, value in zip(stack, values):
            assert value.tobytes() == np.float64(max_eigenpair(m, tol=np.inf).value).tobytes()


def test_sqrt_psd_rows_rejects_non_finite():
    effects = _effects()[:3].copy()
    effects[1, 0, 1] = np.nan
    with pytest.raises(DomainError):
        _sqrt_psd_rows(effects)


def test_max_eigvalue_rows_rejects_non_finite():
    effects = _effects()[:3].copy()
    effects[2, 1, 1] = np.inf
    with pytest.raises(DomainError):
        _max_eigvalue_rows(effects)


def test_seesaw_builds_the_winner_only(monkeypatch):
    calls = {"strategy_from_reduced": 0, "charlie_best_response": 0}
    for name in calls:
        original = getattr(optimizer, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(optimizer, name, counted)
    seesaw(0.75, OptimizerConfig(rng_seed=5))
    assert calls == {"strategy_from_reduced": 1, "charlie_best_response": 1}
