"""Bit identity of the coordinate ascent against a frozen copy of its earlier body.

``optimizer._ascend`` keeps the last line search of each angle and replays it
while the fixed angle's bits stay the same; Brent's step and the scalar
formula's clamp are written with conditionals.  None of this may move a bit,
so the ascent is compared with the loop as it was before, which scanned on
every sweep, by ``float.hex``.  The frozen copy calls the live
``_charlie_value``, ``_charlie_values`` and ``minimize_scalar``: those have
their own pins (``TestScalarFormulaOracle``, ``TestAxisTable``,
``TestMinimizeScalar``).  Its final value and ``phi0`` come from the frozen
scalar formula, ``conftest.frozen_fixed_charlie_value``.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqrac import optimizer
from seqrac.analytics import W_AB_MAX
from seqrac.optimizer import HALF_PI, REFINEMENT_ITERATIONS, _axis_table, _charlie_values
from conftest import frozen_fixed_charlie_value


def _frozen_scan_coordinate(xs, row, objective, x, here):
    i = int(np.argmax(row))
    if not np.isfinite(row[i]):
        return x, here
    best_x, best_v = float(xs[i]), float(row[i])
    lo, hi = float(xs[max(0, i - 1)]), float(xs[min(len(xs) - 1, i + 1)])
    t, ft = optimizer.minimize_scalar(objective, lo, hi, 1e-14)
    if -ft > best_v:
        best_x, best_v = t, -ft
    if best_v > here:
        return best_x, best_v
    return x, here


def _frozen_ascend(alpha, theta, phi1, q0, q1, resolution):
    """``_ascend`` as written before it kept its line searches."""
    xs, c2_x, s2_x, cos_x, sin1_x = _axis_table(resolution)
    k = 8.0 * alpha - 4.0
    for _ in range(REFINEMENT_ITERATIONS):
        cos_phi1, sin1_phi1 = math.cos(phi1), 1.0 + math.sin(phi1)
        row = _charlie_values(alpha, c2_x, s2_x, cos_phi1, sin1_phi1, q0, q1)

        def along_theta(t):
            c2, s2 = 2.0 * math.cos(0.5 * t), 2.0 * math.sin(0.5 * t)
            return -optimizer._charlie_value(k, c2, s2, cos_phi1, sin1_phi1, q0, q1)[0]

        here = -along_theta(theta)
        moved, _ = _frozen_scan_coordinate(xs, row, along_theta, theta, here)
        start = here if moved == theta else -along_theta(moved)
        theta = moved
        c2, s2 = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
        row = _charlie_values(alpha, c2, s2, cos_x, sin1_x, q0, q1)

        def along_phi1(t):
            return -optimizer._charlie_value(k, c2, s2, math.cos(t), 1.0 + math.sin(t), q0, q1)[0]

        phi1, value = _frozen_scan_coordinate(xs, row, along_phi1, phi1, start)
        if value <= here + 1e-15:
            break
    value, phi0 = frozen_fixed_charlie_value(alpha, theta, phi1, q0, q1)
    return value, theta, phi0, phi1


def _hex(values):
    return tuple(None if v is None else float(v).hex() for v in values)


_ANGLES = st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI))
_OVERLAPS = st.one_of(st.just(1.0), st.floats(-1.0, 1.0))


@settings(max_examples=600, deadline=None)
@given(
    st.floats(0.45, 0.9), _ANGLES, _ANGLES, _OVERLAPS, _OVERLAPS, st.sampled_from([513, 1025]),
    st.sampled_from([None, -1e-9, 0.0, 1.0, 1.0 + 1e-9]), st.floats(-1e-9, 1e-9),
)
@example(0.75, 0.3, 0.4, 1.0, 1.0, 1025, None, 0.0)  # the boundary objective at the reference level
@example(W_AB_MAX, 0.0, 0.0, 1.0, 1.0, 1025, None, 0.0)  # the top of the curve, a one-point window
@example(0.9, 0.3, 0.4, 1.0, 1.0, 513, None, 0.0)  # beyond the curve: no feasible cell
@example(0.75, 0.3, 0.4, 0.5, -0.25, 513, 1.0 + 1e-9, 1e-10)  # a start just outside the window
def test_ascend_equals_frozen_loop(alpha, theta, phi1, q0, q1, resolution, edge, offset):
    if edge is not None:
        # Move alpha so that the start's requirement on cos(phi0) lands near an
        # edge of the feasible window [-1e-9, 1 + 1e-9] or of the clip to [0, 1].
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        alpha = ((edge + offset) * 2.0 * c + 4.0 + 2.0 * s * math.cos(phi1)) / 8.0
    expected = _frozen_ascend(alpha, theta, phi1, q0, q1, resolution)
    got = optimizer._ascend(alpha, theta, phi1, q0, q1, resolution)
    assert _hex(got) == _hex(expected)


def test_an_unchanged_angle_replays_its_search(monkeypatch):
    calls = []
    brent = optimizer.minimize_scalar

    def counted(*args):
        calls.append(args[1:])
        return brent(*args)

    monkeypatch.setattr(optimizer, "minimize_scalar", counted)
    frozen, live = [], []
    rng = np.random.default_rng(5101)
    for _ in range(40):
        alpha = float(rng.uniform(0.5, W_AB_MAX))
        theta, phi1 = optimizer._random_feasible_start(alpha, rng)
        for ascend, searches in ((_frozen_ascend, frozen), (optimizer._ascend, live)):
            calls.clear()
            ascend(alpha, theta, phi1, 1.0, 1.0, 513)
            searches.append(len(calls))
    assert all(n_live <= n_frozen for n_live, n_frozen in zip(live, frozen))
    assert sum(live) < sum(frozen)
