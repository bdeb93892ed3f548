"""Bit identity of the coordinate ascent against frozen copies of its earlier bodies.

``optimizer._ascend`` runs its starts as lanes in lockstep and stops a lane at
the first step that leaves its angle unchanged, where the next line search
would repeat the last; Brent's step and the scalar formula's clamp are written
with conditionals.  None of this may move a bit, so the ascent is compared by
``float.hex`` with the loop as it was before, which scanned on every sweep, and
with the single-lane ascent that kept its last search of each angle, whose
Brent calls it must match one for one.  The frozen copies call the live
``_charlie_value``, ``_charlie_values`` and ``minimize_scalar``: those have
their own pins (``TestScalarFormulaOracle``, ``TestAxisTable``,
``TestMinimizeScalar``).  The first copy's final value and ``phi0`` come from
the frozen scalar formula, ``conftest.frozen_fixed_charlie_value``.  A lane
among others is compared with the same start run alone.
"""

import itertools
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
    """``_ascend`` as written before it skipped repeated line searches."""
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


def _frozen_search(xs, row, objective):
    i = int(row.argmax())
    if not math.isfinite(row[i]):
        return 0.0, -math.inf
    lo, hi = float(xs[max(0, i - 1)]), float(xs[min(len(xs) - 1, i + 1)])
    t, ft = optimizer.minimize_scalar(objective, lo, hi, 1e-14)
    return (t, -ft) if -ft > row[i] else (float(xs[i]), float(row[i]))


def _frozen_cached_ascend(alpha, theta, phi1, q0, q1, resolution):
    """``_ascend`` when it ran one start and kept the last search of each angle,
    keyed by the fixed angle's bits, in place of its stop at an unchanged angle."""
    xs, c2_x, s2_x, cos_x, sin1_x = _axis_table(resolution)
    k = 8.0 * alpha - 4.0
    value_at = optimizer._charlie_value
    theta_search = phi1_search = (None, None)
    for _ in range(REFINEMENT_ITERATIONS):
        cos_phi1, sin1_phi1 = math.cos(phi1), 1.0 + math.sin(phi1)

        def along_theta(t):
            c2, s2 = 2.0 * math.cos(0.5 * t), 2.0 * math.sin(0.5 * t)
            return -value_at(k, c2, s2, cos_phi1, sin1_phi1, q0, q1)[0]

        here = -along_theta(theta)
        if theta_search[0] != phi1.hex():
            row = _charlie_values(alpha, c2_x, s2_x, cos_phi1, sin1_phi1, q0, q1)
            theta_search = (phi1.hex(), _frozen_search(xs, row, along_theta))
        moved = theta_search[1][0] if theta_search[1][1] > here else theta
        start = here if moved == theta else -along_theta(moved)
        theta = moved
        if phi1_search[0] != theta.hex():
            c2, s2 = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
            row = _charlie_values(alpha, c2, s2, cos_x, sin1_x, q0, q1)

            def along_phi1(t):
                return -value_at(k, c2, s2, math.cos(t), 1.0 + math.sin(t), q0, q1)[0]

            phi1_search = (theta.hex(), _frozen_search(xs, row, along_phi1))
        phi1, value = phi1_search[1] if phi1_search[1][1] > start else (phi1, start)
        if value <= here + 1e-15:
            break
    c2, s2 = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
    value, phi0 = value_at(k, c2, s2, math.cos(phi1), 1.0 + math.sin(phi1), q0, q1)
    return value, theta, phi0, phi1


def _alone(alpha, theta, phi1, q0, q1, resolution):
    """``_ascend`` on one lane, with ``_frozen_ascend``'s call shape."""
    [out] = optimizer._ascend(alpha, [(theta, phi1, q0, q1)], resolution)
    return out


def _hex(values):
    return tuple(None if v is None else float(v).hex() for v in values)


def _on_edge(alpha, theta, phi1, edge, offset):
    """``alpha`` moved so that the requirement on ``cos(phi0)`` at ``(theta, phi1)`` lands
    near an edge of the feasible window [-1e-9, 1 + 1e-9] or of the clip to [0, 1]."""
    if edge is None:
        return alpha
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return ((edge + offset) * 2.0 * c + 4.0 + 2.0 * s * math.cos(phi1)) / 8.0


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
    alpha = _on_edge(alpha, theta, phi1, edge, offset)
    expected = _frozen_ascend(alpha, theta, phi1, q0, q1, resolution)
    got = _alone(alpha, theta, phi1, q0, q1, resolution)
    assert _hex(got) == _hex(expected)


_LANES = st.lists(st.tuples(_ANGLES, _ANGLES, _OVERLAPS, _OVERLAPS), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.45, 0.9), _LANES, st.lists(st.integers(0, 5), max_size=3), st.sampled_from([513, 1025]),
    st.sampled_from([None, -1e-9, 0.0, 1.0, 1.0 + 1e-9]), st.floats(-1e-9, 1e-9),
)
@example(0.75, [(0.3, 0.4, 1.0, 1.0), (1.2, 0.1, 0.5, -0.25)], [0], 513, None, 0.0)
@example(W_AB_MAX, [(0.0, 0.0, 1.0, 1.0), (HALF_PI, HALF_PI, -1.0, 1.0)], [], 1025, None, 0.0)
@example(0.9, [(0.3, 0.4, 1.0, 1.0), (0.3, 0.4, 0.5, 0.5)], [1, 1], 513, None, 0.0)  # no feasible cell
@example(0.75, [(0.3, 0.4, 0.5, -0.25), (0.3, 0.4, 1.0, 1.0)], [], 513, 1.0 + 1e-9, 1e-10)
def test_each_lane_equals_its_ascent_alone(alpha, lanes, repeats, resolution, edge, offset):
    # Unit and non-unit overlaps, duplicate lanes, and the first lane's start near
    # an edge of the feasible window or of the clip, with the level moved to put it there.
    alpha = _on_edge(alpha, *lanes[0][:2], edge, offset)
    lanes = lanes + [lanes[i % len(lanes)] for i in repeats]
    got = optimizer._ascend(alpha, lanes, resolution)
    assert [_hex(out) for out in got] == [_hex(_alone(alpha, *lane, resolution)) for lane in lanes]


def test_lanes_that_stop_at_different_sweeps(monkeypatch):
    # Seeded see-saw starts as lanes; one _along_theta per running lane and sweep counts the sweeps.
    rng = np.random.default_rng(5102)
    alpha = 0.7
    lanes = [(*optimizer._random_feasible_start(alpha, rng), *map(float, rng.uniform(-1.0, 1.0, 2)))
             for _ in range(12)]
    lanes += [(0.3, 0.4, 1.0, 1.0), lanes[3]]
    sweeps = []
    along_theta = optimizer._along_theta

    def counted(*args):
        sweeps[-1] += 1
        return along_theta(*args)

    monkeypatch.setattr(optimizer, "_along_theta", counted)
    alone = []
    for lane in lanes:
        sweeps.append(0)
        alone.append(_alone(alpha, *lane, 513))
    assert len(set(sweeps)) > 1
    sweeps.append(0)
    got = optimizer._ascend(alpha, lanes, 513)
    assert sweeps.pop() == sum(sweeps)
    assert [_hex(out) for out in got] == [_hex(out) for out in alone]


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
        for ascend, searches in ((_frozen_ascend, frozen), (_alone, live)):
            calls.clear()
            ascend(alpha, theta, phi1, 1.0, 1.0, 513)
            searches.append(len(calls))
    assert all(n_live <= n_frozen for n_live, n_frozen in zip(live, frozen))
    assert sum(live) < sum(frozen)


def test_ascend_equals_the_cached_ascent_search_for_search(monkeypatch):
    # Seeded starts over edge and inner angles, unit and non-unit overlaps, and both row
    # lengths: equal outputs, and the same Brent brackets in the same order.
    calls = []
    brent = optimizer.minimize_scalar

    def counted(*args):
        calls.append(args[1:])
        return brent(*args)

    monkeypatch.setattr(optimizer, "minimize_scalar", counted)
    rng = np.random.default_rng(5103)
    total = 0
    for edges in itertools.product([0.0, HALF_PI, None], [0.0, HALF_PI, None], [True, False], [513, 1025]):
        for _ in range(5):
            alpha = float(rng.uniform(0.5, W_AB_MAX))
            theta, phi1 = (float(rng.uniform(0.0, HALF_PI)) if a is None else a for a in edges[:2])
            q0, q1 = (1.0, 1.0) if edges[2] else (float(q) for q in rng.uniform(-1.0, 1.0, 2))
            start = (alpha, theta, phi1, q0, q1, edges[3])
            calls.clear()
            expected = _frozen_cached_ascend(*start)
            cached = list(calls)
            calls.clear()
            assert _hex(_alone(*start)) == _hex(expected), start
            assert calls == cached, start
            total += len(calls)
    assert total > 0
