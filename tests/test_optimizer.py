"""Best responses, boundary tracing, see-saw, enumeration, inequalities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

from seqrac import (
    OptimizerConfig,
    ReducedParameters,
    Strategy,
    canonical_strategy,
    charlie_best_response,
    classical_bruteforce,
    in_quantum_set,
    reduced_objective,
    sandwich_eigenvalue_closed_form,
    sandwich_eigenvalue_sum_bound,
    seesaw,
    strategy_from_reduced,
    trace_boundary,
    witness_ab,
    witness_ac,
    witness_pair,
)
from seqrac.analytics import W_AB_MAX
from seqrac.errors import ConvergenceFailure, DomainError, InequalityViolation, InvalidPovm, NotPsd
from seqrac.linalg import (
    ID2,
    BinaryPovm,
    bloch_compose,
    matrix_sqrt_psd,
    max_eigenpair,
    projective_povm,
    state_from_bloch,
    validate_povm,
)
from seqrac import optimizer
from seqrac.optimizer import (
    TRIG_GRID_MAX,
    _axis_table,
    _charlie_value,
    _charlie_values,
    _classical_hits,
    _grid_argmax,
    _integer_hull,
    minimize_scalar,
    trig_grid_max,
)
from seqrac.sampling import random_povm, random_strategy, random_unit_vector
from seqrac.scenario import PreparationEnsemble, WitnessPair
from seqrac.strategies import (
    X_AXIS,
    Z_AXIS,
    enumerate_classical_strategies,
    witness_pair_classical,
)
from conftest import frozen_fixed_charlie_value, frozen_sandwich_max, hexes

SQRT2 = np.sqrt(2.0)
HALF_PI = np.pi / 2


def _charlie_value_at(alpha, theta, phi1, q0=1.0, q1=1.0):
    """``_charlie_value`` on the factors its callers compute from the angles."""
    c2, s2 = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
    return _charlie_value(8.0 * alpha - 4.0, c2, s2, math.cos(phi1), 1.0 + math.sin(phi1), q0, q1)


class TestCharlieBestResponse:
    def test_canonical_recovers_reference_axes(self):
        strategy = canonical_strategy(0.7)
        povms, value = charlie_best_response(
            strategy.preparations, strategy.instruments
        )
        np.testing.assert_allclose(povms[0].cvec, [1.0, 0.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(povms[1].cvec, [0.0, 0.0, 1.0], atol=1e-10)
        assert value == pytest.approx(witness_ac(strategy), abs=1e-12)

    def test_tie_break_on_mixed_preparations(self, rng):
        strategy = random_strategy(rng)
        mixed = PreparationEnsemble(tuple(state_from_bloch([0, 0, 0]) for _ in range(4)))
        povms, value = charlie_best_response(mixed, strategy.instruments)
        assert value == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(povms[0].cvec, [0.0, 0.0, 1.0], atol=1e-12)

    def test_dominates_original_and_random_povms(self, rng):
        for _ in range(1000):
            strategy = random_strategy(rng)
            povms, value = charlie_best_response(
                strategy.preparations, strategy.instruments
            )
            assert value >= witness_ac(strategy) - 1e-12
            replaced = Strategy(strategy.preparations, strategy.instruments, povms)
            assert witness_ac(replaced) == pytest.approx(value, abs=1e-12)
            for _ in range(10):
                rival = Strategy(
                    strategy.preparations,
                    strategy.instruments,
                    (random_povm(rng), random_povm(rng)),
                )
                assert witness_ac(rival) <= value + 1e-12


class TestReducedForms:
    """The reduced family's witnesses and the ``phi0`` elimination against the
    2x2 density-matrix path, ``witness_ab(strategy_from_reduced(r))``."""

    def test_sharp_corner(self):
        r = ReducedParameters(HALF_PI, 0.0, 0.0)
        assert reduced_objective(r) == pytest.approx(0.5 + SQRT2 / 8, abs=1e-12)
        assert witness_ab(strategy_from_reduced(r)) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)

    def test_noninteracting_corner(self):
        r = ReducedParameters(HALF_PI, HALF_PI, HALF_PI)
        assert reduced_objective(r) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert witness_ab(strategy_from_reduced(r)) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_square(self):
        # collapsed preparations: w_ab is (2 + cos(phi))/4, at most 3/4
        for phi in np.linspace(0.0, HALF_PI, 11):
            w_ab = witness_ab(strategy_from_reduced(ReducedParameters(0.0, phi, phi)))
            assert w_ab == pytest.approx((2 + np.cos(phi)) / 4, abs=1e-12)
            assert w_ab <= 0.75 + 1e-12

    def test_explicit_strategy_realizes_both_functionals(self, rng):
        for _ in range(50):
            r = ReducedParameters(
                rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI)
            )
            strategy = strategy_from_reduced(r)
            pair = witness_pair(strategy)
            # The elimination at the strategy's own level gives back its phi0.
            _, phi0 = _charlie_value_at(pair.w_ab, r.theta, r.phi1)
            assert math.cos(phi0) == pytest.approx(math.cos(r.phi0), abs=1e-12)
            _, best = charlie_best_response(strategy.preparations, strategy.instruments)
            assert best == pytest.approx(reduced_objective(r), abs=1e-12)

    def test_phi0_elimination_is_exact(self, rng):
        for _ in range(200):
            theta = rng.uniform(0, HALF_PI)
            phi1 = rng.uniform(0, HALF_PI)
            alpha = rng.uniform(0.5, W_AB_MAX)
            _, phi0 = _charlie_value_at(alpha, theta, phi1)
            if phi0 is None:
                continue
            r = ReducedParameters(theta, phi0, phi1)
            assert witness_ab(strategy_from_reduced(r)) == pytest.approx(alpha, abs=1e-12)


class TestMinimizeScalar:
    """The plain-float bounded search against scipy's, compared with ``==``."""

    @staticmethod
    def _objective(rng):
        a, c, b, w, p, d = rng.uniform(-2.0, 2.0, 6).tolist()
        w *= 5.0
        return lambda x: a * (x - c) ** 2 + b * math.sin(w * x + p) + d * x * x * x

    @pytest.mark.parametrize("xatol", [1e-14, 1e-8, 1e-5])
    def test_matches_scipy_bit_for_bit(self, xatol):
        rng = np.random.default_rng([20250809, int(-math.log10(xatol))])
        for k in range(600):
            f = self._objective(rng)
            lo = float(rng.uniform(-3.0, 3.0))
            width = 10.0 ** rng.uniform(-9.0, 0.5) if k % 3 else 10.0 ** rng.uniform(-9.0, -6.0)
            hi = lo + float(width)
            expected = scipy_minimize_scalar(
                f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
            )
            x, fx = minimize_scalar(f, lo, hi, xatol)
            assert (x, fx) == (float(expected.x), float(expected.fun)), (k, lo, hi)

    def test_matches_scipy_on_the_seesaw_objective(self, rng):
        for _ in range(300):
            alpha = float(rng.uniform(0.5, W_AB_MAX))
            theta = float(rng.uniform(0.0, HALF_PI))
            q0, q1 = (float(q) for q in rng.uniform(-1.0, 1.0, 2))

            def f(t):
                return -_charlie_value_at(alpha, theta, t, q0, q1)[0]

            lo = float(rng.uniform(0.0, HALF_PI - 0.01))
            hi = lo + HALF_PI / 512
            expected = scipy_minimize_scalar(
                f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-14}
            )
            assert minimize_scalar(f, lo, hi, 1e-14) == (float(expected.x), float(expected.fun))

    @pytest.mark.parametrize("f, lo, hi, xatol", [
        (abs, -1.0, 2.0, 0.0),  # never converges: stops at the 500-evaluation cap
        (lambda x: x * x, -1.0, 2.0, 0.0),
        (lambda x: float(x > 0.3), 0.0, 1.0, 1e-14),  # a step, not smooth
        (math.cos, 2.0, 2.0, 1e-8),  # empty bracket
        (math.cos, 0.0, 1.0, math.inf),  # no tolerance: stops at the first golden-section point
    ])
    def test_matches_scipy_on_edge_cases(self, f, lo, hi, xatol):
        expected = scipy_minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        assert minimize_scalar(f, lo, hi, xatol) == (float(expected.x), float(expected.fun))

    def test_rejects_bad_bounds(self):
        for lo, hi in ((1.0, 0.0), (np.nan, 1.0), (0.0, np.inf)):
            with pytest.raises(DomainError):
                minimize_scalar(abs, lo, hi, 1e-8)

    @pytest.mark.parametrize("xatol", [np.nan, -1e-8, -np.inf, "a", None, True])
    def test_rejects_bad_xatol(self, xatol):
        # a NaN makes the loop test false at once, so the search would return its first point
        with pytest.raises(DomainError, match="xatol"):
            minimize_scalar(lambda x: x, 0.0, 1.0, xatol)


class TestTraceBoundary:
    def test_reference_levels(self):
        for alpha, expected in [
            (0.75, (5 + SQRT2) / 8),
            (0.5, (2 + SQRT2) / 4),
            (W_AB_MAX, (4 + SQRT2) / 8),
        ]:
            point = trace_boundary([alpha])[0]
            assert point.wac == pytest.approx(expected, abs=1e-6)

    def test_argmax_has_lemma_structure(self):
        for alpha in (0.55, 0.7, 0.8, W_AB_MAX):
            point = trace_boundary([alpha])[0]
            assert abs(point.params.theta - HALF_PI) <= 1e-4
            assert abs(point.params.phi0 - point.params.phi1) <= 1e-4

    def test_rejects_out_of_domain(self):
        for alpha in (0.4, 0.9, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                trace_boundary([alpha])

    # A string or bytes iterates, but over characters or byte values, not levels.
    @pytest.mark.parametrize(
        "alphas", [0.75, None, np.float64(0.75), np.array(0.75), "0.75", b"0.75"]
    )
    def test_rejects_levels_that_are_not_iterable(self, alphas):
        with pytest.raises(DomainError, match="alphas must be a sequence of levels"):
            trace_boundary(alphas)

    @pytest.mark.parametrize(
        "stub, message",
        [
            ("_grid_argmax", "no feasible grid point"),
            ("_ascend", "refinement left the feasible set"),
            ("reduced_objective", "refinement stalled"),
        ],
    )
    def test_each_convergence_failure_names_alpha(self, monkeypatch, stub, message):
        fake = {
            "_grid_argmax": lambda alpha, resolution: (-math.inf, 0.0, 0.0),
            "_ascend": lambda alpha, theta, phi1, q0, q1, resolution: (-1.0, theta, None, phi1),
            "reduced_objective": lambda r: 0.0,
        }
        monkeypatch.setattr(optimizer, stub, fake[stub])
        with pytest.raises(ConvergenceFailure, match=rf"{message} at alpha = 0\.75\b"):
            trace_boundary([0.75])


def _meshgrid_charlie_values(alpha, theta, phi1, q0, q1):
    """The vectorised fixed-measurement value as written before the axis
    table: every cosine and sine taken on the full argument arrays."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    required = (8.0 * alpha - 4.0 - 2.0 * s * np.cos(phi1)) / (2.0 * c)
    feasible = (required >= -1e-9) & (required <= 1.0 + 1e-9)
    sin_phi0 = np.sqrt(1.0 - np.clip(required, 0.0, 1.0) ** 2)
    values = 0.5 + (
        2.0 * c * (1.0 + np.sin(phi1)) * q0 + 2.0 * s * (1.0 + sin_phi0) * q1
    ) / 16.0
    return np.where(feasible, values, -np.inf)


def _meshgrid_argmax(alpha, resolution):
    axis = np.linspace(0.0, HALF_PI, resolution)
    tt, pp = np.meshgrid(axis, axis, indexing="ij")
    obj = _meshgrid_charlie_values(alpha, tt, pp, 1.0, 1.0)
    i, j = np.unravel_index(int(np.argmax(obj)), obj.shape)
    return float(obj[i, j]), float(tt[i, j]), float(pp[i, j])


_OVERLAPS = st.one_of(st.just(1.0), st.floats(-1.0, 1.0))


class TestAxisTable:
    """The hoisted axis trigonometry against the per-call formulation, by ``==``."""

    LEVELS = np.linspace(0.5, W_AB_MAX, 10)

    @pytest.mark.parametrize("resolution", [1, 2, 3, 64, 511, 512, 1024])
    def test_grid_argmax_matches_meshgrid(self, resolution):
        # 3, 511 and 1024 do not divide the 32768-cell slabs of _grid_argmax.
        for alpha in self.LEVELS:
            assert _grid_argmax(float(alpha), resolution) == _meshgrid_argmax(float(alpha), resolution)

    def test_grid_argmax_without_a_feasible_cell(self):
        # alpha = 0.9 lies beyond the curve's domain, so every cell is infeasible.
        assert _grid_argmax(0.9, 512) == _meshgrid_argmax(0.9, 512) == (-np.inf, 0.0, 0.0)

    @pytest.mark.parametrize("resolution", [513, 1025])
    def test_scan_rows_match_per_call_trigonometry(self, resolution, rng):
        xs, c2, s2, cos_x, sin1_x = _axis_table(resolution)
        for n in range(200):
            alpha = float(rng.uniform(0.5, W_AB_MAX))
            theta, phi1 = (float(v) for v in rng.uniform(0.0, HALF_PI, 2))
            q0, q1 = (float(q) for q in rng.uniform(-1.0, 1.0, 2))
            if n % 4 == 0:
                q0, q1 = 1.0, 1.0  # unit overlaps skip their products
            # The fixed angle's factors as _ascend takes them, with math.
            c2_t, s2_t = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
            rows = (
                (_charlie_values(alpha, c2, s2, math.cos(phi1), 1.0 + math.sin(phi1), q0, q1),
                 _meshgrid_charlie_values(alpha, xs, phi1, q0, q1)),
                (_charlie_values(alpha, c2_t, s2_t, cos_x, sin1_x, q0, q1),
                 _meshgrid_charlie_values(alpha, theta, xs, q0, q1)),
            )
            for new, old in rows:
                assert new.tobytes() == old.tobytes()

    @staticmethod
    def _alpha_on(edge, c2, s2, cos_phi1):
        """The smallest level whose requirement on ``cos(phi0)`` at one cell, computed as
        the row computes it, is at least ``edge``: equal to it wherever a level reaches it."""
        def required(alpha):
            return (8.0 * alpha - 4.0 - s2 * cos_phi1) / c2

        alpha = (edge * c2 + 4.0 + s2 * cos_phi1) / 8.0
        while required(alpha) < edge:
            alpha = math.nextafter(alpha, math.inf)
        while required(math.nextafter(alpha, -math.inf)) >= edge:
            alpha = math.nextafter(alpha, -math.inf)
        return alpha

    @pytest.mark.parametrize("edge", [-1e-9, 0.0, 1.0, 1.0 + 1e-9])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    @pytest.mark.parametrize("along", ["theta", "phi1"])
    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI)),
        st.integers(0, 1024), st.sampled_from([513, 1025]), _OVERLAPS, _OVERLAPS,
    )
    @example(0.3, 200, 513, 1.0, 1.0)
    @example(1.2, 700, 1025, 0.5, -0.25)
    @example(0.0, 0, 513, 1.0, 1.0)  # theta = 0 on the phi1 row, the first cell on the theta row
    @example(HALF_PI, 1024, 1025, -1.0, 1.0)
    def test_rows_match_at_window_and_clip_edges(self, edge, step, along, angle, cell, resolution, q0, q1):
        # The level puts one cell's requirement on an edge of the feasible window
        # [-1e-9, 1 + 1e-9] or of the clip to [0, 1], then one nextafter below or above.
        xs, c2_x, s2_x, cos_x, sin1_x = _axis_table(resolution)
        j = cell % resolution
        if along == "theta":  # phi1 = angle fixed, theta runs along the row
            cos_phi1, sin1_phi1 = math.cos(angle), 1.0 + math.sin(angle)
            alpha = self._alpha_on(edge, float(c2_x[j]), float(s2_x[j]), cos_phi1)
        else:  # theta = angle fixed
            c2, s2 = 2.0 * math.cos(0.5 * angle), 2.0 * math.sin(0.5 * angle)
            alpha = self._alpha_on(edge, c2, s2, float(cos_x[j]))
        alpha = math.nextafter(alpha, step * math.inf) if step else alpha
        if along == "theta":
            new = _charlie_values(alpha, c2_x, s2_x, cos_phi1, sin1_phi1, q0, q1)
            old = _meshgrid_charlie_values(alpha, xs, angle, q0, q1)
        else:
            new = _charlie_values(alpha, c2, s2, cos_x, sin1_x, q0, q1)
            old = _meshgrid_charlie_values(alpha, angle, xs, q0, q1)
        assert new.tobytes() == old.tobytes()

    def test_arrays_are_read_only(self):
        table = _axis_table(513)
        xs = np.linspace(0.0, HALF_PI, 513)
        half = 0.5 * xs
        expected = (xs, 2.0 * np.cos(half), 2.0 * np.sin(half), np.cos(xs), 1.0 + np.sin(xs))
        assert [a.tobytes() for a in table] == [e.tobytes() for e in expected]
        for a in table:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def _hex_or_none(x):
    return None if x is None else x.hex()


class TestScalarFormulaOracle:
    """``_charlie_value``, on the factors its callers compute, against the frozen
    scalar formula, by ``float.hex``."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(0.4, 0.9), st.floats(0.0, HALF_PI), st.floats(0.0, HALF_PI), _OVERLAPS, _OVERLAPS,
        st.sampled_from([None, -1e-9, 0.0, 1.0, 1.0 + 1e-9]), st.floats(-1e-9, 1e-9),
    )
    @example(0.75, 0.3, 0.4, 1.0, 1.0, None, 0.0)  # inside the window
    @example(0.75, 0.3, 0.4, 1.0, 1.0, 1.0 + 1e-9, 1e-10)  # just outside it
    @example(0.75, 0.3, 0.4, 0.5, -0.25, -1e-9, -1e-10)
    def test_equal_frozen_formula(self, alpha, theta, phi1, q0, q1, edge, offset):
        if edge is not None:
            # Move alpha so that the requirement on cos(phi0) lands near an edge
            # of the feasible window [-1e-9, 1 + 1e-9] or of the clip to [0, 1].
            c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
            alpha = ((edge + offset) * 2.0 * c + 4.0 + 2.0 * s * math.cos(phi1)) / 8.0
        value, phi0 = frozen_fixed_charlie_value(alpha, theta, phi1, q0, q1)
        got_value, got_phi0 = _charlie_value_at(alpha, theta, phi1, q0, q1)
        assert got_value.hex() == value.hex()
        assert _hex_or_none(got_phi0) == _hex_or_none(phi0)


def _memo_free_seesaw(alpha, cfg):
    """``seesaw`` with every round run in full, as before the round memo."""
    _, grid_theta, grid_phi1 = _grid_argmax(alpha, 64)
    runs, best = [], None
    for restart in range(optimizer.SEESAW_RESTARTS):
        rng = np.random.default_rng([cfg.rng_seed, restart])
        if restart == 0:
            theta, phi1 = grid_theta, grid_phi1
            charlie = (projective_povm(X_AXIS), projective_povm(Z_AXIS))
        else:
            start = optimizer._random_feasible_start(alpha, rng)
            charlie = (
                projective_povm(random_unit_vector(rng)),
                projective_povm(random_unit_vector(rng)),
            )
            theta, phi1 = start if start is not None else (grid_theta, grid_phi1)
        steps, value = [], -np.inf
        for _ in range(200):
            q0 = float(charlie[0].cvec[0])
            q1 = float(charlie[1].cvec[2])
            before, theta, phi0, phi1 = optimizer._ascend(alpha, theta, phi1, q0, q1, 513)
            params = ReducedParameters(theta, phi0, phi1)
            partial = strategy_from_reduced(params)
            charlie, after = charlie_best_response(partial.preparations, partial.instruments)
            steps.append((before, after))
            converged = after - value < optimizer.CONVERGENCE_EPSILON
            value = after
            if converged:
                break
        runs.append((steps, value))
        if best is None or value > best[0]:
            best = (value, params, charlie)
    partial = strategy_from_reduced(best[1])
    strategy = Strategy(partial.preparations, partial.instruments, best[2])
    return runs, best[1], witness_pair(strategy)


class TestSeesawRoundMemo:
    """Replaying repeated rounds within a call changes no bit of the result."""

    DRAWS = [
        (float(a), int(s))
        for a, s in zip(
            np.random.default_rng(61).uniform(0.5, W_AB_MAX, 8),
            np.random.default_rng(62).integers(0, 2**32, 8),
        )
    ]

    @pytest.mark.parametrize("alpha, rng_seed", DRAWS)
    def test_matches_memo_free_loop(self, alpha, rng_seed, monkeypatch):
        cfg = OptimizerConfig(rng_seed=rng_seed)
        runs, params, pair = _memo_free_seesaw(alpha, cfg)
        rounds_run = []
        full_round = optimizer._seesaw_round

        def counted(*args):
            rounds_run.append(args)
            return full_round(*args)

        monkeypatch.setattr(optimizer, "_seesaw_round", counted)
        result = seesaw(alpha, cfg)
        assert [[hexes(*step) for step in run.charlie_steps] for run in result.runs] == [
            [hexes(*step) for step in steps] for steps, _ in runs
        ]
        assert [hexes(run.final_wac) for run in result.runs] == [hexes(v) for _, v in runs]
        assert hexes(result.params.theta, result.params.phi0, result.params.phi1) == hexes(
            params.theta, params.phi0, params.phi1
        )
        assert hexes(*result.pair) == hexes(*pair)
        # Restarts share rounds, so fewer rounds run than steps are recorded.
        assert len(rounds_run) < sum(len(steps) for steps, _ in runs)


class TestSeesaw:
    def test_rejects_out_of_domain(self):
        for alpha in (0.4, 0.9, np.nan, np.inf):
            with pytest.raises(DomainError):
                seesaw(alpha)

    @pytest.mark.parametrize("cfg", [0, 5, 0.0, False, "", {"rng_seed": 5}])
    def test_rejects_a_cfg_that_is_not_an_optimizer_config(self, cfg):
        # 0, False and "" are falsy: none may stand for the default seed.
        with pytest.raises(DomainError):
            seesaw(0.75, cfg)

    def test_reaches_boundary_at_reference_level(self):
        result = seesaw(0.75)
        assert 0.80077 <= result.pair.w_ac <= 0.801778
        assert result.pair.w_ab == pytest.approx(0.75, abs=1e-8)

    def test_sharp_level_forces_sharp_instruments(self):
        result = seesaw(W_AB_MAX)
        for inst in result.strategy.instruments:
            assert inst.povm.sharpness == pytest.approx(1.0, abs=1e-3)

    def test_trivial_level(self):
        result = seesaw(0.5)
        assert result.pair.w_ac >= (2 + SQRT2) / 4 - 1e-3

    def test_charlie_steps_monotone(self):
        result = seesaw(0.65)
        for run in result.runs:
            assert run.charlie_steps
            for before, after in run.charlie_steps:
                assert after >= before - 1e-12

    def test_emitted_strategy_is_sound(self):
        for alpha in (0.6, 0.8):
            result = seesaw(alpha)
            result.strategy.validate()
            assert in_quantum_set(result.pair, tol=1e-7)

    def test_all_restarts_failing_raises(self, monkeypatch):
        def failed_round(alpha, theta, phi1, q0, q1):  # _seesaw_round's signature
            return (theta, 0.0, phi1), -math.inf, (q0, q1), -math.inf

        monkeypatch.setattr(optimizer, "_seesaw_round", failed_round)
        with pytest.raises(ConvergenceFailure, match=r"all restarts failed at alpha = 0\.75\b"):
            seesaw(0.75)


class TestClassicalBruteforce:
    def test_exact_maxima(self):
        result = classical_bruteforce()
        assert result.max_w_ab == 0.75
        assert result.max_w_ac == 0.75

    def test_corner_is_extremal(self):
        result = classical_bruteforce()
        assert (0.75, 0.75) in [(p.w_ab, p.w_ac) for p in result.extremes]

    def test_extremes_span_attainable_box(self):
        result = classical_bruteforce()
        ab = [p.w_ab for p in result.extremes]
        ac = [p.w_ac for p in result.extremes]
        assert min(ab) == 0.25 and max(ab) == 0.75
        assert min(ac) == 0.25 and max(ac) == 0.75

    def test_matches_per_strategy_oracle(self):
        # Score every strategy with the per-strategy oracle; the hit tables
        # must agree entry by entry, and the maxima and hull of the attained
        # set (in sixteenths) must follow.
        pairs = [witness_pair_classical(cs) for cs in enumerate_classical_strategies()]
        assert len(pairs) == 65536
        ab, ac = _classical_hits()
        grid = (16, 16, 16, 16)  # (e, b, r, c), the enumeration order
        oracle_ab = np.array([8 * p.w_ab for p in pairs]).reshape(grid)
        oracle_ac = np.array([16 * p.w_ac for p in pairs]).reshape(grid)
        assert np.array_equal(oracle_ab, np.broadcast_to(ab[:, :, None, None], grid))
        assert np.array_equal(oracle_ac, np.broadcast_to(ac[:, None, :, :], grid))
        points = sorted({(int(16 * p.w_ab), int(16 * p.w_ac)) for p in pairs})
        hull = [WitnessPair(p / 16.0, q / 16.0) for p, q in _integer_hull(points)]
        result = classical_bruteforce()
        assert result.max_w_ab == max(p.w_ab for p in pairs)
        assert result.max_w_ac == max(p.w_ac for p in pairs)
        assert list(result.extremes) == hull

    @pytest.mark.parametrize("points", [[], [(3, 4)], [(0, 0), (2, 1)]])
    def test_hull_of_two_or_fewer_points_is_the_points(self, points):
        assert _integer_hull(points) == points

    def test_key_counts_give_the_sorted_distinct_keys(self):
        ab, ac = _classical_hits()
        keys = 17 * (2 * ab)[:, :, None, None] + ac[:, None, :, :]
        assert np.flatnonzero(np.bincount(keys.ravel())).tolist() == np.unique(keys).tolist()


class TestEigenvalueSumBound:
    def test_aligned_is_tight(self):
        povm = random_povm(np.random.default_rng(1), allow_offset=False)
        axis = povm.cvec / povm.sharpness
        sample = sandwich_eigenvalue_sum_bound(povm, axis)
        assert sample.lhs == pytest.approx(sample.rhs, abs=1e-12)
        assert sample.equality

    def test_orthogonal_projective_collapses(self):
        from seqrac.linalg import projective_povm

        sample = sandwich_eigenvalue_sum_bound(projective_povm([0, 0, 1.0]), [1.0, 0, 0])
        assert sample.lhs == pytest.approx(0.0, abs=1e-12)
        assert not sample.equality

    def test_no_violation_on_random_draws(self, rng):
        worst = -np.inf
        for _ in range(2000):
            povm = random_povm(rng)
            a = rng.normal(size=3) * rng.uniform(0, 2)
            sample = sandwich_eigenvalue_sum_bound(povm, a)
            worst = max(worst, sample.lhs - sample.rhs)
        assert worst <= 1e-9

    def test_rejects_bad_povm(self):
        from seqrac.errors import InvalidPovm
        from seqrac.linalg import ID2

        with pytest.raises(InvalidPovm):
            sandwich_eigenvalue_sum_bound((ID2, ID2), [0, 0, 1.0])

    @pytest.mark.parametrize("direction", ["abc", [1.0, 0.0], [np.nan, 0.0, 0.0]])
    def test_rejects_malformed_direction(self, direction):
        with pytest.raises(DomainError):
            sandwich_eigenvalue_sum_bound(projective_povm([0.0, 0.0, 1.0]), direction)


class TestTrigInequality:
    def test_equality_locus(self):
        # An odd grid holds theta = pi/2, where phi0 = phi1 gives 1.
        for resolution in (3, 5, 9, 17, 101):
            assert trig_grid_max(resolution) == pytest.approx(1.0, abs=1e-12)

    def test_corner_case(self):
        # theta runs over {0, pi} only, so the corners (0, 0, pi/2) and
        # (pi, pi/2, 0) alone give the maximum 1.
        assert trig_grid_max(2) == pytest.approx(1.0, abs=1e-12)

    def test_grid_maximum(self):
        assert trig_grid_max(100) <= 1.0 + 1e-12

    def test_slab_maximum_equals_dense_grid(self):
        for resolution in range(1, 81):
            theta = np.linspace(0.0, np.pi, resolution)[:, None, None]
            phi0 = np.linspace(0.0, HALF_PI, resolution)[None, :, None]
            phi1 = np.linspace(0.0, HALF_PI, resolution)[None, None, :]
            dense = np.cos(theta) * (np.cos(phi0) ** 2 - np.cos(phi1) ** 2) + np.sin(
                theta
            ) * np.cos(phi0 - phi1)
            assert trig_grid_max(resolution) == float(dense.max())

    @pytest.mark.parametrize("resolution", [0, -2, TRIG_GRID_MAX + 1, 2_000_000])
    def test_grid_size_outside_domain_rejected(self, resolution):
        with pytest.raises(DomainError):
            trig_grid_max(resolution)

    def test_grid_maximum_above_one_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(optimizer, "trig_grid_max", lambda grid: 1.5)
        with pytest.raises(InequalityViolation, match=r"trig grid maximum 1\.5 exceeds 1"):
            optimizer.inequality_report(2, 3, 0)


class TestClosedFormEigenvalue:
    def test_matches_direct_eigensolve(self, rng):
        worst = 0.0
        for _ in range(2000):
            povm = random_povm(rng, allow_offset=False)
            direction = random_unit_vector(rng)
            op = bloch_compose(0.0, direction)
            for b in (0, 1):
                root = matrix_sqrt_psd(povm.effects[b])
                direct = max_eigenpair(root @ op @ root).value
                oracle = float(np.linalg.eigvalsh(root @ op @ root)[-1])
                closed = sandwich_eigenvalue_closed_form(povm, direction, b)
                worst = max(worst, abs(direct - closed), abs(oracle - closed))
        assert worst <= 1e-10

    def test_outcome_sum_drops_odd_term(self, rng):
        # summed over outcomes the overlap term cancels, leaving
        # sqrt(1 - |c|^2 (1 - (c.m)^2)) for offset-free measurements
        for _ in range(500):
            povm = random_povm(rng, allow_offset=False)
            direction = random_unit_vector(rng)
            total = sum(
                sandwich_eigenvalue_closed_form(povm, direction, b) for b in (0, 1)
            )
            cos_beta = float(np.dot(povm.cvec, direction)) / max(povm.sharpness, 1e-300)
            expected = np.sqrt(1 - povm.sharpness**2 * (1 - cos_beta**2))
            assert total == pytest.approx(expected, abs=1e-12)

    def test_zero_direction_gives_zero(self):
        # |a| = 0 leaves cos(beta) undefined; the eigenvalue of a zero operator is 0.
        povm = BinaryPovm.from_observable(0.25, [0.5, 0.0, 0.25])
        for b in (0, 1):
            assert sandwich_eigenvalue_closed_form(povm, [0.0, 0.0, 0.0], b) == 0.0

    def test_rejects_non_finite_direction(self):
        povm = projective_povm([0.0, 0.0, 1.0])
        for direction in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [1.0, 0.0], "abc"):
            with pytest.raises(DomainError):
                sandwich_eigenvalue_closed_form(povm, direction, 0)

    def test_takes_the_povm_as_the_sum_bound_does(self):
        # a BinaryPovm or its effect pair, with the same bits; InvalidPovm on anything else
        povm = BinaryPovm.from_observable(0.25, [0.5, 0.0, 0.25])  # dyadic: the pair round-trips
        a = [0.6, 0.0, 0.8]
        for b in (0, 1):
            by_pair = sandwich_eigenvalue_closed_form(povm.effects, a, b)
            assert by_pair.hex() == sandwich_eigenvalue_closed_form(povm, a, b).hex()
        by_pair, by_povm = (sandwich_eigenvalue_sum_bound(p, a) for p in (povm.effects, povm))
        assert (by_pair.lhs.hex(), by_pair.rhs.hex()) == (by_povm.lhs.hex(), by_povm.rhs.hex())
        for junk in ((ID2, ID2), (ID2,), "ab", 3, None):
            with pytest.raises(InvalidPovm):
                sandwich_eigenvalue_closed_form(junk, a, 0)
            with pytest.raises(InvalidPovm):
                sandwich_eigenvalue_sum_bound(junk, a)

    @pytest.mark.parametrize("outcome", [2, -1, 0.5, "1"])
    def test_rejects_outcome_outside_0_1(self, outcome):
        with pytest.raises(DomainError, match="outcome"):
            sandwich_eigenvalue_closed_form(projective_povm([0.0, 0.0, 1.0]), [1.0, 0.0, 0.0], outcome)

    def test_general_offset_matches_eigensolve(self, rng):
        for _ in range(500):
            povm = random_povm(rng, allow_offset=True)
            direction = random_unit_vector(rng)
            op = bloch_compose(0.0, direction)
            for b in (0, 1):
                root = matrix_sqrt_psd(povm.effects[b])
                direct = max_eigenpair(root @ op @ root).value
                closed = sandwich_eigenvalue_closed_form(povm, direction, b)
                assert direct == pytest.approx(closed, abs=1e-10)


def _generic_effect(c0, c, shrink):
    """PSD ``c0 I + c.sigma`` with ``|c| <= c0``."""
    c = np.asarray(c)
    return bloch_compose(c0, shrink * c0 * c / max(float(np.linalg.norm(c)), 1.0))


def _projective_effect(c):
    """``|c| I + c.sigma``: determinant 0."""
    return bloch_compose(float(np.linalg.norm(c)), np.asarray(c))


_UNIT = st.floats(-1.0, 1.0)
_VECTOR = st.tuples(_UNIT, _UNIT, _UNIT)
# Generic and projective effects, and the zero effect (the ``denom_sq <= 0``
# branch of the square root).
_EFFECTS = st.one_of(
    st.builds(_generic_effect, st.floats(0.0, 1.0), _VECTOR, st.floats(0.0, 1.0)),
    st.builds(_projective_effect, _VECTOR),
    st.just(np.zeros((2, 2), dtype=complex)),
    # traceless, so not PSD: with tol=inf the square root takes that
    # branch for a nonzero matrix too
    st.builds(lambda c: bloch_compose(0.0, np.asarray(c)), _VECTOR),
)
_OPS = st.builds(
    lambda c0, c, scale: bloch_compose(scale * c0, scale * np.asarray(c)),
    _UNIT, _VECTOR, st.floats(0.0, 10.0),
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])


# Measurements from_observable builds: generic, projective (sharpness 1) and trivial.
_POVMS = st.builds(
    lambda eta, t, axis: BinaryPovm.from_observable(t * (1.0 - eta), eta * _unit(axis)),
    st.one_of(st.floats(0.0, 1.0), st.just(1.0), st.just(0.0)), _UNIT, _VECTOR,
)
# The zero direction, and directions of norm 1e-5 to 1e5.
_DIRECTIONS = st.one_of(
    st.just(np.zeros(3)),
    st.builds(lambda v, e: _unit(v) * 10.0**e, _VECTOR, st.floats(-5.0, 5.0)),
)


def _frozen_sum_bound(povm, a) -> tuple[float, float, bool]:
    """The eigenvalue-sum bound one effect at a time: ``(lhs, rhs, equality)``."""
    rhs = float(np.linalg.norm(a))
    if rhs == 0.0:
        return 0.0, 0.0, True
    op = bloch_compose(0.0, a)
    lhs = 0.0
    for effect in povm.effects:
        lhs += frozen_sandwich_max(effect, op)
    sharp = povm.sharpness
    if sharp <= 1e-9:
        return lhs, rhs, True
    return lhs, rhs, abs(abs(float(np.dot(povm.cvec, a))) / (sharp * rhs) - 1.0) <= 1e-9


class TestInequalityReport:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_EFFECTS, _OPS), min_size=1, max_size=6))
    def test_stacked_sandwich_equals_scalar_oracle(self, pairs):
        effects = np.array([e for e, _ in pairs])
        ops = np.array([op for _, op in pairs])
        stacked = optimizer._sandwich_max(effects, ops)
        assert stacked.tolist() == [frozen_sandwich_max(e, op) for e, op in pairs]

    @settings(max_examples=400, deadline=None)
    @given(_POVMS, _DIRECTIONS, st.booleans())
    @example(BinaryPovm.from_observable(0.0, np.array([0.0, 0.0, 1.0])), np.zeros(3), False)
    @example(BinaryPovm.from_observable(0.0, np.array([0.6, 0.0, 0.8])),
             np.array([3e4, 0.0, 4e4]), True)
    def test_scalar_bound_equals_the_per_effect_loop(self, povm, a, raw):
        # raw input is the effect pair, which validate_povm turns into a BinaryPovm
        got = sandwich_eigenvalue_sum_bound(tuple(povm.effects) if raw else povm, a)
        want = _frozen_sum_bound(validate_povm(*povm.effects) if raw else povm, a)
        assert (got.lhs.hex(), got.rhs.hex()) == (want[0].hex(), want[1].hex())
        assert got.equality == want[2]

    def test_draws_and_values_match_the_scalar_suites(self):
        # the batched suites against the per-sample loops they replace
        rng = np.random.default_rng([4, 11])
        lhs, rhs = optimizer._bound_suite(rng, 300)
        oracle = np.random.default_rng([4, 11])
        for got_lhs, got_rhs in zip(lhs.tolist(), rhs.tolist()):
            sample = sandwich_eigenvalue_sum_bound(
                random_povm(oracle), oracle.normal(size=3) * oracle.uniform(0.0, 2.0)
            )
            assert (got_lhs, got_rhs) == (sample.lhs, sample.rhs)
        assert rng.bit_generator.state == oracle.bit_generator.state

        rng = np.random.default_rng([4, 13])
        direct, closed = optimizer._eigen_suite(rng, 300)
        oracle = np.random.default_rng([4, 13])
        for row_direct, row_closed in zip(direct.tolist(), closed.tolist()):
            povm = random_povm(oracle, allow_offset=False)
            u = random_unit_vector(oracle)
            op = bloch_compose(0.0, u)
            assert row_direct == [frozen_sandwich_max(e, op) for e in povm.effects]
            assert row_closed == [sandwich_eigenvalue_closed_form(povm, u, b) for b in (0, 1)]
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_batches_leave_the_report_unchanged(self, monkeypatch):
        whole = optimizer.inequality_report(50, 3, 2)
        monkeypatch.setattr(optimizer, "_SUITE_BATCH", 7)
        assert optimizer.inequality_report(50, 3, 2) == whole

    @pytest.mark.parametrize("args", [(1.5, 3, 0), (3, 2.0, 0), (3, 2, 0.5), ("3", 2, 0)])
    def test_rejects_non_integer_arguments(self, args):
        with pytest.raises(DomainError, match="must be an integer"):
            optimizer.inequality_report(*args)

    @pytest.mark.parametrize(
        "bad_draw, excess, error",
        [
            (0, 1.0, NotPsd),
            (2, 1.0, InequalityViolation),
            (2, 0.0, NotPsd),
            (None, 1.2e-9, InequalityViolation),
            (None, 0.8e-9, None),
        ],
    )
    def test_first_failing_sample_raises_the_scalar_error(
        self, monkeypatch, bad_draw, excess, error
    ):
        # every eigenvalue sum is set to |a| + excess (the bound allows 1e-9),
        # and one draw may break positivity: the earliest failing sample
        # wins, and within a sample the measurement check runs first
        real_draw = optimizer._draw_observable
        draws = []

        def draw(rng, allow_offset):
            draws.append(real_draw(rng, allow_offset))
            if len(draws) - 1 == bad_draw:
                return 0.5, np.array([0.9, 0.0, 0.0])
            return draws[-1]

        def sums_to_norm_plus_excess(effects, ops):
            return 0.5 * np.sqrt(-np.linalg.det(ops).real) + 0.5 * excess

        monkeypatch.setattr(optimizer, "_draw_observable", draw)
        monkeypatch.setattr(optimizer, "_sandwich_max", sums_to_norm_plus_excess)
        if error is None:
            lhs, rhs = optimizer._bound_suite(np.random.default_rng([0, 11]), 5)
            assert 0.0 < (lhs - rhs).max() < 1e-9
            return
        rng = np.random.default_rng([0, 11])
        real_draw(rng, True)
        a = rng.normal(size=3) * rng.uniform(0.0, 2.0)
        lhs = 0.0
        for value in sums_to_norm_plus_excess(None, np.array([bloch_compose(0.0, a)] * 2)):
            lhs += float(value)
        message = {
            NotPsd: "offset 0.5 with |c| = 0.9 breaks positivity",
            InequalityViolation: f"eigenvalue sum {lhs!r} exceeds |a| = {float(np.linalg.norm(a))!r}",
        }[error]
        with pytest.raises(error) as caught:
            optimizer.inequality_report(5, 2, 0)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "bad_povm, bad_direction, error",
        [(2, None, NotPsd), (None, 2, DomainError), (2, 2, NotPsd), (3, 1, DomainError)],
    )
    def test_first_rejected_eigen_draw_raises_the_constructor_error(
        self, monkeypatch, bad_povm, bad_direction, error
    ):
        # a measurement that breaks positivity or a NaN direction: the earliest
        # rejected sample wins, and within a sample the measurement runs first
        real_draw, real_unit = optimizer._draw_observable, optimizer.random_unit_vector
        samples = []

        def draw(rng, allow_offset):
            samples.append(real_draw(rng, allow_offset))
            return (0.5, np.array([0.9, 0.0, 0.0])) if len(samples) - 1 == bad_povm else samples[-1]

        def unit(rng):
            u = real_unit(rng)
            return np.array([np.nan, 0.0, 0.0]) if len(samples) - 1 == bad_direction else u

        monkeypatch.setattr(optimizer, "_draw_observable", draw)
        monkeypatch.setattr(optimizer, "random_unit_vector", unit)
        message = {
            NotPsd: "offset 0.5 with |c| = 0.9 breaks positivity",
            DomainError: "direction has entries that are not finite",
        }[error]
        with pytest.raises(error) as caught:
            optimizer._eigen_suite(np.random.default_rng([0, 13]), 5)
        assert str(caught.value) == message

    def test_residual_check_runs_on_the_batch(self, monkeypatch):
        real = optimizer._closed_form
        monkeypatch.setattr(optimizer, "_closed_form", lambda *args: real(*args) + 1e-9)
        with pytest.raises(InequalityViolation, match="closed-form eigenvalue residual"):
            optimizer.inequality_report(5, 2, 0)


class TestWitnessBlochForm:
    def test_first_witness_reduces_to_overlap_form(self, rng):
        # w_ab = 1/2 + sum_y c_y . m_y / 16, offsets cancel; the see-saw
        # constraint repair relies on this linearity
        from seqrac.scenario import difference_vectors

        for _ in range(200):
            strategy = random_strategy(rng)
            m0, m1 = difference_vectors(strategy.preparations)
            overlap = np.dot(strategy.instruments[0].povm.cvec, m0) + np.dot(
                strategy.instruments[1].povm.cvec, m1
            )
            assert witness_pair(strategy).w_ab == pytest.approx(
                0.5 + overlap / 16.0, abs=1e-12
            )


class TestSelfTestClosure:
    def test_boundary_strategies_look_canonical(self):
        # strategies realizing the optimal curve pass the self-test
        from seqrac import selftest_report

        for point in trace_boundary([0.6, 0.75, 0.82]):
            strategy = strategy_from_reduced(point.params)
            assert selftest_report(strategy).max_defect() <= 1e-6

    def test_seesaw_output_looks_canonical(self):
        from seqrac import selftest_report

        result = seesaw(0.7)
        assert selftest_report(result.strategy).max_defect() <= 1e-6


class TestOptimizerConfig:
    def test_rejects_nonpositive_counts(self):
        """The seed must be a non-negative integer (``operator.index``; not ``bool``)."""
        for kwargs in (
            {"rng_seed": -1},
            {"rng_seed": 1.5},
            {"rng_seed": np.nan},
            {"rng_seed": True},
        ):
            with pytest.raises(DomainError):
                OptimizerConfig(**kwargs)
