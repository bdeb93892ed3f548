"""Best responses, boundary tracing, see-saw, enumeration, inequalities."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

from seqrac import (
    OptimizerConfig,
    ReducedParameters,
    Strategy,
    canonical_strategy,
    charlie_best_response,
    classical_bruteforce,
    in_quantum_set,
    reduced_constraint,
    reduced_objective,
    sandwich_eigenvalue_closed_form,
    sandwich_eigenvalue_sum_bound,
    seesaw,
    strategy_from_reduced,
    trace_boundary,
    trig_inequality_value,
    witness_ac,
    witness_pair,
)
from seqrac.analytics import W_AB_MAX
from seqrac.errors import DomainError
from seqrac.linalg import (
    bloch_compose,
    matrix_sqrt_psd,
    max_eigenpair,
    maximally_mixed,
    projective_povm,
)
from seqrac import optimizer
from seqrac.optimizer import (
    TRIG_GRID_MAX,
    _axis_table,
    _classical_hits,
    _fixed_charlie_value,
    _fixed_charlie_values,
    _grid_argmax,
    _integer_hull,
    minimize_scalar,
    solve_reduced_phi0,
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

SQRT2 = np.sqrt(2.0)
HALF_PI = np.pi / 2


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
        mixed = PreparationEnsemble(tuple(maximally_mixed() for _ in range(4)))
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
    def test_sharp_corner(self):
        r = ReducedParameters(HALF_PI, 0.0, 0.0)
        assert reduced_objective(r) == pytest.approx(0.5 + SQRT2 / 8, abs=1e-12)
        assert reduced_constraint(r) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)

    def test_noninteracting_corner(self):
        r = ReducedParameters(HALF_PI, HALF_PI, HALF_PI)
        assert reduced_objective(r) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert reduced_constraint(r) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_square(self):
        # collapsed preparations: constraint is (2 + cos(phi))/4, at most 3/4
        for phi in np.linspace(0.0, HALF_PI, 11):
            r = ReducedParameters(0.0, phi, phi)
            assert reduced_constraint(r) == pytest.approx(
                (2 + np.cos(phi)) / 4, abs=1e-12
            )
            assert reduced_constraint(r) <= 0.75 + 1e-12

    def test_explicit_strategy_realizes_both_functionals(self, rng):
        for _ in range(50):
            r = ReducedParameters(
                rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI)
            )
            strategy = strategy_from_reduced(r)
            pair = witness_pair(strategy)
            assert pair.w_ab == pytest.approx(reduced_constraint(r), abs=1e-12)
            _, best = charlie_best_response(strategy.preparations, strategy.instruments)
            assert best == pytest.approx(reduced_objective(r), abs=1e-12)

    def test_phi0_elimination_is_exact(self, rng):
        for _ in range(200):
            theta = rng.uniform(0, HALF_PI)
            phi1 = rng.uniform(0, HALF_PI)
            alpha = rng.uniform(0.5, W_AB_MAX)
            phi0 = solve_reduced_phi0(alpha, theta, phi1)
            if phi0 is None:
                continue
            r = ReducedParameters(theta, phi0, phi1)
            assert reduced_constraint(r) == pytest.approx(alpha, abs=1e-12)

    def test_phi0_elimination_rejects_non_finite(self):
        for args in ((np.nan, 1.0, 1.0), (0.7, np.inf, 1.0), (0.7, 1.0, -np.inf)):
            with pytest.raises(DomainError):
                solve_reduced_phi0(*args)


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
                return -_fixed_charlie_value(alpha, theta, t, q0, q1)[0]

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


class TestTraceBoundary:
    def test_reference_levels(self):
        cfg = OptimizerConfig(grid_resolution=256)
        for alpha, expected in [
            (0.75, (5 + SQRT2) / 8),
            (0.5, (2 + SQRT2) / 4),
            (W_AB_MAX, (4 + SQRT2) / 8),
        ]:
            point = trace_boundary([alpha], cfg)[0]
            assert point.wac == pytest.approx(expected, abs=1e-6)

    def test_argmax_has_lemma_structure(self):
        cfg = OptimizerConfig(grid_resolution=256)
        for alpha in (0.55, 0.7, 0.8, W_AB_MAX):
            point = trace_boundary([alpha], cfg)[0]
            assert abs(point.params.theta - HALF_PI) <= 1e-4
            assert abs(point.params.phi0 - point.params.phi1) <= 1e-4

    def test_rejects_out_of_domain(self):
        for alpha in (0.4, 0.9, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                trace_boundary([alpha])


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


class TestAxisTable:
    """The hoisted axis trigonometry against the per-call formulation, by ``==``."""

    LEVELS = np.linspace(0.5, W_AB_MAX, 10)

    @pytest.mark.parametrize("resolution", [1, 2, 64, 512])
    def test_grid_argmax_matches_meshgrid(self, resolution):
        for alpha in self.LEVELS:
            assert _grid_argmax(float(alpha), resolution) == _meshgrid_argmax(float(alpha), resolution)

    @pytest.mark.parametrize("resolution", [513, 1025])
    def test_scan_rows_match_per_call_trigonometry(self, resolution, rng):
        xs, cos_half, sin_half, cos_x, sin_x = _axis_table(resolution)
        for _ in range(200):
            alpha = float(rng.uniform(0.5, W_AB_MAX))
            theta, phi1 = (float(v) for v in rng.uniform(0.0, HALF_PI, 2))
            q0, q1 = (float(q) for q in rng.uniform(-1.0, 1.0, 2))
            half = 0.5 * theta
            rows = (
                (_fixed_charlie_values(alpha, cos_half, sin_half, np.cos(phi1), np.sin(phi1), q0, q1),
                 _meshgrid_charlie_values(alpha, xs, phi1, q0, q1)),
                (_fixed_charlie_values(alpha, np.cos(half), np.sin(half), cos_x, sin_x, q0, q1),
                 _meshgrid_charlie_values(alpha, theta, xs, q0, q1)),
            )
            for new, old in rows:
                assert new.tobytes() == old.tobytes()

    def test_arrays_are_read_only(self):
        table = _axis_table(513)
        assert table[0].tobytes() == np.linspace(0.0, HALF_PI, 513).tobytes()
        for a in table:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def _memo_free_seesaw(alpha, cfg):
    """``seesaw`` with every round run in full, as before the round memo."""
    _, grid_theta, grid_phi1 = _grid_argmax(alpha, 64)
    runs, best = [], None
    for restart in range(cfg.seesaw_restarts):
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
            for _ in range(optimizer.REFINEMENT_ITERATIONS):
                here = _fixed_charlie_value(alpha, theta, phi1, q0, q1)[0]
                theta, _ = optimizer._scan_coordinate(alpha, theta, phi1, q0, q1, coord=0)
                phi1, moved_v = optimizer._scan_coordinate(alpha, theta, phi1, q0, q1, coord=1)
                if moved_v <= here + 1e-15:
                    break
            before, phi0 = _fixed_charlie_value(alpha, theta, phi1, q0, q1)
            params = ReducedParameters(theta, phi0, phi1)
            partial = strategy_from_reduced(params, charlie)
            charlie, after = charlie_best_response(partial.preparations, partial.instruments)
            steps.append((before, after))
            converged = after - value < cfg.convergence_epsilon
            value = after
            if converged:
                break
        runs.append((steps, value))
        if best is None or value > best[0]:
            best = (value, params, charlie)
    strategy = strategy_from_reduced(best[1], best[2])
    return runs, best[1], witness_pair(strategy)


def _hex(*values):
    return [float(v).hex() for v in values]


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
        assert [[_hex(*step) for step in run.charlie_steps] for run in result.runs] == [
            [_hex(*step) for step in steps] for steps, _ in runs
        ]
        assert [_hex(run.final_wac) for run in result.runs] == [_hex(v) for _, v in runs]
        assert _hex(result.params.theta, result.params.phi0, result.params.phi1) == _hex(
            params.theta, params.phi0, params.phi1
        )
        assert _hex(*result.pair) == _hex(*pair)
        # Restarts share rounds, so fewer rounds run than steps are recorded.
        assert len(rounds_run) < sum(len(steps) for steps, _ in runs)


class TestSeesaw:
    def test_rejects_out_of_domain(self):
        for alpha in (0.4, 0.9, np.nan, np.inf):
            with pytest.raises(DomainError):
                seesaw(alpha)

    def test_reaches_boundary_at_reference_level(self):
        cfg = OptimizerConfig(seesaw_restarts=6)
        result = seesaw(0.75, cfg)
        assert 0.80077 <= result.pair.w_ac <= 0.801778
        assert result.pair.w_ab == pytest.approx(0.75, abs=1e-8)

    def test_sharp_level_forces_sharp_instruments(self):
        cfg = OptimizerConfig(seesaw_restarts=4)
        result = seesaw(W_AB_MAX, cfg)
        for inst in result.strategy.instruments:
            assert inst.povm.sharpness == pytest.approx(1.0, abs=1e-3)

    def test_trivial_level(self):
        cfg = OptimizerConfig(seesaw_restarts=4)
        result = seesaw(0.5, cfg)
        assert result.pair.w_ac >= (2 + SQRT2) / 4 - 1e-3

    def test_charlie_steps_monotone(self):
        cfg = OptimizerConfig(seesaw_restarts=8)
        result = seesaw(0.65, cfg)
        for run in result.runs:
            assert run.charlie_steps
            for before, after in run.charlie_steps:
                assert after >= before - 1e-12

    def test_emitted_strategy_is_sound(self):
        cfg = OptimizerConfig(seesaw_restarts=4)
        for alpha in (0.6, 0.8):
            result = seesaw(alpha, cfg)
            result.strategy.validate()
            assert in_quantum_set(result.pair, tol=1e-7)


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


class TestTrigInequality:
    def test_equality_locus(self):
        for phi in np.linspace(0, HALF_PI, 9):
            assert trig_inequality_value(HALF_PI, phi, phi) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_corner_case(self):
        assert trig_inequality_value(0.0, 0.0, HALF_PI) == pytest.approx(1.0, abs=1e-12)

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

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            trig_inequality_value(-0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            trig_inequality_value(1.0, 2.0, 0.0)


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

    def test_rejects_non_finite_direction(self):
        povm = projective_povm([0.0, 0.0, 1.0])
        for direction in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [1.0, 0.0]):
            with pytest.raises(DomainError):
                sandwich_eigenvalue_closed_form(povm, direction, 0)

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

        for point in trace_boundary([0.6, 0.75, 0.82], OptimizerConfig(grid_resolution=256)):
            strategy = strategy_from_reduced(point.params)
            assert selftest_report(strategy).max_defect() <= 1e-6

    def test_seesaw_output_looks_canonical(self):
        from seqrac import selftest_report

        result = seesaw(0.7, OptimizerConfig(seesaw_restarts=4))
        assert selftest_report(result.strategy).max_defect() <= 1e-6


class TestOptimizerConfig:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(DomainError):
            OptimizerConfig(convergence_epsilon=0.01)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(DomainError):
            OptimizerConfig(grid_resolution=0)
