"""Boundary curve, sharpness certification, set membership, self-testing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from seqrac import (
    Strategy,
    VisibilityTriple,
    WitnessPair,
    apply_visibility,
    boundary_wac,
    canonical_strategy,
    certify_interval,
    conjugate_strategy,
    equal_witness_point,
    in_classical_set,
    in_quantum_set,
    selftest_report,
    sharpness_lower,
    sharpness_upper,
    witness_pair,
)
from seqrac.analytics import W_AB_MAX, W_AC_TRIVIAL, SelfTestReport, round_reported
from seqrac.errors import DomainError, InfeasiblePair, InvalidStrategy
from seqrac.linalg import BinaryPovm, QubitState, state_from_bloch
from seqrac.sampling import random_strategy, random_su2
from seqrac.scenario import BinaryInstrument
from seqrac.strategies import axis_instruments

SQRT2 = np.sqrt(2.0)


class TestBoundary:
    def test_values(self):
        assert boundary_wac(0.75) == pytest.approx((5 + SQRT2) / 8, abs=1e-15)
        assert boundary_wac(W_AB_MAX) == pytest.approx((4 + SQRT2) / 8, abs=1e-9)
        assert boundary_wac(0.5) == pytest.approx((2 + SQRT2) / 4, abs=1e-15)

    def test_domain(self):
        for alpha in (0.49, 0.86, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                boundary_wac(alpha)

    def test_concavity_on_grid(self):
        grid = np.linspace(0.5, W_AB_MAX, 1001)
        values = np.array([boundary_wac(a) for a in grid])
        second = np.diff(values, 2)
        assert np.max(second) <= 1e-9

    def test_maximum_at_left_endpoint(self):
        grid = np.linspace(0.5, W_AB_MAX, 1001)
        values = [boundary_wac(a) for a in grid]
        assert int(np.argmax(values)) == 0
        assert values[0] == pytest.approx(W_AB_MAX, abs=1e-15)


class TestEqualWitnessPoint:
    def test_closed_form(self):
        assert equal_witness_point() == pytest.approx((5 + 2 * SQRT2) / 10, abs=1e-15)

    def test_fixed_point(self):
        alpha = equal_witness_point()
        assert boundary_wac(alpha) - alpha == pytest.approx(0.0, abs=1e-12)

    def test_bisection_oracle(self):
        hi = min(0.8536, W_AB_MAX)
        root = brentq(lambda a: boundary_wac(a) - a, 0.75, hi, xtol=1e-14)
        assert root == pytest.approx(equal_witness_point(), abs=1e-10)


class TestSharpnessBounds:
    def test_lower_examples(self):
        assert sharpness_lower(0.5) == 0.0
        assert sharpness_lower(W_AB_MAX) == pytest.approx(1.0, abs=1e-12)
        assert round_reported(sharpness_lower(0.7138)) == pytest.approx(0.6047)

    def test_lower_rejects_unphysical(self):
        for w_ab in (0.9, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                sharpness_lower(w_ab)

    def test_upper_examples(self):
        assert sharpness_upper(W_AC_TRIVIAL) == 1.0
        assert round_reported(sharpness_upper(0.7826)) == pytest.approx(0.8010)
        assert sharpness_upper((5 + SQRT2) / 8) == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_upper_domain(self):
        for w_ac in (0.4, 0.86, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                sharpness_upper(w_ac)

    def test_tightness_on_boundary(self):
        for alpha in np.linspace(0.5, W_AB_MAX, 47):
            gap = sharpness_upper(boundary_wac(alpha)) - sharpness_lower(alpha)
            assert abs(gap) <= 1e-9


class TestCertifyInterval:
    def test_published_example(self):
        interval = certify_interval(WitnessPair(0.7138, 0.7826))
        assert interval.rounded() == (0.6047, 0.8010)

    @settings(max_examples=300, deadline=None)
    @given(*[st.floats(0.0, 1.0)] * 4)
    def test_contains_effective_sharpness_of_noisy_canonical(self, eta, v_a, v_b, v_c):
        # Bob's visibility scales his instrument's sharpness to v_b * eta.
        noisy = apply_visibility(canonical_strategy(eta), VisibilityTriple(v_a, v_b, v_c))
        interval = certify_interval(witness_pair(noisy))
        assert interval.lower - 1e-12 <= v_b * eta <= interval.upper + 1e-12

    def test_trivial_pair(self):
        interval = certify_interval(WitnessPair(0.5, 0.5))
        assert interval.lower == 0.0
        assert interval.upper == 1.0

    def test_boundary_pairs_are_degenerate(self):
        for alpha in np.linspace(0.5, W_AB_MAX, 21):
            interval = certify_interval(WitnessPair(alpha, boundary_wac(alpha)))
            assert 0.0 <= interval.width <= 1e-9

    def test_infeasible_pair(self):
        with pytest.raises(InfeasiblePair):
            certify_interval(WitnessPair(0.86, 0.85))

    def test_crossed_bounds_detected(self):
        # sharp w_ab forces eta = 1 but large w_ac forbids it
        with pytest.raises(InfeasiblePair):
            certify_interval(WitnessPair(W_AB_MAX, 0.85))

    def test_rejects_nonsense(self):
        with pytest.raises(DomainError):
            certify_interval(WitnessPair(1.4, 0.5))

    @pytest.mark.parametrize(
        "w, message",
        [
            (WitnessPair(np.float64(0.99), np.float64(0.8)),
             "w_ab = 0.99 requires sharpness 1.3859 > 1"),
            (WitnessPair(np.float64(0.5), np.float64(0.9)),
             "w_ac = 0.9 exceeds the quantum maximum"),
        ],
    )
    def test_infeasible_messages_print_python_floats(self, w, message):
        with pytest.raises(InfeasiblePair) as caught:
            certify_interval(w)
        assert str(caught.value) == message


class TestSetMembership:
    def test_classical_corner(self):
        assert in_classical_set(WitnessPair(0.75, 0.75))

    def test_equal_point_is_quantum_not_classical(self):
        a = equal_witness_point()
        assert not in_classical_set(WitnessPair(a, a))
        assert in_quantum_set(WitnessPair(a, a))

    def test_sharp_corner_with_classical_wac_is_unphysical(self):
        assert not in_quantum_set(WitnessPair(W_AB_MAX, 0.75))

    def test_symmetrization(self):
        assert in_classical_set(WitnessPair(0.25, 0.3))
        assert in_quantum_set(WitnessPair(1 - equal_witness_point(), 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for pair in (WitnessPair(bad, 0.7), WitnessPair(0.7, bad)):
            with pytest.raises(DomainError, match="is not finite"):
                in_classical_set(pair)
            with pytest.raises(DomainError, match="is not finite"):
                in_quantum_set(pair)


# The four analytics functions with a tol argument, each on a feasible witness level.
TOL_CALLS = {
    "in_quantum_set": lambda tol: in_quantum_set(WitnessPair(0.75, 0.75), tol=tol),
    "certify_interval": lambda tol: certify_interval(WitnessPair(0.75, 0.75), tol=tol),
    "sharpness_lower": lambda tol: sharpness_lower(0.75, tol=tol),
    "sharpness_upper": lambda tol: sharpness_upper(0.75, tol=tol),
}


class TestTol:
    @pytest.mark.parametrize("name", TOL_CALLS)
    @pytest.mark.parametrize("tol", [np.nan, -1e-3, -np.inf, "x", None, True, 1j])
    def test_tol_must_be_a_number_at_least_zero(self, name, tol):
        # NaN fails every comparison, so as a tol it would switch each check off.
        with pytest.raises(DomainError):
            TOL_CALLS[name](tol)

    @pytest.mark.parametrize("name", TOL_CALLS)
    def test_infinite_or_zero_tol_is_accepted(self, name):
        TOL_CALLS[name](np.inf)  # no check at all
        TOL_CALLS[name](0)


class TestRoundReported:
    def test_half_up_with_guard(self):
        assert round_reported(0.71375) == 0.7138
        assert round_reported(0.713749999999) == 0.7138
        assert round_reported(0.71374) == 0.7137

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            round_reported(bad)


class TestSelfTest:
    def test_canonical_passes(self):
        for eta in (0.0, 0.05, 0.4, 1 / SQRT2, 0.99, 1.0):
            report = selftest_report(canonical_strategy(eta))
            assert report.max_defect() <= 1e-9

    def test_instrument_without_axis_takes_the_perpendicular_frame(self):
        # Bob's first axis is missing: the frame completes it from his z axis as x.
        base = canonical_strategy(0.8)
        trivial = axis_instruments(0.0, 0.0)[0]
        s = Strategy(base.preparations, (trivial, base.instruments[1]), base.measurements)
        np.testing.assert_allclose(selftest_report(s).charlie_alignment_defects, (0.0, 0.0),
                                   rtol=0, atol=1e-12)

    def test_second_instrument_without_axis_is_completed_from_the_first(self):
        # Bob's z axis is missing: the frame completes it from his x axis as y, which
        # Charlie's z readout misses by |sigma_z - sigma_y|_F = 2.
        base = canonical_strategy(0.8)
        trivial = axis_instruments(0.0, 0.0)[1]
        s = Strategy(base.preparations, (base.instruments[0], trivial), base.measurements)
        np.testing.assert_allclose(selftest_report(s).charlie_alignment_defects, (0.0, 2.0),
                                   rtol=0, atol=1e-12)

    def test_collapsed_antipodal_pairs_have_a_right_angle_defect(self):
        base = canonical_strategy(0.8)
        same = (state_from_bloch([0.0, 0.0, 1.0]),) * 4
        report = selftest_report(Strategy(same, base.instruments, base.measurements))
        assert report.square_angle_defect == np.pi / 2
        assert report.antipodality_defects == (2.0, 2.0)

    def test_max_defect_reads_every_field(self):
        zero = SelfTestReport((0.0,) * 4, (0.0, 0.0), 0.0, (0.0, 0.0), 0.0, 0.0, (0.0, 0.0))
        assert zero.max_defect() == 0.0
        for field in dataclasses.fields(SelfTestReport):
            value = getattr(zero, field.name)
            if not isinstance(value, tuple):
                assert dataclasses.replace(zero, **{field.name: 1.0}).max_defect() == 1.0
                continue
            for i in range(len(value)):
                bumped = value[:i] + (1.0,) + value[i + 1:]
                assert dataclasses.replace(zero, **{field.name: bumped}).max_defect() == 1.0

    def test_no_axis_at_all_takes_the_coordinate_frame(self):
        # Both instruments trivial: this is canonical_strategy(0), so every field vanishes.
        base = canonical_strategy(0.8)
        s = Strategy(base.preparations, axis_instruments(0.0, 0.0), base.measurements)
        assert selftest_report(s).max_defect() <= 1e-12

    def test_invalid_strategies_raise_invalid_strategy(self):
        base = canonical_strategy(0.8)
        states = list(base.preparations)
        nan_matrix = states[0].matrix.copy()
        nan_matrix[0, 1] = np.nan  # outside the entries that the Bloch view reads
        states[0] = QubitState(nan_matrix, states[0].bloch)
        k0, k1 = base.instruments[0].kraus
        incomplete = dataclasses.replace(base.instruments[0], kraus=np.array([0.5 * k0, k1]))
        e0, e1 = base.measurements[0].effects
        nan_effect = dataclasses.replace(base.measurements[0], effects=np.array([e0 + np.nan, e1]))
        broken = {
            "preparations": Strategy(tuple(states), base.instruments, base.measurements),
            "instruments": Strategy(base.preparations, (incomplete, base.instruments[1]),
                                    base.measurements),
            "measurements": Strategy(base.preparations, base.instruments,
                                     (nan_effect, base.measurements[1])),
        }
        for component, s in broken.items():
            with pytest.raises(InvalidStrategy, match=rf"{component}\[0\]"):
                selftest_report(s)

    def test_conjugated_canonical_passes(self, rng):
        for _ in range(25):
            eta = rng.uniform(0.05, 1.0)
            rotated = conjugate_strategy(canonical_strategy(eta), random_su2(rng))
            assert selftest_report(rotated).max_defect() <= 1e-9

    def test_report_invariant_under_conjugation(self, rng):
        base = canonical_strategy(0.7)
        reference = selftest_report(base)
        for _ in range(10):
            rotated = conjugate_strategy(base, random_su2(rng))
            report = selftest_report(rotated)
            assert abs(report.max_defect() - reference.max_defect()) <= 1e-9

    # Sharp instruments have rank-one Kraus operators, whose Gram-matrix root
    # was off by about sqrt(eps) (up to 1.05e-8 at eta = 1).
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(1.0), st.floats(0.05, 1.0)), st.integers(0, 2**63 - 1))
    @example(1.0, 0)
    def test_conjugated_canonical_to_machine_precision(self, eta, frame_seed):
        u = random_su2(np.random.default_rng(frame_seed))
        assert selftest_report(conjugate_strategy(canonical_strategy(eta), u)).max_defect() <= 1e-12

    # Random strategies have sharpness > 0 almost surely: a sharpness-0
    # instrument has no axis, and its frame falls back to coordinate axes.
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.booleans(), st.integers(0, 2**63 - 1))
    def test_every_field_invariant_under_haar_conjugation(self, seed, luders, frame_seed):
        s = random_strategy(np.random.default_rng(seed), luders)
        rotated = conjugate_strategy(s, random_su2(np.random.default_rng(frame_seed)))
        before, after = selftest_report(s), selftest_report(rotated)
        for name in before.__dataclass_fields__:
            np.testing.assert_allclose(getattr(after, name), getattr(before, name), rtol=0, atol=1e-9)

    def test_shrunk_preparation_shows_purity_defect(self):
        base = canonical_strategy(1.0)
        states = list(base.preparations)
        states[0] = state_from_bloch(0.9 * states[0].bloch)
        broken = Strategy(tuple(states), base.instruments, base.measurements)
        report = selftest_report(broken)
        assert report.purity_defects[0] == pytest.approx(0.1, abs=1e-9)

    def test_asymmetric_sharpness_detected(self):
        base = canonical_strategy(0.8)
        weaker = canonical_strategy(0.8 * 0.99)
        broken = Strategy(
            base.preparations,
            (weaker.instruments[0], base.instruments[1]),
            base.measurements,
        )
        assert selftest_report(broken).bob_sharpness_defect > 1e-4

    def test_offset_detected(self):
        base = canonical_strategy(0.8)
        biased = BinaryInstrument.luders(
            BinaryPovm.from_observable(0.01, 0.8 * np.array([1.0, 0.0, 0.0]))
        )
        broken = Strategy(
            base.preparations, (biased, base.instruments[1]), base.measurements
        )
        assert selftest_report(broken).bob_offsets[0] == pytest.approx(0.01, abs=1e-12)

    def test_rotated_kraus_unitary_detected(self):
        base = canonical_strategy(0.8)
        angle = 0.01
        twist = np.array(
            [
                [np.cos(angle / 2), -np.sin(angle / 2)],
                [np.sin(angle / 2), np.cos(angle / 2)],
            ],
            dtype=complex,
        )
        k0, k1 = base.instruments[0].kraus
        twisted = BinaryInstrument.from_kraus(twist @ k0, k1)
        broken = Strategy(
            base.preparations, (twisted, base.instruments[1]), base.measurements
        )
        assert selftest_report(broken).unitary_spread > 1e-4

    def test_rotated_measurement_detected(self):
        from seqrac.linalg import projective_povm

        base = canonical_strategy(0.8)
        tilted = projective_povm([np.cos(0.01), 0.0, np.sin(0.01)])
        broken = Strategy(
            base.preparations, base.instruments, (tilted, base.measurements[1])
        )
        assert selftest_report(broken).charlie_alignment_defects[0] > 1e-4

    def test_classical_embedding_is_far_from_optimal_form(self):
        from classical_model import ClassicalStrategy, embed

        embedded = embed(ClassicalStrategy.relay_first_bit())
        assert selftest_report(embedded).max_defect() > 0.1

    def test_parallel_instrument_axes_do_not_crash(self):
        # degenerate frame fit: both instruments along x
        from seqrac.strategies import unsharp_axis_povm

        base = canonical_strategy(0.8)
        clone = BinaryInstrument.luders(
            unsharp_axis_povm(np.array([1.0, 0.0, 0.0]), 0.8)
        )
        degenerate = Strategy(
            base.preparations, (clone, clone), base.measurements
        )
        assert selftest_report(degenerate).max_defect() > 1e-3
