"""Witness functionals and the outcome distribution."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrac import (
    Strategy,
    WitnessPair,
    canonical_strategy,
    charlie_best_response,
    conjugate_strategy,
    effective_ensemble,
    joint_prob,
    witness_ab,
    witness_ac,
    witness_pair,
)
from seqrac.errors import CompletenessViolated, DomainError
from seqrac.linalg import projective_povm, state_from_bloch
from seqrac.sampling import random_povm, random_strategy, random_su2
from seqrac.scenario import INPUT_PAIRS, BinaryInstrument, PreparationEnsemble, difference_vectors

SQRT2 = np.sqrt(2.0)
SHARP_Z = projective_povm([0.0, 0.0, 1.0])


def all_mixed(strategy: Strategy) -> Strategy:
    mixed = PreparationEnsemble(tuple(state_from_bloch([0, 0, 0]) for _ in range(4)))
    return Strategy(mixed, strategy.instruments, strategy.measurements)


class TestJointProb:
    def test_sharp_canonical_marginal(self, canonical_sharp):
        total = sum(joint_prob(canonical_sharp, (0, 0), 0, 0, 0, c) for c in (0, 1))
        assert total == pytest.approx((1 + 1 / SQRT2) / 2, abs=1e-12)

    def test_mixed_preparations_make_outcomes_flat(self, rng):
        strategy = all_mixed(random_strategy(rng, luders=True))
        for y in (0, 1):
            marginal = sum(
                joint_prob(strategy, (0, 1), y, 0, 0, c) for c in (0, 1)
            )
            expected = (1 + strategy.instruments[y].povm.c0) / 2
            assert marginal == pytest.approx(expected, abs=1e-12)

    def test_noninteracting_instrument_has_flat_outcome(self):
        strategy = canonical_strategy(0.0)
        for x in INPUT_PAIRS:
            for (y, z, c) in itertools.product((0, 1), repeat=3):
                p0 = joint_prob(strategy, x, y, z, 0, c)
                p1 = joint_prob(strategy, x, y, z, 1, c)
                assert p0 == pytest.approx(p1, abs=1e-12)

    def test_normalization_on_random_strategies(self, rng):
        for _ in range(1000):
            strategy = random_strategy(rng)
            for x in INPUT_PAIRS:
                for y, z in itertools.product((0, 1), repeat=2):
                    total = sum(
                        joint_prob(strategy, x, y, z, b, c)
                        for b in (0, 1)
                        for c in (0, 1)
                    )
                    assert abs(total - 1.0) <= 1e-9

    # (x, y, z, b, c) outside the domain: out-of-range bits, which once wrapped
    # around or indexed past the end, malformed x, and indices that are not
    # Python ints (floats, bools, numpy scalars, arrays).
    BAD_INDICES = [
        ((0, 2), 0, 0, 0, 0),
        ((-1, 0), 0, 0, 0, 0),
        ((1.0, 0), 0, 0, 0, 0),
        ((True, 0), 0, 0, 0, 0),
        ([1, 0], 0, 0, 0, 0),
        (np.array([1, 0]), 0, 0, 0, 0),
        ((0,), 0, 0, 0, 0),
        ((0, 0, 0), 0, 0, 0, 0),
        (2, 0, 0, 0, 0),
        ("ab", 0, 0, 0, 0),
        ((0, 0), -1, 0, 0, 0),
        ((0, 0), 2, 0, 0, 0),
        ((0, 0), 0, 1.0, 0, 0),
        ((0, 0), 0, np.int64(1), 0, 0),
        ((0, 0), 0, 0, 5, 0),
        ((0, 0), 0, 0, True, 0),
        ((0, 0), 0, 0, 0, -1),
        ((0, 0), 0, 0, 0, None),
        ((0, 0), 0, 0, 0, np.array([0])),
    ]

    @pytest.mark.parametrize("x, y, z, b, c", BAD_INDICES)
    def test_rejects_indices_outside_domain(self, x, y, z, b, c):
        with pytest.raises(DomainError, match="joint_prob needs"):
            joint_prob(canonical_strategy(0.8), x, y, z, b, c)

    def test_accepts_every_valid_index(self):
        strategy = canonical_strategy(0.8)
        for x, y, z, b, c in itertools.product(INPUT_PAIRS, *[(0, 1)] * 4):
            assert 0.0 <= joint_prob(strategy, x, y, z, b, c) <= 1.0


class TestWitnessAB:
    def test_optimal_value(self, canonical_sharp):
        assert witness_ab(canonical_sharp) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)

    def test_unsharp_value(self):
        assert witness_ab(canonical_strategy(0.8)) == pytest.approx(
            (2 + 0.8 * SQRT2) / 4, abs=1e-12
        )

    def test_mixed_preparations_score_half(self, rng):
        assert witness_ab(all_mixed(random_strategy(rng))) == pytest.approx(
            0.5, abs=1e-12
        )


class TestWitnessAC:
    def test_sharp_value(self, canonical_sharp):
        assert witness_ac(canonical_sharp) == pytest.approx((4 + SQRT2) / 8, abs=1e-12)

    def test_half_sharp_value(self, canonical_half):
        assert witness_ac(canonical_half) == pytest.approx((5 + SQRT2) / 8, abs=1e-12)

    def test_noninteracting_value(self):
        assert witness_ac(canonical_strategy(0.0)) == pytest.approx(
            (2 + SQRT2) / 4, abs=1e-12
        )

    def test_equals_full_distribution_sum(self, rng):
        for _ in range(25):
            strategy = random_strategy(rng)
            total = 0.0
            for x in INPUT_PAIRS:
                for y, b, z in itertools.product((0, 1), repeat=3):
                    total += joint_prob(strategy, x, y, z, b, x[z])
            assert witness_ac(strategy) == pytest.approx(total / 16.0, abs=1e-12)

    def test_equals_effective_ensemble_route(self, rng):
        for _ in range(50):
            strategy = random_strategy(rng)
            reached = effective_ensemble(strategy)
            total = 0.0
            for x, st in zip(INPUT_PAIRS, reached.states):
                for z in (0, 1):
                    effect = strategy.measurements[z].effects[x[z]]
                    total += float(np.trace(st.matrix @ effect).real)
            assert witness_ac(strategy) == pytest.approx(total / 8.0, abs=1e-12)


class TestWitnessPair:
    def test_half_sharp_pair(self, canonical_half):
        pair = witness_pair(canonical_half)
        assert pair.w_ab == pytest.approx(0.75, abs=1e-12)
        assert pair.w_ac == pytest.approx((5 + SQRT2) / 8, abs=1e-12)

    def test_equal_witness_sharpness(self):
        pair = witness_pair(canonical_strategy(0.8))
        expected = (5 + 2 * SQRT2) / 10
        assert pair.w_ab == pytest.approx(expected, abs=1e-12)
        assert pair.w_ac == pytest.approx(expected, abs=1e-12)

    def test_all_mixed_pair(self, rng):
        pair = witness_pair(all_mixed(random_strategy(rng)))
        assert pair == pytest.approx(WitnessPair(0.5, 0.5), abs=1e-12)


class TestEffectiveEnsemble:
    def test_sharp_instruments_halve_bloch_vectors(self, canonical_sharp):
        reached = effective_ensemble(canonical_sharp)
        for before, after in zip(canonical_sharp.preparations.states, reached.states):
            np.testing.assert_allclose(after.bloch, 0.5 * before.bloch, atol=1e-12)

    def test_noninteracting_instruments_do_nothing(self):
        strategy = canonical_strategy(0.0)
        reached = effective_ensemble(strategy)
        for before, after in zip(strategy.preparations.states, reached.states):
            np.testing.assert_allclose(after.bloch, before.bloch, atol=1e-12)

    def test_generic_shrink_factor(self):
        for eta in (0.3, 0.6, 0.95):
            strategy = canonical_strategy(eta)
            factor = (1 + np.sqrt(1 - eta**2)) / 2
            reached = effective_ensemble(strategy)
            for before, after in zip(strategy.preparations.states, reached.states):
                np.testing.assert_allclose(after.bloch, factor * before.bloch, atol=1e-12)

    def test_outputs_are_valid_states(self, rng):
        for _ in range(100):
            for st in effective_ensemble(random_strategy(rng)).states:
                assert abs(np.trace(st.matrix).real - 1.0) < 1e-9
                assert np.linalg.eigvalsh(st.matrix)[0] > -1e-9


class TestFrameInvariance:
    def test_witnesses_unchanged_by_global_conjugation(self, rng):
        for _ in range(50):
            strategy = random_strategy(rng)
            rotated = conjugate_strategy(strategy, random_su2(rng))
            before = witness_pair(strategy)
            after = witness_pair(rotated)
            assert after.w_ab == pytest.approx(before.w_ab, abs=1e-12)
            assert after.w_ac == pytest.approx(before.w_ac, abs=1e-12)

    @pytest.mark.parametrize(
        "u",
        [
            [[1.0, 1.0], [0.0, 1.0]],
            2.0 * np.eye(2),
            np.eye(2) + 1e-8,
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, np.inf]],
            np.eye(3),
            [[1.0, 0.0], [0.0]],
        ],
    )
    def test_rejects_non_unitary_and_non_finite(self, canonical_sharp, u):
        with pytest.raises(DomainError, match="^conjugation matrix"):
            conjugate_strategy(canonical_sharp, u)


class TestFromPolar:
    def test_unitaries_give_the_unchecked_bits(self, rng):
        for _ in range(50):
            povm = random_povm(rng)
            unitaries = ((random_su2(rng),), (random_su2(rng),))
            checked = BinaryInstrument.from_polar(unitaries, povm)
            trusted = BinaryInstrument._from_unitaries(unitaries, povm)
            for a, b in zip(checked.kraus_pair, trusted.kraus_pair):
                assert a.tobytes() == b.tobytes()

    def test_accepts_rounding_within_herm_tol(self):
        inst = BinaryInstrument.from_polar(((np.eye(2) * (1.0 + 4e-10),), (np.eye(2),)), SHARP_Z)
        assert inst.kraus_pair[0][0, 0] == 1.0 + 4e-10

    @pytest.mark.parametrize("u", [2.0 * np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2) + 2e-9])
    def test_rejects_non_unitary(self, u):
        with pytest.raises(CompletenessViolated, match="^polar unitaries have"):
            BinaryInstrument.from_polar(((u,), (np.eye(2),)), SHARP_Z)

    @pytest.mark.parametrize(
        "u", ["abc", [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], np.eye(3), [[1.0, 0.0], [0.0]]]
    )
    def test_rejects_non_numeric_and_non_finite(self, u):
        with pytest.raises(DomainError):
            BinaryInstrument.from_polar(((np.eye(2),), (u,)), SHARP_Z)


def _drawn_strategy(seed: int, luders: bool) -> Strategy:
    return random_strategy(np.random.default_rng(seed), luders)


SEEDS = st.integers(0, 2**63 - 1)


class TestWitnessProperties:
    """Independent formulations of the witnesses agree on random strategies."""

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.booleans())
    def test_equal_the_summed_distribution(self, seed, luders):
        s = _drawn_strategy(seed, luders)
        w_ab = w_ac = 0.0
        for x, y, z, b, c in itertools.product(INPUT_PAIRS, *[(0, 1)] * 4):
            p = joint_prob(s, x, y, z, b, c)
            w_ab += p if b == x[y] else 0.0
            w_ac += p if c == x[z] else 0.0
        pair = witness_pair(s)
        assert abs(pair.w_ab - w_ab / 16.0) <= 1e-12
        assert abs(pair.w_ac - w_ac / 16.0) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.booleans())
    def test_first_witness_equals_bloch_form(self, seed, luders):
        s = _drawn_strategy(seed, luders)
        m = difference_vectors(s.preparations)
        overlap = sum(float(np.dot(i.povm.cvec, m_y)) for i, m_y in zip(s.instruments, m))
        assert abs(witness_ab(s) - (0.5 + overlap / 16.0)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.booleans(), SEEDS)
    def test_invariant_under_haar_conjugation(self, seed, luders, frame_seed):
        s = _drawn_strategy(seed, luders)
        rotated = conjugate_strategy(s, random_su2(np.random.default_rng(frame_seed)))
        before, after = witness_pair(s), witness_pair(rotated)
        assert abs(after.w_ab - before.w_ab) <= 1e-12
        assert abs(after.w_ac - before.w_ac) <= 1e-12


class TestDataProcessing:
    def test_best_response_never_decreases_witness(self, rng):
        for _ in range(200):
            strategy = random_strategy(rng)
            _, best = charlie_best_response(
                strategy.preparations, strategy.instruments
            )
            assert best >= witness_ac(strategy) - 1e-12


class TestDifferenceVectors:
    def test_definition(self, rng):
        from seqrac.scenario import difference_vectors
        from seqrac.sampling import random_preparations

        preparations = random_preparations(rng)
        n = preparations.bloch_vectors()
        m0, m1 = difference_vectors(preparations)
        np.testing.assert_allclose(m0, (n[0] - n[3]) + (n[1] - n[2]), atol=1e-15)
        np.testing.assert_allclose(m1, (n[0] - n[3]) - (n[1] - n[2]), atol=1e-15)

    def test_orthogonal_for_square_ensembles(self):
        from seqrac.scenario import difference_vectors
        from seqrac.strategies import square_preparations

        m0, m1 = difference_vectors(square_preparations())
        assert abs(np.dot(m0, m1)) <= 1e-12
        assert np.linalg.norm(m0) == pytest.approx(2 * np.sqrt(2.0), abs=1e-12)


class TestValidation:
    def test_validate_accepts_random_strategies(self, rng):
        for _ in range(20):
            random_strategy(rng).validate()

    def test_validate_names_bad_component(self, rng):
        from seqrac.errors import InvalidStrategy
        from seqrac.linalg import ID2, BinaryPovm

        strategy = random_strategy(rng)
        broken = Strategy(
            strategy.preparations,
            strategy.instruments,
            (BinaryPovm((ID2, ID2), 0.0, np.zeros(3)), strategy.measurements[1]),
        )
        with pytest.raises(InvalidStrategy, match=r"measurements\[0\]"):
            broken.validate()

    def test_validate_rejects_a_stored_povm_that_disagrees_with_kraus(self):
        import dataclasses

        from seqrac.errors import InvalidStrategy

        strategy = canonical_strategy(0.8)
        weaker = canonical_strategy(0.7).instruments[1].povm
        instrument = dataclasses.replace(strategy.instruments[1], povm=weaker)
        broken = Strategy(strategy.preparations, (strategy.instruments[0], instrument),
                          strategy.measurements)
        with pytest.raises(
            InvalidStrategy, match=r"instruments\[1\]: stored POVM disagrees with Kraus operators"
        ):
            broken.validate()

    def test_validate_rejects_disagreeing_views(self, rng):
        from seqrac.errors import InvalidStrategy
        from seqrac.linalg import QubitState

        strategy = random_strategy(rng)
        states = list(strategy.preparations.states)
        states[2] = QubitState(states[2].matrix, states[2].bloch + np.array([0.0, 0.0, 1e-6]))
        broken = Strategy(PreparationEnsemble(tuple(states)), strategy.instruments,
                          strategy.measurements)
        with pytest.raises(InvalidStrategy, match=r"preparations\[2\]: matrix/bloch views disagree"):
            broken.validate()

    @pytest.mark.parametrize(
        "bloch, message",
        [
            (lambda b: b[:2], "must have 3 components"),
            (lambda b: np.array([np.nan, 0.0, 0.0]), "not finite"),
        ],
    )
    def test_validate_rejects_malformed_bloch_view(self, bloch, message):
        from seqrac.errors import InvalidStrategy
        from seqrac.linalg import QubitState

        strategy = canonical_strategy(1.0)
        states = list(strategy.preparations.states)
        states[1] = QubitState(states[1].matrix, bloch(states[1].bloch))
        broken = Strategy(PreparationEnsemble(tuple(states)), strategy.instruments,
                          strategy.measurements)
        with pytest.raises(InvalidStrategy, match=rf"preparations\[1\]: .*{message}"):
            broken.validate()
