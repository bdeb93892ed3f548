"""Canonical family, visibility noise, and the classical model."""

import itertools

import numpy as np
import pytest

from seqrac import (
    VisibilityTriple,
    apply_visibility,
    canonical_strategy,
    canonical_witness_pair,
    classical_to_strategy,
    joint_prob,
    witness_pair,
    witness_pair_classical,
)
from seqrac.errors import DomainError, InvalidStrategy
from seqrac.scenario import INPUT_PAIRS
from seqrac.strategies import ClassicalStrategy

SQRT2 = np.sqrt(2.0)


class TestCanonicalStrategy:
    def test_sharp_pair(self):
        pair = witness_pair(canonical_strategy(1.0))
        assert pair.w_ab == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert pair.w_ac == pytest.approx((4 + SQRT2) / 8, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for eta in np.linspace(0.0, 1.0, 101):
            pair = witness_pair(canonical_strategy(eta))
            closed = canonical_witness_pair(eta)
            assert pair.w_ab == pytest.approx(closed.w_ab, abs=1e-12)
            assert pair.w_ac == pytest.approx(closed.w_ac, abs=1e-12)

    def test_noninteracting_scores_half(self):
        assert witness_pair(canonical_strategy(0.0)).w_ab == pytest.approx(0.5, abs=1e-12)

    def test_rejects_out_of_range_sharpness(self):
        with pytest.raises(DomainError):
            canonical_strategy(1.5)

    def test_preparations_form_a_square(self):
        blochs = canonical_strategy(0.5).preparations.bloch_vectors()
        for n in blochs:
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)  # pure
        np.testing.assert_allclose(blochs[0], -blochs[3], atol=1e-12)  # antipodal
        np.testing.assert_allclose(blochs[1], -blochs[2], atol=1e-12)
        angle = np.arccos(np.dot(blochs[0], blochs[1]))
        assert angle == pytest.approx(np.pi / 2, abs=1e-12)


class TestApplyVisibility:
    def test_unit_visibility_is_identity(self, canonical_half):
        noisy = apply_visibility(canonical_half, VisibilityTriple(1.0, 1.0, 1.0))
        before, after = witness_pair(canonical_half), witness_pair(noisy)
        assert after.w_ab == pytest.approx(before.w_ab, abs=1e-14)
        assert after.w_ac == pytest.approx(before.w_ac, abs=1e-14)

    def test_reproduces_published_noise_point(self, canonical_half):
        noisy = apply_visibility(canonical_half, VisibilityTriple(0.95, 0.90, 0.95))
        pair = witness_pair(noisy)
        assert pair.w_ab == pytest.approx(0.71375, abs=1e-10)
        assert round(pair.w_ac, 4) == pytest.approx(0.7826)

    def test_dead_source_gives_coin_flips(self, canonical_half):
        noisy = apply_visibility(canonical_half, VisibilityTriple(0.0, 1.0, 1.0))
        pair = witness_pair(noisy)
        assert pair.w_ab == pytest.approx(0.5, abs=1e-12)
        assert pair.w_ac == pytest.approx(0.5, abs=1e-12)

    def test_composition_multiplies_componentwise(self, rng):
        from seqrac.sampling import random_strategy

        first = VisibilityTriple(0.9, 0.8, 0.7)
        second = VisibilityTriple(0.6, 0.9, 0.85)
        product = VisibilityTriple(0.9 * 0.6, 0.8 * 0.9, 0.7 * 0.85)
        for _ in range(20):
            strategy = random_strategy(rng)
            twice = apply_visibility(apply_visibility(strategy, first), second)
            once = apply_visibility(strategy, product)
            a, b = witness_pair(twice), witness_pair(once)
            assert a.w_ab == pytest.approx(b.w_ab, abs=1e-12)
            assert a.w_ac == pytest.approx(b.w_ac, abs=1e-12)
            for inst_a, inst_b in zip(twice.instruments, once.instruments):
                np.testing.assert_allclose(inst_a.povm.cvec, inst_b.povm.cvec, atol=1e-12)

    def test_rejects_bad_visibility(self):
        with pytest.raises(DomainError):
            VisibilityTriple(1.2, 1.0, 1.0)

    def test_rejects_multi_operator_branches(self):
        # Bob answers 0 to both messages, so branch 0 holds two Kraus operators.
        embedded = classical_to_strategy(ClassicalStrategy.from_codes(0, 0, 0, 0))
        with pytest.raises(InvalidStrategy, match="single-Kraus instruments"):
            apply_visibility(embedded, VisibilityTriple(1.0, 1.0, 1.0))

    def test_closed_form_noise_law(self, rng):
        # w_ab = 1/2 + va vb eta / (2 sqrt(2));
        # w_ac = 1/2 + va vc sqrt(2) (1 + sqrt(1 - (vb eta)^2)) / 8
        for _ in range(100):
            eta = rng.uniform(0, 1)
            va, vb, vc = rng.uniform(0, 1, size=3)
            noisy = apply_visibility(
                canonical_strategy(eta), VisibilityTriple(va, vb, vc)
            )
            pair = witness_pair(noisy)
            expected_ab = 0.5 + va * vb * eta / (2 * SQRT2)
            shrink = 1 + np.sqrt(1 - (vb * eta) ** 2)
            expected_ac = 0.5 + va * vc * SQRT2 * shrink / 8
            assert pair.w_ab == pytest.approx(expected_ab, abs=1e-12)
            assert pair.w_ac == pytest.approx(expected_ac, abs=1e-12)


class TestClassicalModel:
    def test_relay_first_bit_saturates_bound(self):
        cs = ClassicalStrategy.relay_first_bit()
        assert cs == ClassicalStrategy((0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1))
        assert witness_pair_classical(cs) == (0.75, 0.75)

    def test_constant_message_scores_half(self):
        cs = ClassicalStrategy(
            encode=(0, 0, 0, 0),
            bob_out=(0, 0, 0, 0),
            relay=(0, 0, 0, 0),
            charlie_out=(0, 0, 0, 0),
        )
        pair = witness_pair_classical(cs)
        assert pair.w_ab == 0.5
        assert pair.w_ac == 0.5

    def test_second_bit_encoding_success_pattern(self):
        # Message x1, Bob repeats it: always right at y=1, coin flip at y=0.
        cs = ClassicalStrategy(
            encode=(0, 1, 0, 1),
            bob_out=(0, 0, 1, 1),
            relay=(0, 0, 1, 1),
            charlie_out=(0, 0, 1, 1),
        )
        pair = witness_pair_classical(cs)
        assert pair.w_ab == 0.75
        hits_y1 = sum(
            cs.bob_out[2 * cs.encode[2 * x0 + x1] + 1] == x1
            for x0, x1 in INPUT_PAIRS
        )
        assert hits_y1 == 4

    def test_embedding_reproduces_distribution_exactly(self, rng):
        for _ in range(40):
            codes = rng.integers(0, 16, size=4)
            cs = ClassicalStrategy.from_codes(*[int(v) for v in codes])
            strategy = classical_to_strategy(cs)
            for x in INPUT_PAIRS:
                m = cs.encode[2 * x[0] + x[1]]
                for y, z in itertools.product((0, 1), repeat=2):
                    b = cs.bob_out[2 * m + y]
                    c = cs.charlie_out[2 * cs.relay[2 * m + y] + z]
                    for bb, cc in itertools.product((0, 1), repeat=2):
                        expected = 1.0 if (bb, cc) == (b, c) else 0.0
                        assert joint_prob(strategy, x, y, z, bb, cc) == pytest.approx(
                            expected, abs=1e-12
                        )

    def test_embedding_matches_exact_witnesses(self, rng):
        for _ in range(60):
            codes = rng.integers(0, 16, size=4)
            cs = ClassicalStrategy.from_codes(*[int(v) for v in codes])
            exact = witness_pair_classical(cs)
            embedded = witness_pair(classical_to_strategy(cs))
            assert embedded.w_ab == pytest.approx(exact.w_ab, abs=1e-12)
            assert embedded.w_ac == pytest.approx(exact.w_ac, abs=1e-12)

    def test_random_sample_respects_classical_bound(self, rng):
        for _ in range(500):
            codes = rng.integers(0, 16, size=4)
            pair = witness_pair_classical(
                ClassicalStrategy.from_codes(*[int(v) for v in codes])
            )
            assert pair.w_ab <= 0.75 and pair.w_ac <= 0.75

    @pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, 2, -1, np.int64(1), "1", None])
    def test_table_bits_are_ints_0_or_1(self, bit):
        tables = dict(encode=(0, 0, 1, 1), bob_out=(0, 0, 1, 1), relay=(0, 0, 1, 1),
                      charlie_out=(0, 0, 1, 1))
        for name in tables:
            table = (bit,) + tables[name][1:]
            with pytest.raises(InvalidStrategy) as info:
                ClassicalStrategy(**{**tables, name: table})
            assert str(info.value) == f"{name} must be four bits, got {table!r}"

    def test_all_codes_build(self):
        for code in range(16):
            cs = ClassicalStrategy.from_codes(code, code, code, code)
            assert cs.encode == tuple((code >> i) & 1 for i in range(4))
            assert all(type(bit) is int for bit in cs.encode + cs.relay)
