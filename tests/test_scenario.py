"""Witness functionals and the outcome distribution."""

import dataclasses
import itertools
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqrac import (
    Strategy,
    WitnessPair,
    canonical_strategy,
    charlie_best_response,
    conjugate_strategy,
    effective_ensemble,
    joint_prob,
    selftest_report,
    witness_ab,
    witness_pair,
)
from seqrac.documents import document_text, parse_strategy_document
from seqrac.errors import CompletenessViolated, DomainError, InvalidStrategy
from seqrac.linalg import (
    HERM_TOL,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    BinaryPovm,
    QubitState,
    as_matrix2,
    bloch_decompose,
    polar_decompose,
    projective_povm,
    state_from_bloch,
    validate_povm,
)
from seqrac.optimizer import ReducedParameters, seesaw, strategy_from_reduced
from seqrac.sampling import random_povm, random_strategy, random_su2
from seqrac.scenario import INPUT_PAIRS, BinaryInstrument, difference_vectors
from seqrac.strategies import VisibilityTriple, apply_visibility
from classical_model import EMBEDDABLE_BOB_CODES, ClassicalStrategy, embed

SQRT2 = np.sqrt(2.0)
SHARP_Z = projective_povm([0.0, 0.0, 1.0])


def all_mixed(strategy: Strategy) -> Strategy:
    mixed = tuple(state_from_bloch([0, 0, 0]) for _ in range(4))
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


def frozen_joint_prob(s, x, y, z, b, c) -> float:
    """``joint_prob`` with its trace taken by ``np.trace``, as written before it read the
    two diagonal entries itself: the bit oracle of the outcome table."""
    rho = s.preparations[2 * x[0] + x[1]].matrix
    branch = np.zeros((2, 2), dtype=complex)
    for k in (s.instruments[y].kraus[b],):
        branch += k @ rho @ k.conj().T
    p = float(np.trace(branch @ s.measurements[z].effects[c]).real)
    return min(max(p, 0.0), 1.0)


class TestJointProbBits:
    @pytest.mark.parametrize("luders", [False, True])
    def test_table_equals_the_np_trace_copy_on_random_strategies(self, luders):
        rng = np.random.default_rng([2601, luders])
        for _ in range(150):
            s = random_strategy(rng, luders)
            for index in itertools.product(INPUT_PAIRS, *[(0, 1)] * 4):
                assert joint_prob(s, *index).hex() == frozen_joint_prob(s, *index).hex(), index

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_table_equals_the_np_trace_copy_on_canonical_strategies(self, eta):
        # sharpness 1 makes projectors, whose products hold exact zeros
        s = canonical_strategy(eta)
        for index in itertools.product(INPUT_PAIRS, *[(0, 1)] * 4):
            assert joint_prob(s, *index).hex() == frozen_joint_prob(s, *index).hex(), index

    def test_negative_zero_diagonal_reads_as_np_trace_reads_it(self):
        # a product with -0.0 on both diagonal entries: the trace from 0.0 gives 0.0, where a
        # bare m00 + m11 would print -0.000000.  The effect hands joint_prob that product
        # itself, because whether zgemm makes a -0.0 depends on the OpenBLAS kernel.
        class FixedProduct:
            __array_ufunc__ = None  # so numpy leaves branch @ effect to __rmatmul__

            def __rmatmul__(self, branch):
                return np.array([[-0.0, 1.0], [1.0, -0.0]], dtype=complex)

        s = SimpleNamespace(
            preparations=[SimpleNamespace(matrix=ID2)] * 4,
            instruments=[SimpleNamespace(kraus=(ID2, ID2))] * 2,
            measurements=[SimpleNamespace(effects=(FixedProduct(), FixedProduct()))] * 2,
        )
        got = joint_prob(s, (0, 0), 0, 0, 0, 0)
        assert got.hex() == frozen_joint_prob(s, (0, 0), 0, 0, 0, 0).hex() == "0x0.0p+0"


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
        assert witness_pair(canonical_sharp).w_ac == pytest.approx((4 + SQRT2) / 8, abs=1e-12)

    def test_half_sharp_value(self, canonical_half):
        assert witness_pair(canonical_half).w_ac == pytest.approx((5 + SQRT2) / 8, abs=1e-12)

    def test_noninteracting_value(self):
        assert witness_pair(canonical_strategy(0.0)).w_ac == pytest.approx(
            (2 + SQRT2) / 4, abs=1e-12
        )

    def test_equals_full_distribution_sum(self, rng):
        for _ in range(25):
            strategy = random_strategy(rng)
            total = 0.0
            for x in INPUT_PAIRS:
                for y, b, z in itertools.product((0, 1), repeat=3):
                    total += joint_prob(strategy, x, y, z, b, x[z])
            assert witness_pair(strategy).w_ac == pytest.approx(total / 16.0, abs=1e-12)

    def test_equals_effective_ensemble_route(self, rng):
        for _ in range(50):
            strategy = random_strategy(rng)
            reached = effective_ensemble(strategy)
            total = 0.0
            for x, st in zip(INPUT_PAIRS, reached):
                for z in (0, 1):
                    effect = strategy.measurements[z].effects[x[z]]
                    total += float(np.trace(st.matrix @ effect).real)
            assert witness_pair(strategy).w_ac == pytest.approx(total / 8.0, abs=1e-12)


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

    def test_single_witness_is_the_pair_field(self):
        rng = np.random.default_rng(3301)
        strategies = [random_strategy(rng, luders) for luders in (False, True) for _ in range(100)]
        strategies += [canonical_strategy(eta) for eta in (0.0, 0.5, 0.8, 1 / SQRT2, 1.0)]
        codes = itertools.product((0, 6, 9, 15), EMBEDDABLE_BOB_CODES, (3, 12), (5, 10))
        strategies += [embed(ClassicalStrategy.from_codes(*code)) for code in codes]
        for s in strategies:
            pair = witness_pair(s)
            assert witness_ab(s).hex() == pair.w_ab.hex()


class TestEffectiveEnsemble:
    def test_sharp_instruments_halve_bloch_vectors(self, canonical_sharp):
        reached = effective_ensemble(canonical_sharp)
        for before, after in zip(canonical_sharp.preparations, reached):
            np.testing.assert_allclose(after.bloch, 0.5 * before.bloch, atol=1e-12)

    def test_noninteracting_instruments_do_nothing(self):
        strategy = canonical_strategy(0.0)
        reached = effective_ensemble(strategy)
        for before, after in zip(strategy.preparations, reached):
            np.testing.assert_allclose(after.bloch, before.bloch, atol=1e-12)

    def test_generic_shrink_factor(self):
        for eta in (0.3, 0.6, 0.95):
            strategy = canonical_strategy(eta)
            factor = (1 + np.sqrt(1 - eta**2)) / 2
            reached = effective_ensemble(strategy)
            for before, after in zip(strategy.preparations, reached):
                np.testing.assert_allclose(after.bloch, factor * before.bloch, atol=1e-12)

    def test_outputs_are_valid_states(self, rng):
        for _ in range(100):
            for st in effective_ensemble(random_strategy(rng)):
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


def frozen_from_kraus(k0, k1) -> BinaryInstrument:
    """``BinaryInstrument.from_kraus`` as it was, one ``K^dag K`` per operator."""
    kraus = np.array([as_matrix2(k0), as_matrix2(k1)])
    effects = []
    for k in kraus:
        m = 0.0 + k.conj().T @ k
        effects.append(0.5 * (m + m.conj().T))
    dev = float(np.max(np.abs(effects[0] + effects[1] - ID2)))
    if dev > HERM_TOL:
        raise CompletenessViolated(f"Kraus operators sum to I + {dev:.3e}")
    povm = validate_povm(effects[0], effects[1])
    return BinaryInstrument(kraus, povm, np.array([polar_decompose(k)[0] for k in kraus]))


def frozen_conjugate_strategy(s: Strategy, v: np.ndarray) -> Strategy:
    """``conjugate_strategy`` as it was, one ``v @ m @ v^dag`` per matrix."""
    vh = v.conj().T
    preps = []
    for st in s.preparations:
        m = v @ st.matrix @ vh
        m = 0.5 * (m + m.conj().T)
        preps.append(QubitState(m, 2.0 * bloch_decompose(m)[1]))
    instruments = tuple(frozen_from_kraus(v @ i.kraus[0] @ vh, v @ i.kraus[1] @ vh) for i in s.instruments)
    measurements = tuple(validate_povm(v @ p.effects[0] @ vh, v @ p.effects[1] @ vh) for p in s.measurements)
    return Strategy(tuple(preps), instruments, measurements)


def _bits(obj) -> list:
    """Every array's dtype, shape and bytes, and every float's hex, in field order."""
    if isinstance(obj, np.ndarray):
        return [f"{obj.dtype.str}{obj.shape}{obj.tobytes().hex()}"]
    if dataclasses.is_dataclass(obj):
        return [b for f in dataclasses.fields(obj) for b in _bits(getattr(obj, f.name))]
    if isinstance(obj, tuple):
        return [b for item in obj for b in _bits(item)]
    return [float(obj).hex()]


class TestStackedProducts:
    """``conjugate_strategy`` and ``from_kraus`` make their 2x2 products as one stacked matmul;
    they must give the bits of the per-matrix bodies above."""

    def _strategies(self):
        rng = np.random.default_rng(2607)
        for luders in (False, True):
            for _ in range(100):
                yield random_strategy(rng, luders)
        for eta in (0.0, 0.5, 1.0):
            yield canonical_strategy(eta)
        for code in range(16):  # classical embeddings: zero entries of either sign
            yield embed(ClassicalStrategy.from_codes(code, EMBEDDABLE_BOB_CODES[code % 4], 15 - code, 3))

    def test_conjugate_strategy_matches_per_matrix_body(self):
        rng = np.random.default_rng(2608)
        frames = [ID2, SIGMA_X, SIGMA_Y, np.diag([1.0, -0.0 + 1j])]
        checked = 0
        for s in self._strategies():
            for v in frames + [random_su2(rng)]:
                assert _bits(conjugate_strategy(s, v)) == _bits(frozen_conjugate_strategy(s, v))
                checked += 1
        assert checked > 1000

    def test_from_kraus_matches_per_operator_body(self):
        pairs = [inst.kraus for s in self._strategies() for inst in s.instruments]
        for z in itertools.product((0.0, -0.0), repeat=4):  # basis projectors, zeros of either sign
            pairs.append(([[1.0, z[0]], [z[1], z[2]]], [[z[3], -0.0], [z[0], -1.0]]))
        for k0, k1 in pairs:
            assert _bits(BinaryInstrument.from_kraus(k0, k1)) == _bits(frozen_from_kraus(k0, k1))

    @pytest.mark.parametrize(
        "scale, error, message",
        [(2.0, CompletenessViolated, r"^effects sum to identity \+ 4\.000e\+00$"),
         (1e30, CompletenessViolated, r"^effects sum to identity \+ 1\.000e\+60$"),
         (1e76, DomainError, r"^matrix has entries beyond 1e\+150, too large to square$"),
         (1e149, DomainError, r"^matrix has entries beyond 1e\+150, too large to square$")],
        ids=["moderate", "large", "above_1e75", "near_max_entry"],
    )
    def test_incomplete_pairs_fail_in_validate_povm(self, scale, error, message):
        # validate_povm owns the checks of K^dag K; its entry bound comes before completeness.
        with pytest.raises(error, match=message):
            BinaryInstrument.from_kraus(scale * ID2, ID2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16), st.floats(0.0, 6.0))
    def test_incomplete_pairs_fail_completeness_at_any_scale(self, parts, exponent):
        # K^dag K is Hermitian and positive by construction, but its rounding grows with the
        # entries and passes HERM_TOL from about 1e4 on: an incomplete pair must still be
        # named incomplete, not non-Hermitian or non-positive, up to entries of 1e6.
        kraus = 10.0**exponent * (np.array(parts[:8]) + 1j * np.array(parts[8:])).reshape(2, 2, 2)
        assume(np.abs(sum(k.conj().T @ k for k in kraus) - ID2).max() > 1e-6)
        with pytest.raises(CompletenessViolated, match=r"^effects sum to identity \+ "):
            BinaryInstrument.from_kraus(*kraus)


class TestFromPolar:
    def test_unitaries_give_the_unchecked_bits(self, rng):
        for _ in range(50):
            povm = random_povm(rng)
            unitaries = (random_su2(rng), random_su2(rng))
            checked = BinaryInstrument.from_polar(unitaries, povm)
            trusted = BinaryInstrument._from_unitaries(np.array(unitaries), povm)
            assert checked.kraus.tobytes() == trusted.kraus.tobytes()
            assert checked.unitaries.tobytes() == trusted.unitaries.tobytes()

    def test_accepts_rounding_within_herm_tol(self):
        inst = BinaryInstrument.from_polar((np.eye(2) * (1.0 + 4e-10), np.eye(2)), SHARP_Z)
        assert inst.kraus[0][0, 0] == 1.0 + 4e-10

    @pytest.mark.parametrize("u", [2.0 * np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2) + 2e-9])
    def test_rejects_non_unitary(self, u):
        with pytest.raises(CompletenessViolated, match="^polar unitaries have"):
            BinaryInstrument.from_polar((u, np.eye(2)), SHARP_Z)

    @pytest.mark.parametrize(
        "u", ["abc", [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], np.eye(3), [[1.0, 0.0], [0.0]]]
    )
    def test_rejects_non_numeric_and_non_finite(self, u):
        with pytest.raises(DomainError):
            BinaryInstrument.from_polar((np.eye(2), u), SHARP_Z)

    @pytest.mark.parametrize(
        "unitaries",
        [((), (ID2,)), ((ID2, ID2), (ID2,)), ((ID2,),), 5, ((ID2,), (ID2,)), ID2, (ID2, ID2, ID2)],
        ids=["empty branch", "two in a branch", "one branch", "int", "branch layout", "matrix", "triple"],
    )
    def test_takes_only_a_pair_of_matrices(self, unitaries):
        with pytest.raises(DomainError):
            BinaryInstrument.from_polar(unitaries, SHARP_Z)


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
            assert best >= witness_pair(strategy).w_ac - 1e-12


class TestDifferenceVectors:
    def test_definition(self, rng):
        from seqrac.scenario import difference_vectors
        from seqrac.sampling import random_preparations

        preparations = random_preparations(rng)
        n = np.array([st.bloch for st in preparations])
        m0, m1 = difference_vectors(preparations)
        np.testing.assert_allclose(m0, (n[0] - n[3]) + (n[1] - n[2]), atol=1e-15)
        np.testing.assert_allclose(m1, (n[0] - n[3]) - (n[1] - n[2]), atol=1e-15)

    def test_orthogonal_for_square_ensembles(self):
        from seqrac.scenario import difference_vectors
        from seqrac.strategies import square_preparations

        m0, m1 = difference_vectors(square_preparations())
        assert abs(np.dot(m0, m1)) <= 1e-12
        assert np.linalg.norm(m0) == pytest.approx(2 * np.sqrt(2.0), abs=1e-12)


class TestEffectsLayout:
    """Every ``BinaryPovm`` that seqrac builds holds one C-contiguous complex128 ``(2, 2, 2)`` array."""

    def test_every_constructor_builds_one_array(self, rng):
        s = random_strategy(rng)
        parsed = parse_strategy_document(json.loads(document_text(s)))
        povms = [
            BinaryPovm.from_observable(0.1, [0.3, 0.0, 0.4]),
            validate_povm(ID2, 0.0 * ID2),
            projective_povm([1.0, 1.0, 0.0]),
            random_povm(rng),
            random_povm(rng, allow_offset=False),
            *parsed.measurements,
            *(i.povm for i in parsed.instruments),
            *charlie_best_response(s.preparations, s.instruments)[0],
            *conjugate_strategy(s, random_su2(rng)).measurements,
            *apply_visibility(s, VisibilityTriple(0.9, 0.8, 0.7)).measurements,
            *(BinaryInstrument.from_kraus(*i.kraus).povm for i in s.instruments),
        ]
        for povm in povms:
            e = povm.effects
            assert type(e) is np.ndarray and e.dtype == np.complex128 and e.shape == (2, 2, 2)
            assert e.flags.c_contiguous


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
            (BinaryPovm(np.array([ID2, ID2]), 0.0, np.zeros(3)), strategy.measurements[1]),
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

    @pytest.mark.parametrize(
        "layout, got",
        [(tuple, "tuple"), (np.asfortranarray, "complex128 array of shape \\(2, 2, 2\\)"),
         (lambda e: e.real.copy(), "float64 array of shape \\(2, 2, 2\\)"),
         (lambda e: e[:, None], "complex128 array of shape \\(2, 1, 2, 2\\)")],
        ids=["tuple", "fortran", "real", "shape"],
    )
    @pytest.mark.parametrize("where", ["instruments[1]", "measurements[0]"])
    def test_validate_rejects_effects_outside_the_one_layout(self, where, layout, got):
        # Before validate_povm: a tuple of two effects would pass every numeric check.
        strategy = canonical_strategy(0.8)
        if where == "measurements[0]":
            povm = strategy.measurements[0]
            broken = dataclasses.replace(strategy, measurements=(
                dataclasses.replace(povm, effects=layout(povm.effects)), strategy.measurements[1]))
        else:
            inst = strategy.instruments[1]
            povm = dataclasses.replace(inst.povm, effects=layout(inst.povm.effects))
            broken = dataclasses.replace(strategy, instruments=(
                strategy.instruments[0], dataclasses.replace(inst, povm=povm)))
        message = rf"^{re.escape(where)}: POVM effects must be one C-contiguous complex \(2, 2, 2\) array, got {got}$"
        with pytest.raises(InvalidStrategy, match=message):
            broken.validate()

    @pytest.mark.parametrize(
        "layout, got",
        [(tuple, "tuple"), (np.asfortranarray, "complex128 array of shape \\(2, 2, 2\\)"),
         (lambda a: a.real.copy(), "float64 array of shape \\(2, 2, 2\\)"),
         (lambda a: a[:, None], "complex128 array of shape \\(2, 1, 2, 2\\)")],
        ids=["tuple", "fortran", "real", "shape"],
    )
    @pytest.mark.parametrize("field, what", [("kraus", "Kraus operators"), ("unitaries", "polar unitaries")])
    @pytest.mark.parametrize("y", [0, 1])
    def test_validate_rejects_operators_outside_the_one_layout(self, y, field, what, layout, got):
        # witness_pair would read any of these as it is.
        strategy = canonical_strategy(0.8)
        inst = strategy.instruments[y]
        inst = dataclasses.replace(inst, **{field: layout(getattr(inst, field))})
        broken = dataclasses.replace(strategy, instruments=tuple(
            inst if i == y else strategy.instruments[i] for i in (0, 1)))
        message = rf"^instruments\[{y}\]: {what} must be one C-contiguous complex \(2, 2, 2\) array"
        with pytest.raises(InvalidStrategy, match=rf"{message}, got {got}$"):
            broken.validate()

    @pytest.mark.parametrize(
        "field, stale, gap",
        [("c0", lambda povm: 0.1, r"1\.000e-01"), ("c0", lambda povm: np.nan, "nan"),
         ("cvec", lambda povm: 0.5 * povm.cvec, r"\d\.\d{3}e-01"),
         ("cvec", lambda povm: povm.cvec[:2], "nan")],
        ids=["c0", "nan_c0", "half_cvec", "short_cvec"],
    )
    @pytest.mark.parametrize(
        "where", ["instruments[0]", "instruments[1]", "measurements[0]", "measurements[1]"]
    )
    def test_validate_rejects_bloch_data_that_disagrees_with_the_effects(self, where, field, stale, gap):
        # The effects stay valid; only c0 or cvec, which selftest_report reads, is stale.
        strategy = canonical_strategy(0.8)
        name, index = where[:-3], int(where[-2])
        part = list(getattr(strategy, name))
        povm = part[index].povm if name == "instruments" else part[index]
        povm = dataclasses.replace(povm, **{field: stale(povm)})
        part[index] = dataclasses.replace(part[index], povm=povm) if name == "instruments" else povm
        broken = dataclasses.replace(strategy, **{name: tuple(part)})
        source = "Kraus operators" if name == "instruments" else "its effects"
        message = rf"^{re.escape(where)}: stored POVM disagrees with {source} by {gap}$"
        with pytest.raises(InvalidStrategy, match=message):
            broken.validate()
        with pytest.raises(InvalidStrategy, match=message):
            selftest_report(broken)

    def test_selftest_report_rejects_stale_instrument_and_measurement_data(self):
        # With these, selftest_report once gave bob_offsets (0.1, 0.0) and a sharpness defect 0.400.
        strategy = canonical_strategy(0.8)
        inst = strategy.instruments[0]
        stale = dataclasses.replace(inst.povm, c0=0.1, cvec=0.5 * inst.povm.cvec)
        broken = dataclasses.replace(strategy, instruments=(
            dataclasses.replace(inst, povm=stale), strategy.instruments[1]))
        with pytest.raises(InvalidStrategy, match=r"^instruments\[0\]: stored POVM disagrees with Kraus"):
            selftest_report(broken)
        wrong = dataclasses.replace(strategy.measurements[0], cvec=-strategy.measurements[0].cvec)
        broken = dataclasses.replace(strategy, measurements=(wrong, strategy.measurements[1]))
        with pytest.raises(InvalidStrategy, match=r"^measurements\[0\]: stored POVM disagrees with its"):
            selftest_report(broken)

    def test_validate_compares_the_bloch_view_with_the_readers_rebuild(self):
        # The strategy-file reader's rule, |bloch - from_matrix(matrix).bloch| <= HERM_TOL.
        strategy = canonical_strategy(0.8)
        states = list(strategy.preparations)
        states[3] = QubitState(states[3].matrix, states[3].bloch + np.array([0.0, 1.5 * HERM_TOL, 0.0]))
        broken = dataclasses.replace(strategy, preparations=tuple(states))
        message = r"^preparations\[3\]: matrix/bloch views disagree by 1\.500e-09$"
        with pytest.raises(InvalidStrategy, match=message):
            broken.validate()
        states[3] = QubitState(states[3].matrix, strategy.preparations[3].bloch + 0.5 * HERM_TOL)
        dataclasses.replace(strategy, preparations=tuple(states)).validate()

    def test_validate_rejects_polar_unitaries_that_are_not_unitary(self):
        # apply_visibility rebuilds the Kraus operators from these, so they must hold too.
        import dataclasses

        from seqrac.errors import InvalidStrategy

        strategy = canonical_strategy(0.8)
        instrument = dataclasses.replace(strategy.instruments[0], unitaries=np.array([2.0 * ID2, ID2]))
        broken = Strategy(strategy.preparations, (instrument, strategy.instruments[1]),
                          strategy.measurements)
        with pytest.raises(InvalidStrategy, match=r"^instruments\[0\]: polar unitaries have U\^dag U = I \+ 3"):
            broken.validate()

    def test_validate_rejects_three_preparations(self):
        # witness_pair reads the stack as it is; selftest_report's contract is InvalidStrategy.
        strategy = canonical_strategy(0.8)
        short = dataclasses.replace(strategy, preparations=strategy.preparations[:3])
        with pytest.raises(InvalidStrategy, match=r"^preparations: need a tuple or list of 4, got 3$"):
            short.validate()
        with pytest.raises(InvalidStrategy, match=r"^preparations: "):
            selftest_report(short)

    def test_validate_rejects_one_instrument(self):
        strategy = canonical_strategy(0.8)
        short = dataclasses.replace(strategy, instruments=strategy.instruments[:1])
        with pytest.raises(InvalidStrategy, match=r"^instruments: need a tuple or list of 2, got 1$"):
            short.validate()

    def test_validate_rejects_four_measurements(self):
        strategy = canonical_strategy(0.8)
        long = dataclasses.replace(strategy, measurements=strategy.measurements * 2)
        with pytest.raises(InvalidStrategy, match=r"^measurements: need a tuple or list of 2, got 4$"):
            long.validate()

    @pytest.mark.parametrize("field", ["preparations", "instruments", "measurements"])
    @pytest.mark.parametrize(
        "wrap, got", [(iter, "tuple_iterator"), (lambda part: part[0], r"\w+")], ids=["iterator", "entry"]
    )
    def test_validate_rejects_a_non_sequence(self, field, wrap, got):
        strategy = canonical_strategy(0.8)
        broken = dataclasses.replace(strategy, **{field: wrap(getattr(strategy, field))})
        with pytest.raises(InvalidStrategy, match=rf"^{field}: need a tuple or list of \d, got {got}$"):
            broken.validate()

    @pytest.mark.parametrize(
        "u, message",
        [(SIGMA_X, r"U\^dag K has negative eigenvalue -3\.162e-01"), (1j * ID2, "hermiticity deviation")],
        ids=["sigma_x", "i"],
    )
    def test_validate_rejects_polar_unitaries_that_do_not_give_the_kraus_operators(self, u, message):
        # K_b = U_b sqrt(M_b) fails for these unitaries, and apply_visibility rebuilds from them.
        strategy = canonical_strategy(0.8)
        instrument = dataclasses.replace(strategy.instruments[0], unitaries=np.array([u, ID2]))
        broken = Strategy(strategy.preparations, (instrument, strategy.instruments[1]),
                          strategy.measurements)
        with pytest.raises(InvalidStrategy, match=rf"^instruments\[0\]: {message}"):
            broken.validate()

    def test_validate_accepts_every_kind_of_strategy_and_its_document(self):
        rng = np.random.default_rng(2801)
        etas = [*np.linspace(0.0, 1.0, 51).tolist(), 1.0 - 2.0**-53]
        strategies = [random_strategy(rng, luders) for luders in (False, True) for _ in range(150)]
        strategies += [canonical_strategy(eta) for eta in etas]
        strategies += [conjugate_strategy(canonical_strategy(eta), random_su2(rng)) for eta in etas]
        strategies += [conjugate_strategy(random_strategy(rng, luders), random_su2(rng))
                       for luders in (False, True) for _ in range(50)]
        noise = VisibilityTriple(0.95, 0.9, 0.85)
        strategies += [apply_visibility(s, noise) for s in strategies[:20] + strategies[300:320]]
        strategies += [strategy_from_reduced(ReducedParameters(t, p0, p1))
                       for t, p0, p1 in rng.uniform(0.0, np.pi / 2, size=(20, 3)).tolist()]
        strategies += [seesaw(alpha).strategy for alpha in (0.55, 0.75, 0.85)]
        strategies += [embed(ClassicalStrategy.from_codes(e, b, 6, 5))
                       for e in (3, 5, 6, 9) for b in EMBEDDABLE_BOB_CODES]
        # Every device of the 16384 embeddings: validate checks each component on its own.
        strategies += [embed(ClassicalStrategy.from_codes(i, b, i, i))
                       for b in EMBEDDABLE_BOB_CODES for i in range(16)]
        for i, s in enumerate(strategies):
            assert s.validate() is s, i
            parse_strategy_document(json.loads(document_text(s))).validate()

    def test_validate_rejects_disagreeing_views(self, rng):
        from seqrac.errors import InvalidStrategy
        from seqrac.linalg import QubitState

        strategy = random_strategy(rng)
        states = list(strategy.preparations)
        states[2] = QubitState(states[2].matrix, states[2].bloch + np.array([0.0, 0.0, 1e-6]))
        broken = Strategy(tuple(states), strategy.instruments,
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
        states = list(strategy.preparations)
        states[1] = QubitState(states[1].matrix, bloch(states[1].bloch))
        broken = Strategy(tuple(states), strategy.instruments,
                          strategy.measurements)
        with pytest.raises(InvalidStrategy, match=rf"preparations\[1\]: .*{message}"):
            broken.validate()
