"""Closed-form 2x2 kernels against independent numpy.linalg oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqrac.errors import (
    BlochNormExceeded,
    CompletenessViolated,
    DomainError,
    NotHermitian,
    NotPsd,
    SeqracError,
)
from seqrac.linalg import (
    ID2,
    MAX_ENTRY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BinaryPovm,
    QubitState,
    _dot,
    _dots,
    _norm,
    bloch_from_matrix,
    matrix_sqrt_psd,
    max_eigenpair,
    polar_decompose,
    projective_povm,
    state_from_bloch,
    validate_povm,
)
from seqrac.sampling import random_su2
from seqrac.scenario import conjugate_strategy
from seqrac.strategies import canonical_strategy
from conftest import require_hermitian

INV_SQRT2 = 1.0 / np.sqrt(2.0)
NON_FINITE = (
    np.full((2, 2), np.nan),
    [[1.0, np.nan], [np.nan, 0.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [complex(0.0, -np.inf), 1.0]],
)
# Finite, but their squares overflow.
TOO_LARGE = (
    np.full((2, 2), 1e308),
    [[1.0, 1e308], [1e308, 1.0]],
    np.diag([1e308, -1e308]),
    [[1.0, complex(0.0, 2.0 * MAX_ENTRY)], [complex(0.0, -2.0 * MAX_ENTRY), 1.0]],
)


def random_hermitian(rng):
    a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    return a + a.conj().T


class TestStateFromBloch:
    def test_origin_is_maximally_mixed(self):
        st = state_from_bloch([0.0, 0.0, 0.0])
        np.testing.assert_allclose(st.matrix, 0.5 * ID2, atol=1e-15)

    def test_square_vertex_matches_explicit_form(self):
        st = state_from_bloch([INV_SQRT2, 0.0, INV_SQRT2])
        expected = 0.5 * (ID2 + (SIGMA_X + SIGMA_Z) / np.sqrt(2.0))
        np.testing.assert_allclose(st.matrix, expected, atol=1e-15)

    def test_outside_ball_rejected(self):
        with pytest.raises(BlochNormExceeded):
            state_from_bloch([0.0, 0.0, 2.0])
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf],
                    [1.0, 0.0], [[0.0, 0.0, 0.5]], ["a", 0.0, 0.0]):
            with pytest.raises(DomainError):
                state_from_bloch(bad)

    def test_round_trip_on_random_ball(self, rng):
        for _ in range(10_000):
            n = rng.normal(size=3)
            n *= rng.uniform() / np.linalg.norm(n)
            st = state_from_bloch(n)
            np.testing.assert_allclose(bloch_from_matrix(st.matrix), n, atol=1e-12)

    def test_bloch_from_matrix_rejects_non_finite(self):
        for bad in (*NON_FINITE, *TOO_LARGE):
            with pytest.raises(DomainError):
                bloch_from_matrix(np.asarray(bad, dtype=complex))

    def test_valid_state_spectrum(self, rng):
        for _ in range(1000):
            n = rng.normal(size=3)
            n *= rng.uniform() / np.linalg.norm(n)
            lo, hi = np.linalg.eigvalsh(state_from_bloch(n).matrix)
            assert -1e-9 <= lo and hi <= 1 + 1e-9
            assert abs(hi + lo - 1.0) < 1e-9


class TestMaxEigenpair:
    def test_pauli_z(self):
        pair = max_eigenpair(SIGMA_Z)
        assert pair.value == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(pair.vector, [1.0, 0.0], atol=1e-15)

    def test_x_projector(self):
        pair = max_eigenpair(0.5 * (ID2 + SIGMA_X))
        assert pair.value == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(pair.vector, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_sandwiched_pauli_closed_value(self):
        # sqrt(M) X sqrt(M) with M = (I + eta Z)/2 has top eigenvalue
        # sqrt(1 - eta^2)/2; frozen from the 2x2 characteristic polynomial.
        eta = INV_SQRT2
        root = matrix_sqrt_psd(0.5 * (ID2 + eta * SIGMA_Z))
        pair = max_eigenpair(root @ SIGMA_X @ root)
        assert pair.value == pytest.approx(0.5 * np.sqrt(1 - eta**2), abs=1e-12)
        assert pair.value == pytest.approx(0.35355339059327373, abs=1e-6)

    def test_residual_and_oracle_agreement(self, rng):
        for _ in range(10_000):
            h = random_hermitian(rng)
            lam, vec = max_eigenpair(h)
            assert np.linalg.norm(h @ vec - lam * vec) <= 1e-10
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            assert lam == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            max_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite_and_non_matrix(self):
        for bad in (*NON_FINITE, *TOO_LARGE, np.eye(3), [[1.0, 0.0], [0.0]], "ab"):
            with pytest.raises(DomainError):
                max_eigenpair(bad)
        assert issubclass(DomainError, SeqracError)

    def test_degenerate_tie_break(self):
        pair = max_eigenpair(np.zeros((2, 2)))
        np.testing.assert_allclose(pair.vector, [1.0, 0.0], atol=0)


class TestMatrixSqrt:
    def test_scalar_matrix(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(0.5 * ID2), ID2 / np.sqrt(2.0), atol=1e-15
        )

    def test_projector_is_fixed_point(self):
        proj = 0.5 * (ID2 + SIGMA_X)
        np.testing.assert_allclose(matrix_sqrt_psd(proj), proj, atol=1e-15)

    def test_spectral_oracle(self):
        m = 0.5 * (ID2 + 0.8 * SIGMA_X)
        root = matrix_sqrt_psd(m)
        vals = np.linalg.eigvalsh(root)
        np.testing.assert_allclose(vals, [np.sqrt(0.1), np.sqrt(0.9)], atol=1e-12)

    def test_square_reconstructs(self, rng):
        for _ in range(2000):
            a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            m = a @ a.conj().T
            root = matrix_sqrt_psd(m)
            np.testing.assert_allclose(root @ root, m, atol=1e-10)
            assert np.linalg.eigvalsh(root)[0] >= -1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            matrix_sqrt_psd(SIGMA_Z)

    def test_rejects_non_finite(self):
        for bad in NON_FINITE:
            with pytest.raises(DomainError, match="not finite"):
                matrix_sqrt_psd(bad)
        for bad in TOO_LARGE:
            with pytest.raises(DomainError, match="too large to square"):
                matrix_sqrt_psd(bad)


class TestEntryBound:
    """Entries up to ``MAX_ENTRY`` run the kernels to finite values, without a
    RuntimeWarning (pytest turns one into an error)."""

    @pytest.mark.parametrize("m", [
        MAX_ENTRY * ID2,
        MAX_ENTRY * np.ones((2, 2)),
        MAX_ENTRY * (SIGMA_Z + SIGMA_X - SIGMA_Y),
        MAX_ENTRY * np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, -1.0]]),
    ])
    def test_kernels_stay_finite(self, m):
        pair = max_eigenpair(m)
        assert np.isfinite(pair.value) and np.isfinite(pair.vector).all()
        assert np.isfinite(bloch_from_matrix(m)).all()
        assert np.isfinite(matrix_sqrt_psd(m, tol=np.inf)).all()


class TestPolarDecompose:
    def test_psd_input_gives_identity_unitary(self):
        root = matrix_sqrt_psd(0.5 * (ID2 + 0.6 * SIGMA_X))
        u, p = polar_decompose(root)
        np.testing.assert_allclose(u, ID2, atol=1e-12)
        np.testing.assert_allclose(p, root, atol=1e-12)

    def test_scaled_pauli(self):
        u, p = polar_decompose(SIGMA_X / np.sqrt(2.0))
        np.testing.assert_allclose(u, SIGMA_X, atol=1e-12)
        np.testing.assert_allclose(p, ID2 / np.sqrt(2.0), atol=1e-12)

    def test_rank_one_projector(self):
        proj = 0.5 * (ID2 + SIGMA_X)
        u, p = polar_decompose(proj)
        np.testing.assert_allclose(u, ID2, atol=1e-12)
        np.testing.assert_allclose(p, proj, atol=1e-12)

    def test_zero_matrix(self):
        u, p = polar_decompose(np.zeros((2, 2)))
        np.testing.assert_allclose(u, ID2, atol=0)
        np.testing.assert_allclose(p, np.zeros((2, 2)), atol=0)

    def test_reconstruction_on_random(self, rng):
        for _ in range(10_000):
            k = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            u, p = polar_decompose(k)
            assert np.max(np.abs(k - u @ p)) <= 1e-10
            np.testing.assert_allclose(u.conj().T @ u, ID2, atol=1e-10)

    def test_rejects_non_finite(self):
        for bad in (*NON_FINITE, *TOO_LARGE, np.eye(3)):
            with pytest.raises(DomainError):
                polar_decompose(bad)

    @pytest.mark.parametrize("k", [
        MAX_ENTRY * np.ones((2, 2)),
        MAX_ENTRY * np.array([[1.0 + 1.0j, -1.0 + 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]]),
        MAX_ENTRY * np.array([[1.0, 0.0], [0.0, -1.0j]]),
        MAX_ENTRY * np.array([[1.0, 1.0], [0.0, 1.0j]]),
        # entries of K^dag K beyond MAX_ENTRY
        pytest.param(np.full((2, 2), 1e100), id="gram-overflow-1e100"),
        pytest.param([[0.0, 1.01 * np.sqrt(MAX_ENTRY / 8.0)], [0.0, 0.0]],
                     id="gram-overflow-off-diagonal"),
    ])
    def test_entries_at_the_bound_give_finite_factors(self, k):
        # the SVD never squares K, so every entry within MAX_ENTRY is accepted
        k = np.asarray(k, dtype=complex)
        u, p = polar_decompose(k)
        assert np.isfinite(u).all() and np.isfinite(p).all()
        np.testing.assert_allclose(u.conj().T @ u, ID2, atol=1e-12)
        np.testing.assert_allclose(u @ p, k, atol=1e-13 * np.abs(k).max())

    @pytest.mark.parametrize("scale", [1e-4, 1e-8, 1e-15, 1e-160, 5e-324])
    def test_small_input_keeps_a_unitary_factor(self, scale):
        # LAPACK rescales an SVD input this small, so U keeps its columns
        # orthonormal down to subnormal entries
        for k in (np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [0.0, 1.0j]])):
            u, _ = polar_decompose(scale * k)
            assert np.isfinite(u).all()
            np.testing.assert_allclose(u.conj().T @ u, ID2, atol=1e-12)
            if scale >= 1e-15:
                np.testing.assert_allclose(u, polar_decompose(k)[0], atol=1e-9)

    def test_rank_one_input_keeps_a_unitary_factor(self, rng):
        # the second singular value of a rank-one K is rounding only; U must
        # not take K v1 as its second column
        for _ in range(2000):
            a, b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            k = np.outer(a, b)
            u, p = polar_decompose(k)
            np.testing.assert_allclose(u.conj().T @ u, ID2, atol=1e-12)
            np.testing.assert_allclose(u @ p, k, atol=1e-13 * np.abs(k).max())

    # A root of K^dag K put U off by about eps / s_min near rank one (3e-8).
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([1.0 - 2.0**-53, 1.0]), st.floats(0.99, 1.0)),
           st.integers(0, 2**63 - 1))
    @example(1.0 - 2.0**-53, 0)
    @example(1.0, 0)
    def test_near_sharp_kraus_operators_to_machine_precision(self, eta, frame_seed):
        u_frame = random_su2(np.random.default_rng(frame_seed))
        rotated = conjugate_strategy(canonical_strategy(eta), u_frame)
        for inst in rotated.instruments:
            for k in inst.kraus:
                u, p = polar_decompose(k)
                assert np.abs(u @ p - k).max() <= 1e-13
                assert np.abs(u.conj().T @ u - ID2).max() <= 1e-13

    def test_rank_one_shift_operator(self):
        # |0><1| is rank-deficient with a nontrivial unitary part
        k = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        u, p = polar_decompose(k)
        np.testing.assert_allclose(u @ p, k, atol=1e-14)
        np.testing.assert_allclose(u.conj().T @ u, ID2, atol=1e-14)
        np.testing.assert_allclose(p, np.diag([0.0, 1.0]), atol=1e-14)


class TestValidatePovm:
    def test_projective_x(self):
        povm = validate_povm(0.5 * (ID2 + SIGMA_X), 0.5 * (ID2 - SIGMA_X))
        assert povm.c0 == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(povm.cvec, [1.0, 0.0, 0.0], atol=1e-15)

    def test_completeness_violation(self):
        with pytest.raises(CompletenessViolated):
            validate_povm(ID2, ID2)

    def test_unsharp_z(self):
        povm = validate_povm(0.5 * (ID2 + 0.8 * SIGMA_Z), 0.5 * (ID2 - 0.8 * SIGMA_Z))
        assert povm.sharpness == pytest.approx(0.8, abs=1e-15)

    def test_rejects_indefinite_effect(self):
        with pytest.raises(NotPsd):
            validate_povm(ID2 + SIGMA_Z, -SIGMA_Z)

    def test_from_observable_domain(self):
        with pytest.raises(NotPsd):
            BinaryPovm.from_observable(0.6, [0.0, 0.0, 0.5])
        for c0, cvec in ((np.nan, [0.0, 0.0, 0.5]), (0.0, [np.nan, 0.0, 0.5]),
                         (np.inf, [0.0, 0.0, 0.5]), (0.0, [0.0, -np.inf, 0.0]),
                         (0.0, [1.0, 0.0]), (0.0, [[0.0, 0.0, 0.5]]), (0.0, ["a", 0.0, 0.0])):
            with pytest.raises(DomainError):
                BinaryPovm.from_observable(c0, cvec)

    def test_projective_rejects_axis_without_direction(self):
        for axis in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0],
                     [1.0, 0.0], [[1.0, 0.0, 0.0]], [[1.0], [0.0, 0.0]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    projective_povm(axis)

    def test_rejects_non_hermitian(self):
        skew = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(NotHermitian):
            validate_povm(skew, ID2 - skew)


class TestHermTol:
    def test_validity_checks_read_herm_tol(self):
        """The validity checks take no ``tol``; each reads ``HERM_TOL = 1e-9``, and so
        does ``matrix_sqrt_psd`` by default: one positivity gate."""
        def povm(d):  # E0 = (I + (1 + d) Z)/2 has eigenvalue -d/2
            e0 = 0.5 * (ID2 + (1.0 + d) * SIGMA_Z)
            return e0, ID2 - e0

        for check in (lambda d: validate_povm(*povm(d)),
                      lambda d: QubitState.from_matrix(povm(d)[0]),
                      lambda d: matrix_sqrt_psd(povm(d)[0])):
            check(1e-9)  # eigenvalue -0.5e-9, inside HERM_TOL
            with pytest.raises(NotPsd):
                check(1e-7)  # eigenvalue -0.5e-7

    @pytest.mark.parametrize("func", [require_hermitian, matrix_sqrt_psd, max_eigenpair])
    @pytest.mark.parametrize("tol", [np.nan, -1e-9, -np.inf, "x", None, True, 1j])
    def test_tol_must_be_a_number_at_least_zero(self, func, tol):
        # NaN fails every comparison, so as a tol it would switch each check off.
        with pytest.raises(DomainError):
            func([[1.0, 5.0], [0.0, -3.0]], tol=tol)

    @pytest.mark.parametrize("func", [require_hermitian, matrix_sqrt_psd, max_eigenpair])
    def test_infinite_or_zero_tol_is_accepted(self, func):
        func([[1.0, 5.0], [0.0, -3.0]], tol=np.inf)  # no check at all
        func(np.diag([1.0, 0.0]), tol=0)


class TestQubitState:
    def test_from_matrix_rejects_bad_trace(self):
        with pytest.raises(NotPsd):
            QubitState.from_matrix(ID2)

    def test_from_matrix_rejects_negative(self):
        with pytest.raises(NotPsd):
            QubitState.from_matrix(0.5 * ID2 + SIGMA_Z)

    def test_purity(self):
        assert state_from_bloch([0, 0, 1.0]).purity() == pytest.approx(1.0)
        assert state_from_bloch([0, 0, 0.0]).purity() == pytest.approx(0.5)


# Entries whose exponents spread over the whole range within MAX_ENTRY (about
# 2**498), signed zeros and subnormals included; a dot of such vectors is finite.
ENTRY = st.one_of(
    st.floats(-MAX_ENTRY, MAX_ENTRY),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-490, 490)),
    st.sampled_from([0.0, -0.0]),
)


def vectors(k):
    return st.lists(ENTRY, min_size=k, max_size=k).map(np.array)


def hexes(values) -> list:
    return [float(x).hex() for x in values]


class TestShortDot:
    """``_dot``, ``_norm`` and ``_dots`` take ``np.dot``'s and ``np.linalg.norm``'s
    operations, bit for bit, on whatever kernels run below them."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(vectors(k), vectors(k))))
    @example((np.zeros(3), np.zeros(3)))
    @example((np.array([-0.0, -0.0, -0.0]), np.array([0.0, -0.0, 0.0])))
    @example((np.array([-0.0, 0.0]), np.array([-0.0, 0.0])))
    def test_dot_and_norm_take_numpys_operations(self, pair):
        x, y = pair
        assert type(_dot(x, y)) is float and type(_norm(x)) is float
        assert _dot(x, y).hex() == float(np.dot(x, y)).hex()
        assert _norm(x).hex() == float(np.linalg.norm(x)).hex()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.integers(1, 12).flatmap(
                lambda n: st.tuples(*[st.lists(vectors(k), min_size=n, max_size=n)] * 2)
            )
        )
    )
    @example(([np.zeros(3)], [np.array([-0.0, 0.0, -0.0])]))
    def test_dots_is_one_dot_per_row(self, rows):
        x, y = np.array(rows[0]), np.array(rows[1])
        assert _dots(x, y).shape == (len(x),)
        assert hexes(_dots(x, y)) == hexes(np.dot(a, b) for a, b in zip(x, y))
        # The length of each row, as the checks suites take it.
        assert hexes(np.sqrt(_dots(x, x))) == hexes(np.linalg.norm(r) for r in x)
        # Rows of a strided stack, as the suites draw them.
        both = np.stack([x, y], axis=1).reshape(-1, x.shape[1])
        assert hexes(_dots(both[0::2], both[1::2])) == hexes(_dots(x, y))
