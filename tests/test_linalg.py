"""Closed-form 2x2 kernels against independent numpy.linalg oracles."""

import warnings

import numpy as np
import pytest

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
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BinaryPovm,
    QubitState,
    bloch_from_matrix,
    eigvals_hermitian,
    matrix_sqrt_psd,
    max_eigenpair,
    polar_decompose,
    projective_povm,
    rotation_from_unitary,
    state_from_bloch,
    unitary_from_rotation,
    validate_povm,
)
from seqrac.sampling import random_su2

INV_SQRT2 = 1.0 / np.sqrt(2.0)
NON_FINITE = (
    np.full((2, 2), np.nan),
    [[1.0, np.nan], [np.nan, 0.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [complex(0.0, -np.inf), 1.0]],
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
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
            with pytest.raises(DomainError):
                state_from_bloch(bad)

    def test_round_trip_on_random_ball(self, rng):
        for _ in range(10_000):
            n = rng.normal(size=3)
            n *= rng.uniform() / np.linalg.norm(n)
            st = state_from_bloch(n)
            np.testing.assert_allclose(bloch_from_matrix(st.matrix), n, atol=1e-12)

    def test_bloch_from_matrix_rejects_non_finite(self):
        for bad in NON_FINITE:
            with pytest.raises(DomainError):
                bloch_from_matrix(np.asarray(bad, dtype=complex))

    def test_valid_state_spectrum(self, rng):
        for _ in range(1000):
            n = rng.normal(size=3)
            n *= rng.uniform() / np.linalg.norm(n)
            hi, lo = eigvals_hermitian(state_from_bloch(n).matrix)
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
        for bad in (*NON_FINITE, np.eye(3), [[1.0, 0.0], [0.0]], "ab"):
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
        for bad in (*NON_FINITE, np.eye(3)):
            with pytest.raises(DomainError):
                polar_decompose(bad)

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
                         (np.inf, [0.0, 0.0, 0.5]), (0.0, [0.0, -np.inf, 0.0])):
            with pytest.raises(DomainError):
                BinaryPovm.from_observable(c0, cvec)

    def test_projective_rejects_axis_without_direction(self):
        for axis in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    projective_povm(axis)

    def test_rejects_non_hermitian(self):
        skew = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(NotHermitian):
            validate_povm(skew, ID2 - skew)


class TestRotationBridge:
    def test_conjugation_matches_rotation(self, rng):
        for _ in range(200):
            u = random_su2(rng)
            r = rotation_from_unitary(u)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)
            v = rng.normal(size=3)
            op = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
            rotated = u @ op @ u.conj().T
            rv = r @ v
            expected = rv[0] * SIGMA_X + rv[1] * SIGMA_Y + rv[2] * SIGMA_Z
            np.testing.assert_allclose(rotated, expected, atol=1e-10)

    def test_round_trip_rotation(self, rng):
        for _ in range(200):
            u = random_su2(rng)
            r = rotation_from_unitary(u)
            u2 = unitary_from_rotation(r)
            # equal up to a global sign
            gap = min(np.max(np.abs(u - u2)), np.max(np.abs(u + u2)))
            assert gap <= 1e-9

    def test_half_turn_rotations(self):
        # trace-negative branch of the quaternion extraction
        for axis in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            u = -1j * axis  # exp(-i pi axis/2)
            r = rotation_from_unitary(u)
            u2 = unitary_from_rotation(r)
            gap = min(np.max(np.abs(u - u2)), np.max(np.abs(u + u2)))
            assert gap <= 1e-12


class TestExplicitTolerance:
    def test_validity_checks_follow_the_tol_argument(self):
        def povm(d):  # E0 = (I + (1 + d) Z)/2 has eigenvalue -d/2
            e0 = 0.5 * (ID2 + (1.0 + d) * SIGMA_Z)
            return e0, ID2 - e0

        validate_povm(*povm(1e-9))  # inside the HERM_TOL = 1e-9 default
        with pytest.raises(NotPsd):
            validate_povm(*povm(1e-9), tol=1e-12)
        with pytest.raises(NotPsd):
            validate_povm(*povm(1e-7))
        validate_povm(*povm(1e-7), tol=1e-3)


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
