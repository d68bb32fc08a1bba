"""Tests for the matrix constructors and the elementary band algebra."""

import numpy as np
import pytest

from neartoeplitz import (
    DenseMatrix,
    DimensionMismatch,
    NearToeplitzError,
    OrderTooSmall,
    SignPattern,
    TridiagonalMatrix,
    build_E,
    build_K,
    build_R,
    build_S,
    build_Z,
    build_toeplitz,
    flip_conjugate,
    in_pattern_class,
    is_centro_skew,
    is_centro_symmetric,
    matvec,
    sign_pattern,
)

EPS = np.finfo(np.float64).eps


def dense(matrix) -> np.ndarray:
    if isinstance(matrix, TridiagonalMatrix):
        return matrix.to_dense().entries
    return matrix.entries


class TestBuildR:
    def test_n4_matches_display(self):
        expected = np.array(
            [
                [-1, 1, 0, 0],
                [-1, 0, 1, 0],
                [0, -1, 0, 1],
                [0, 0, -1, 1],
            ]
        )
        assert np.array_equal(dense(build_R(4)), expected)

    def test_n2_smallest_case(self):
        assert np.array_equal(dense(build_R(2)), np.array([[-1, 1], [-1, 1]]))

    def test_n3_direct_substitution(self):
        expected = np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
        assert np.array_equal(dense(build_R(3)), expected)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_order_too_small(self, n):
        with pytest.raises(OrderTooSmall):
            build_R(n)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_shift_decomposition(self, n):
        # R_n = Z_n^T - Z_n - e_1 e_1^T + e_n e_n^T, exact integers
        z = dense(build_Z(n))
        correction = np.zeros((n, n))
        correction[0, 0] = -1.0
        correction[n - 1, n - 1] = 1.0
        assert np.array_equal(dense(build_R(n)), z.T - z + correction)


class TestBuildZ:
    def test_n4_display(self):
        expected = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        )
        assert np.array_equal(dense(build_Z(4)), expected)

    def test_n1_is_zero_matrix(self):
        assert np.array_equal(dense(build_Z(1)), np.zeros((1, 1)))

    def test_n3_bands(self):
        z = build_Z(3)
        assert np.array_equal(z.sub, np.ones(2))
        assert np.array_equal(z.diag, np.zeros(3))
        assert np.array_equal(z.sup, np.zeros(2))

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            build_Z(0)


class TestBuildK:
    def test_n4_rows(self):
        expected = np.array(
            [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
        )
        assert np.array_equal(dense(build_K(4)), expected)

    def test_n1_zero(self):
        assert np.array_equal(dense(build_K(1)), np.zeros((1, 1)))

    def test_skew_symmetry_n5(self):
        k = dense(build_K(5))
        assert np.array_equal(k.T, -k)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_equals_shift_commutand(self, n):
        z = dense(build_Z(n))
        assert np.array_equal(dense(build_K(n)), z.T - z)


class TestBuildS:
    def test_n4_display(self):
        expected = np.array(
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
        )
        assert np.array_equal(dense(build_S(4)), expected)

    def test_n1_identity(self):
        assert np.array_equal(dense(build_S(1)), np.eye(1))

    def test_unit_determinant_n6(self):
        assert abs(np.linalg.det(dense(build_S(6))) - 1.0) < 1e-12


class TestBuildE:
    def test_n2(self):
        assert np.array_equal(dense(build_E(2)), np.array([[0, 1], [1, 0]]))

    def test_n3_anti_identity(self):
        expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert np.array_equal(dense(build_E(3)), expected)

    def test_involution_n5(self):
        e = dense(build_E(5))
        assert np.array_equal(e @ e, np.eye(5))


class TestBuildToeplitz:
    def test_n4_layout(self):
        a, b, c = 2.0 - 1.0j, 0.5, 3.0
        t = dense(build_toeplitz(a, b, c, 4))
        expected = np.array(
            [[b, c, 0, 0], [a, b, c, 0], [0, a, b, c], [0, 0, a, b]]
        )
        assert np.array_equal(t, expected)

    def test_reproduces_K(self):
        assert np.array_equal(dense(build_toeplitz(-1, 0, 1, 5)), dense(build_K(5)))

    def test_zero_bands_give_diagonal(self):
        b = 4.25
        assert np.array_equal(dense(build_toeplitz(0, b, 0, 3)), b * np.eye(3))

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            build_toeplitz(1, 0, 1, 0)


class TestMatvec:
    def test_all_ones_in_kernel_of_R(self):
        out = matvec(build_R(4), np.ones(4))
        assert np.array_equal(out, np.zeros(4))

    def test_identity_diag(self):
        ident = build_toeplitz(0, 1, 0, 5)
        v = np.array([1.0, -2.0, 3.0j, 0.5, 2.0 - 1.0j])
        assert np.array_equal(matvec(ident, v), v)

    def test_K3_first_basis_vector(self):
        # hand expansion of the 3x3 product
        out = matvec(build_K(3), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(out, np.array([0.0, -1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matvec(build_K(3), np.ones(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
    def test_agrees_with_dense_product(self, n):
        rng = np.random.default_rng(2024 + n)
        bands = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        A = TridiagonalMatrix(sub=bands[0, : n - 1], diag=bands[1], sup=bands[2, : n - 1])
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = dense(A) @ v
        norm_a = np.abs(dense(A)).sum(axis=1).max()
        bound = 4 * n * EPS * norm_a * np.abs(v).max()
        assert np.abs(matvec(A, v) - expected).max() <= bound


class TestFlipConjugate:
    def test_R4_is_negated(self):
        # independent oracle: explicit index reversal entry by entry
        r = dense(build_R(4))
        reversed_entries = np.array(
            [[r[3 - i, 3 - j] for j in range(4)] for i in range(4)]
        )
        flipped = dense(flip_conjugate(build_R(4)))
        assert np.array_equal(flipped, reversed_entries)
        assert np.array_equal(flipped, -r)

    def test_identity_fixed(self):
        ident = DenseMatrix(np.eye(4))
        assert np.array_equal(dense(flip_conjugate(ident)), np.eye(4))

    def test_K3_is_negated(self):
        assert np.array_equal(dense(flip_conjugate(build_K(3))), -dense(build_K(3)))

    def test_matches_explicit_exchange_product(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e = dense(build_E(6))
        assert np.array_equal(dense(flip_conjugate(a)), e @ a @ e)

    def test_involution(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        twice = dense(flip_conjugate(flip_conjugate(a)))
        assert np.array_equal(twice, a)


class TestCentroPredicates:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_R_is_centro_skew_not_centro_symmetric(self, n):
        R = build_R(n)
        assert is_centro_skew(R)
        assert not is_centro_symmetric(R)

    def test_exchange_is_centro_symmetric(self):
        assert is_centro_symmetric(build_E(4))

    def test_identity_is_not_centro_skew(self):
        assert not is_centro_skew(np.eye(3))

    def test_band_verdicts_match_dense_verdicts(self):
        # in class, centro-skew and centro-symmetric bands, each also with one
        # entry perturbed and with its zeros negated; -0.0 == 0.0 both ways
        rng = np.random.default_rng(29)
        hits = {"skew": 0, "symmetric": 0}
        for n in (1, 2, 3, 4, 7, 10):
            sub = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            half, middle = diag[: n // 2], diag[n // 2 : n - n // 2]
            bases = [
                (sub, np.concatenate((half, [-0.0] * len(middle), -half[::-1])), -sub[::-1]),
                (sub, np.concatenate((half, middle, half[::-1])), sub[::-1]),
            ]
            if n >= 2:
                corners = np.zeros(n)
                corners[0], corners[-1] = -rng.uniform(0.5, 2), rng.uniform(0.5, 2)
                bases.append((-rng.uniform(0.5, 2, n - 1), corners, rng.uniform(0.5, 2, n - 1)))
            for base in bases:
                variants = [base, tuple(np.where(band == 0, -0.0, band) for band in base)]
                for k, band in enumerate(base):
                    if len(band):
                        bumped = [b.copy() for b in base]
                        bumped[k][rng.integers(len(band))] += 0.25
                        variants.append(tuple(bumped))
                for sub_v, diag_v, sup_v in variants:
                    A = TridiagonalMatrix(sub=sub_v, diag=diag_v, sup=sup_v)
                    skew, symmetric = is_centro_skew(A), is_centro_symmetric(A)
                    assert skew == is_centro_skew(A.to_dense())
                    assert symmetric == is_centro_symmetric(A.to_dense())
                    hits["skew"] += skew
                    hits["symmetric"] += symmetric
        assert hits["skew"] >= 12 and hits["symmetric"] >= 12


class TestPatternClass:
    def test_R5_in_class(self):
        assert in_pattern_class(build_R(5))

    def test_K5_not_in_class(self):
        # corner entries are 0, not signed
        assert not in_pattern_class(build_K(5))

    def test_positive_scaling_preserves_membership(self):
        assert in_pattern_class(0.5 * dense(build_R(4)))

    def test_off_band_entry_rejected(self):
        a = np.array(dense(build_R(4)))
        a[0, 3] = 1e-30
        assert not in_pattern_class(a)

    def test_interior_diagonal_entry_rejected(self):
        a = np.array(dense(build_R(4)))
        a[1, 1] = 1e-30
        assert not in_pattern_class(a)

    def test_complex_entries_rejected(self):
        a = np.array(dense(build_R(4)), dtype=np.complex128)
        a[0, 1] = 1.0 + 1e-30j
        assert not in_pattern_class(a)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            in_pattern_class(np.array([[-1.0]]))


class TestSignPattern:
    def test_sign_of_zero_is_zero(self):
        pattern = sign_pattern(np.array([[0.0, 2.5], [-1e-300, -0.0]]))
        assert np.array_equal(pattern.signs, np.array([[0, 1], [-1, 0]]))

    def test_R_pattern(self):
        pattern = sign_pattern(build_R(4))
        expected = np.array(
            [[-1, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 1]]
        )
        assert np.array_equal(pattern.signs, expected)
        assert pattern.n == 4

    def test_entries_outside_signs_rejected(self):
        with pytest.raises(NearToeplitzError):
            SignPattern(np.array([[2, 0], [0, 1]]))

    def test_complex_input_rejected(self):
        with pytest.raises(NearToeplitzError):
            sign_pattern(np.array([[1j, 0], [0, 1]]))


class TestTypeInvariants:
    def test_band_lengths_enforced(self):
        with pytest.raises(DimensionMismatch):
            TridiagonalMatrix(sub=np.ones(3), diag=np.ones(3), sup=np.ones(2))

    def test_non_finite_rejected(self):
        with pytest.raises(NearToeplitzError):
            TridiagonalMatrix(sub=np.ones(1), diag=np.array([np.nan, 0.0]), sup=np.ones(1))
        with pytest.raises(NearToeplitzError):
            DenseMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_dense_must_be_square(self):
        with pytest.raises(DimensionMismatch):
            DenseMatrix(np.ones((2, 3)))

    def test_bands_are_read_only(self):
        k = build_K(4)
        with pytest.raises(ValueError):
            k.diag[0] = 5.0
