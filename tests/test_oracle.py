"""Tests for the brute-force verification tools."""

import math
import struct

import numpy as np
import pytest

from neartoeplitz import (
    DimensionMismatch,
    OrderTooLarge,
    ZeroVector,
    build_K,
    build_R,
    build_toeplitz,
    char_poly_eval,
    general_toeplitz_eigen,
    near_toeplitz_eigen,
    rank_small,
    residual,
    skew_toeplitz_eigen,
    spectrum_compare,
    symmetric_toeplitz_eigen,
)

SQRT2 = math.sqrt(2.0)


class TestCharPoly:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 1j, 2.0 - 3.0j])
    def test_R2_char_poly_is_lambda_squared(self, lam):
        # det(lam I - R_2) = (lam+1)(lam-1) + 1 = lam^2
        ev = char_poly_eval(build_R(2), lam)
        assert ev.value == complex(lam) ** 2

    def test_R2_exact_zero_at_origin(self):
        assert char_poly_eval(build_R(2), 0.0).value == 0.0

    def test_K3_root(self):
        ev = char_poly_eval(build_K(3), 1j * SQRT2)
        assert abs(ev.value) <= 1e-12

    def test_identity_at_zero(self):
        ident = build_toeplitz(0, 1, 0, 3)
        assert char_poly_eval(ident, 0.0).value == -1.0

    def test_scale_dominates_value(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            bands = rng.standard_normal((3, n))
            A = build_toeplitz(bands[0, 0], bands[1, 0], bands[2, 0], n)
            lam = complex(*rng.standard_normal(2))
            ev = char_poly_eval(A, lam)
            assert ev.scale >= max(1.0, abs(ev.value))

    def test_matches_numpy_determinant(self):
        rng = np.random.default_rng(9)
        for n in range(1, 9):
            sub = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sup = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            from neartoeplitz import TridiagonalMatrix

            A = TridiagonalMatrix(sub=sub, diag=diag, sup=sup)
            lam = complex(*rng.standard_normal(2))
            expected = np.linalg.det(lam * np.eye(n) - A.to_dense().entries)
            ev = char_poly_eval(A, lam)
            assert abs(ev.value - expected) <= 1e-10 * ev.scale

    def test_depends_on_band_product_only(self):
        # the recurrence sees sub*sup, so (2,3) and (6,1) agree bitwise
        for lam in (0.0, 0.5, 2.0 - 1.0j, 3.3j):
            left = char_poly_eval(build_toeplitz(2, 0.7, 3, 9), lam)
            right = char_poly_eval(build_toeplitz(6, 0.7, 1, 9), lam)
            assert left.value == right.value
            assert left.scale == right.scale

    @pytest.mark.parametrize("n", range(2, 33))
    def test_closed_forms_are_roots(self, n):
        cases = [
            (build_R(n), near_toeplitz_eigen(n).eigenvalues()),
            (build_K(n), [p.value for p in skew_toeplitz_eigen(n)]),
            (
                build_toeplitz(1, 5, 1, n),
                [p.value for p in symmetric_toeplitz_eigen(1.0, 5.0, n)],
            ),
        ]
        for matrix, values in cases:
            for lam in values:
                ev = char_poly_eval(matrix, lam)
                assert abs(ev.value) <= 1e-8 * ev.scale


def char_poly_reference(A, lam):
    """The continuant loop as first written, indexing the numpy bands per step."""
    lam = complex(lam)
    p_prev = 1.0 + 0.0j
    scale = 1.0
    p = lam - complex(A.diag[0])
    scale = max(scale, abs(p))
    for k in range(1, A.n):
        p_next = (lam - complex(A.diag[k])) * p - complex(A.sub[k - 1] * A.sup[k - 1]) * p_prev
        p_prev = p
        p = p_next
        scale = max(scale, abs(p))
    return p, scale


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestCharPolyReference:
    @pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
    def test_bitwise_equal_to_reference(self, n):
        cases = [
            (build_R(n), near_toeplitz_eigen(n).eigenvalues()),
            (build_K(n), [p.value for p in skew_toeplitz_eigen(n)]),
        ]
        for a, b, c in [(1 + 2j, 0.25, 3 - 1j), (2, 0.5, -3), (0.3, 1, -0.7j)]:
            pairs = general_toeplitz_eigen(a, b, c, n)
            cases.append((build_toeplitz(a, b, c, n), [p.value for p in pairs]))
        for matrix, values in cases:
            for lam in [*values, 0.0]:
                ev = char_poly_eval(matrix, lam)
                value, scale = char_poly_reference(matrix, lam)
                assert bits(ev.value) == bits(value)
                assert struct.pack("<d", ev.scale) == struct.pack("<d", scale)


class TestResidual:
    def test_all_ones_kernel_is_exact(self):
        assert residual(build_R(7), 0.0, np.ones(7)) == 0.0

    def test_skew_formula_vector(self):
        u1 = np.array([1j * math.sin(math.pi / 4), 1j**2 * math.sin(math.pi / 2),
                       1j**3 * math.sin(3 * math.pi / 4)])
        assert residual(build_K(3), 1j * SQRT2, u1) <= 1e-12

    def test_wrong_eigenvalue_gives_unit_residual(self):
        assert residual(build_R(4), 1.0, np.ones(4)) == 1.0

    @pytest.mark.parametrize("alpha", [1e-3, 0.25, 1.0, 7.5, 1e3])
    def test_scaling_invariance(self, alpha):
        # invariance holds where the max(1, .) guard is inactive, so keep
        # every scaling of v above unit norm
        rng = np.random.default_rng(17)
        A = build_toeplitz(1.5, -0.5, 2.0, 6)
        v = 1e3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        lam = 0.3 - 0.8j
        base = residual(A, lam, v)
        scaled = residual(A, lam, alpha * v)
        assert abs(scaled - base) <= 1e-15 * base

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            residual(build_K(3), 0.0, np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual(build_K(3), 0.0, np.ones(2))


class TestRank:
    def test_R2_is_rank_one(self):
        assert rank_small(build_R(2).to_dense(), 1e-10) == 1

    def test_R4_defective_zero(self):
        assert rank_small(build_R(4).to_dense(), 1e-10) == 3

    def test_identity(self):
        from neartoeplitz import DenseMatrix

        assert rank_small(DenseMatrix(np.eye(5)), 1e-10) == 5

    @pytest.mark.parametrize("n", range(2, 17))
    def test_R_has_one_dimensional_kernel(self, n):
        assert rank_small(build_R(n).to_dense(), 1e-10) == n - 1

    @pytest.mark.parametrize("n", range(2, 17))
    def test_agrees_with_numpy_matrix_rank(self, n):
        dense = build_R(n).to_dense().entries
        assert rank_small(build_R(n).to_dense(), 1e-10) == np.linalg.matrix_rank(dense)

    def test_zero_matrix(self):
        from neartoeplitz import DenseMatrix

        assert rank_small(DenseMatrix(np.zeros((3, 3))), 1e-10) == 0

    def test_order_guard(self):
        with pytest.raises(OrderTooLarge):
            rank_small(build_R(65).to_dense(), 1e-10)


class TestSpectrumCompare:
    def test_R4_claimed_spectrum_passes(self):
        values = near_toeplitz_eigen(4).eigenvalues()
        comparison = spectrum_compare(values, build_R(4))
        assert comparison.passed
        trace2 = next(c for c in comparison.checks if c.name == "trace2")
        assert trace2.rhs == -4.0  # -2(n-2) at n=4

    def test_all_zeros_fails_trace2(self):
        comparison = spectrum_compare([0.0, 0.0, 0.0, 0.0], build_R(4))
        assert not comparison.passed
        by_name = {c.name: c for c in comparison.checks}
        assert not by_name["trace2"].passed

    def test_symmetric_formula_passes(self):
        b = 2.0
        values = [b + 2.0 * math.cos(j * math.pi / 4) for j in (1, 2, 3)]
        comparison = spectrum_compare(values, build_toeplitz(1, b, 1, 3))
        assert comparison.passed

    def test_perturbed_value_fails_charpoly(self):
        values = near_toeplitz_eigen(5).eigenvalues()
        values[1] += 1e-3
        comparison = spectrum_compare(values, build_R(5))
        by_name = {c.name: c for c in comparison.checks}
        assert not by_name["charpoly"].passed
        assert not comparison.passed

    def test_nan_claim_fails_every_check(self):
        comparison = spectrum_compare([math.nan] * 4, build_R(4))
        assert not comparison.passed
        for check in comparison.checks:
            assert not check.passed
            assert math.isnan(check.lhs.real) or math.isnan(check.lhs.imag)

    def test_one_nan_among_roots_fails_charpoly(self):
        values = near_toeplitz_eigen(6).eigenvalues()
        values[2] = complex(math.nan, 0.0)
        by_name = {c.name: c for c in spectrum_compare(values, build_R(6)).checks}
        assert not by_name["charpoly"].passed
        assert math.isnan(by_name["charpoly"].lhs.real)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_infinite_claim_fails_every_check(self):
        comparison = spectrum_compare([math.inf] * 4, build_R(4))
        assert not any(check.passed for check in comparison.checks)

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            spectrum_compare([0.0, 1.0], build_R(4))

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 33])
    def test_near_toeplitz_sweep(self, n):
        values = near_toeplitz_eigen(n).eigenvalues()
        assert spectrum_compare(values, build_R(n)).passed
