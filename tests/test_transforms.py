"""Tests for the similarity machinery (reduction, commutator, symmetrizer)."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from neartoeplitz import (
    OrderTooSmall,
    ZeroBandProduct,
    build_R,
    build_S,
    build_toeplitz,
    commutator_check,
    diag_symmetrize,
    general_toeplitz_eigen,
    reduce_R,
    s_inverse,
    symmetric_toeplitz_eigen,
)
from neartoeplitz.transforms import _certify_reduction, _r_band


def dense_reduction(n):
    """S^-1 R S as dense int64 triple product, with the alternating Neumann inverse."""
    r = np.eye(n, k=1, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)
    r[0, 0], r[n - 1, n - 1] = -1, 1
    s = np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)
    s_inv = np.eye(n, dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for k in range(1, n):
        shifted = np.zeros_like(power)  # power @ Z: column j is column j+1 of power
        shifted[:, :-1] = power[:, 1:]
        power = shifted
        s_inv += (-1) ** k * power
    conjugated = s_inv @ r @ s
    expected = np.eye(n, k=1, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)
    expected[n - 1, n - 2] += 1
    return conjugated, bool(np.array_equal(conjugated, expected))


def dense_commutators(n):
    """Both commutator identities as dense int64 matmuls."""
    k = np.eye(n, k=1, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)
    s = np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)
    corner = np.zeros((n, n), dtype=np.int64)
    corner[0, 0], corner[n - 1, n - 1] = 1, -1
    e_n_e_nm1 = np.zeros((n, n), dtype=np.int64)
    e_n_e_nm1[n - 1, n - 2] = 1
    first = np.array_equal(k @ s - s @ k, corner)
    second = np.array_equal(s @ e_n_e_nm1 + corner @ s, corner)
    return bool(first and second)


class TestSInverse:
    def test_n4_display(self):
        expected = np.array(
            [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 1, 0], [-1, 1, -1, 1]]
        )
        assert np.array_equal(s_inverse(4).entries, expected)

    def test_n1(self):
        assert np.array_equal(s_inverse(1).entries, np.eye(1))

    def test_inverse_property_n3(self):
        product = s_inverse(3).entries @ build_S(3).entries
        assert np.array_equal(product, np.eye(3))

    @pytest.mark.parametrize("n", [2, 5, 17, 64])
    def test_alternating_sign_pattern(self, n):
        inv = s_inverse(n).entries
        for i in range(n):
            for j in range(n):
                expected = (-1.0) ** (i - j) if i >= j else 0.0
                assert inv[i, j] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64, 200])
    def test_two_sided_inverse(self, n):
        s = build_S(n).entries
        inv = s_inverse(n).entries
        assert np.array_equal(s @ inv, np.eye(n))
        assert np.array_equal(inv @ s, np.eye(n))

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            s_inverse(0)


class TestReduction:
    def test_n4_matches_display(self):
        cert = reduce_R(4)
        expected = np.array(
            [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, 0, 0]]
        )
        assert np.array_equal(cert.conjugated.entries, expected)
        assert cert.exact_match

    def test_n2_hand_conjugation(self):
        cert = reduce_R(2)
        assert np.array_equal(cert.conjugated.entries, np.array([[0, 1], [0, 0]]))
        assert cert.exact_match

    def test_n3(self):
        assert reduce_R(3).exact_match

    @pytest.mark.parametrize("n", range(2, 65))
    def test_exact_match_sweep(self, n):
        cert = reduce_R(n)
        assert cert.exact_match
        # the certificate's own invariants
        assert np.array_equal(cert.s.entries @ cert.s_inv.entries, np.eye(n))
        assert np.array_equal(cert.conjugated.entries, cert.expected.entries)

    def test_last_row_vanishes(self):
        cert = reduce_R(9)
        assert np.array_equal(cert.conjugated.entries[-1], np.zeros(9))

    def test_witnesses_reproduce_triple_product(self):
        cert = reduce_R(6)
        r = build_R(6).to_dense().entries
        assert np.array_equal(
            cert.s_inv.entries @ r @ cert.s.entries, cert.conjugated.entries
        )

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            reduce_R(1)

    @pytest.mark.parametrize("n", range(2, 129))
    def test_bands_agree_with_dense_reference(self, n):
        cert = reduce_R(n)
        conjugated, exact_match = dense_reduction(n)
        assert cert.exact_match == exact_match
        assert np.array_equal(cert.conjugated.entries, conjugated)

    @pytest.mark.parametrize(
        "n,perturbation",
        [
            (n, p)
            for n in (2, 3, 4, 5, 8, 17, 64)
            for p in ("corner", "sub", "diag")
            if n > 2 or p != "diag"
        ],
    )
    def test_perturbed_band_fails(self, n, perturbation):
        band = _r_band(n)
        if perturbation == "corner":
            band[0][0] = 0
        elif perturbation == "sub":
            band[-1][n - 1] = 1
        else:
            band[0][n // 2] = 1
        cert = _certify_reduction(band)
        assert not cert.exact_match
        # the densified witness is S^-1 A S with its fill-in, not just the band
        a = np.zeros((n, n), dtype=np.int64)
        for k, w in band.items():
            rows = np.arange(max(0, -k), min(n, n - k))
            a[rows, rows + k] = w[rows]
        s = build_S(n).entries
        assert np.array_equal(cert.conjugated.entries, s_inverse(n).entries @ a @ s)

    def test_large_order_without_witnesses(self):
        # one dense int64 witness at this order would be 3.2 GB
        assert reduce_R(20000).exact_match
        assert commutator_check(20000)

    def test_memory_stays_linear(self):
        tracemalloc.start()
        try:
            assert reduce_R(4096).exact_match
            assert commutator_check(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one dense int64 witness would be 128 MiB


class TestCommutator:
    @pytest.mark.parametrize("n", [2, 4, 64])
    def test_documented_orders(self, n):
        assert commutator_check(n)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_sweep(self, n):
        assert commutator_check(n)

    @pytest.mark.parametrize("n", range(2, 129))
    def test_agrees_with_dense_reference(self, n):
        assert commutator_check(n) == dense_commutators(n)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            commutator_check(1)


class TestDiagSymmetrize:
    def test_band_mapping_is_symbolic(self):
        # sub -> d*a and sup -> c/d, both equal to the principal sqrt(ac)
        a, b, c = 3.0 - 1.0j, 0.25, 1.5 + 2.0j
        cert = diag_symmetrize(a, b, c, 5)
        s = cmath.sqrt(a * c)
        assert cert.d == s / a
        assert abs(cert.d * cert.d - c / a) <= 1e-15 * abs(c / a)
        assert cert.symmetrized.sub[0] == s
        assert cert.symmetrized.sup[0] == s
        assert cert.symmetrized.diag[0] == b

    def test_dyadic_case_is_exact(self):
        cert = diag_symmetrize(4, 0, 1, 3)
        assert cert.d == 0.5
        assert np.array_equal(cert.diag_d, np.array([1.0, 0.5, 0.25]))
        assert cert.symmetrized.sub[0] == 2.0
        assert cert.residual == 0.0

    def test_skew_bands(self):
        # bands (-1, 0, 1) map to (i, 0, i) = i * T(1, 0, 1)
        cert = diag_symmetrize(-1, 0, 1, 4)
        assert cert.d == -1j
        assert cert.symmetrized.sub[0] == 1j
        assert cert.symmetrized.sup[0] == 1j
        target = 1j * build_toeplitz(1, 0, 1, 4).to_dense().entries
        np.testing.assert_allclose(
            cert.symmetrized.to_dense().entries, target, rtol=0, atol=1e-15
        )
        assert cert.residual <= 1e-15

    @pytest.mark.parametrize("a,c", [(4, 1), (-1, 1), (2, -3), (0.5, 1)])
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_dense_spot_check_within_kappa_bound(self, a, c, n):
        b = 0.75
        cert = diag_symmetrize(a, b, c, n)
        bound = 1e-12 * max(abs(a), abs(b), abs(c), 1.0) * cert.kappa
        assert cert.residual <= bound

    @pytest.mark.parametrize("n", [17, 64, 200])
    def test_large_orders_use_band_residual(self, n):
        a, c = 2.0, 0.5
        cert = diag_symmetrize(a, 1.0, c, n)
        assert cert.residual <= 1e-12 * max(abs(a), abs(c), 1.0) * cert.kappa

    def test_real_positive_product_symmetrizes_to_real(self):
        cert = diag_symmetrize(2, 1, 8, 6)
        bands = cert.symmetrized
        assert np.all(bands.sub.imag == 0.0)
        assert np.array_equal(bands.sub, bands.sup)

    def test_negative_product_symmetrizes_to_scaled_skew_pattern(self):
        a, b, c = 2.0, 0.5, -3.0
        cert = diag_symmetrize(a, b, c, 5)
        scale = 1j * np.sqrt(abs(a * c))
        target = (
            scale * build_toeplitz(1, 0, 1, 5).to_dense().entries
            + b * np.eye(5)
        )
        np.testing.assert_allclose(
            cert.symmetrized.to_dense().entries, target, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("a,c", [(4.0, 1.0), (1.0, 2.0), (0.5, 1.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_symmetrize_then_solve_matches_general_solver(self, a, c, n):
        # |d| in [1/2, 2] for these band pairs
        b = 1.25
        cert = diag_symmetrize(a, b, c, n)
        assert 0.5 <= abs(cert.d) <= 2.0
        s = cert.symmetrized.sub[0]
        if s.imag == 0.0:
            via_symmetric = [p.value for p in symmetric_toeplitz_eigen(s.real, b, n)]
        else:
            via_symmetric = [
                b + s * (2.0 * np.cos(j * np.pi / (n + 1))) for j in range(1, n + 1)
            ]
        general = [p.value for p in general_toeplitz_eigen(a, b, c, n)]
        np.testing.assert_allclose(general, via_symmetric, rtol=0, atol=1e-10)

    def test_kappa_overflow_is_inf(self):
        assert diag_symmetrize(4, 0, 1, 1100).kappa == math.inf

    def test_zero_band_product_rejected(self):
        with pytest.raises(ZeroBandProduct):
            diag_symmetrize(0, 1, 1, 4)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            diag_symmetrize(1, 0, 1, 1)
