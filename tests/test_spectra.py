"""Tests for the closed-form eigen-solvers.

Expected numbers come from three independent routes: hand substitution
into the formulas at tiny orders, the characteristic-polynomial oracle,
and numpy's dense eigensolver (used only as a cross-check; the defective
zero of the near-Toeplitz family splits by about sqrt(eps) there, so that
comparison uses a 1e-6 gate while simple eigenvalues use 1e-10).
"""

import cmath
import functools
import math

import numpy as np
import pytest

from neartoeplitz import (
    DUPLICATE_OF_ALL_ONES,
    REGULAR,
    DimensionMismatch,
    OrderTooSmall,
    ZeroBandProduct,
    build_K,
    build_R,
    build_toeplitz,
    char_poly_eval,
    general_toeplitz_eigen,
    lift_eigenvector,
    near_toeplitz_eigen,
    normalize_eigenvector,
    residual,
    skew_toeplitz_eigen,
    spectrum_report,
    symmetric_toeplitz_eigen,
)
from neartoeplitz.spectra import cos_pi_frac, sin_pi_frac

SQRT2 = math.sqrt(2.0)


def sorted_spectrum(values):
    return np.array(sorted(values, key=lambda z: (z.imag, z.real)))


def assert_spectra_close(claimed, reference, atol):
    np.testing.assert_allclose(
        sorted_spectrum(claimed), sorted_spectrum(reference), rtol=0.0, atol=atol
    )


class TestTrigHelpers:
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 65])
    def test_against_direct_evaluation(self, m):
        # direct evaluation drifts by a few ulp once p spans several
        # periods; the folded value is the tighter of the two
        for p in range(0, 4 * m + 1):
            assert cos_pi_frac(p, m) == pytest.approx(math.cos(math.pi * p / m), abs=5e-15)
            assert sin_pi_frac(p, m) == pytest.approx(math.sin(math.pi * p / m), abs=5e-15)

    def test_exact_special_values(self):
        assert cos_pi_frac(2, 4) == 0.0
        assert cos_pi_frac(0, 5) == 1.0
        assert cos_pi_frac(5, 5) == -1.0
        assert sin_pi_frac(3, 3) == 0.0
        assert sin_pi_frac(1, 2) == 1.0
        assert sin_pi_frac(3, 2) == -1.0

    @pytest.mark.parametrize("m", [3, 4, 9, 64])
    def test_negation_symmetry_is_bitwise(self, m):
        for j in range(1, m):
            assert cos_pi_frac(m - j, m) == -cos_pi_frac(j, m)


class TestNormalization:
    def test_max_magnitude_one_first_nonzero_positive(self):
        v = normalize_eigenvector(np.array([0.0, -2.0j, 1.0 + 1.0j]))
        assert np.abs(v).max() == pytest.approx(1.0, abs=1e-15)
        first = v[np.flatnonzero(np.abs(v))[0]]
        assert first.real > 0.0
        assert abs(first.imag) < 1e-15

    def test_all_ones_fixed_point(self):
        v = normalize_eigenvector(np.ones(5))
        assert np.array_equal(v, np.ones(5, dtype=np.complex128))


class TestSymmetricToeplitz:
    def test_n3_base_case(self):
        pairs = symmetric_toeplitz_eigen(1.0, 0.0, 3)
        values = [p.value for p in pairs]
        np.testing.assert_allclose(values, [SQRT2, 0.0, -SQRT2], rtol=0, atol=1e-15)
        # u_1 = (sin pi/4, sin pi/2, sin 3pi/4) normalized by its peak
        np.testing.assert_allclose(
            pairs[0].vector, [SQRT2 / 2, 1.0, SQRT2 / 2], rtol=0, atol=1e-15
        )

    def test_n3_shifted(self):
        base = symmetric_toeplitz_eigen(1.0, 0.0, 3)
        shifted = symmetric_toeplitz_eigen(1.0, 5.0, 3)
        np.testing.assert_allclose(
            [p.value for p in shifted], [5 + SQRT2, 5.0, 5 - SQRT2], rtol=0, atol=1e-15
        )
        for lo, hi in zip(base, shifted):
            assert np.array_equal(lo.vector, hi.vector)

    def test_n1_zero_matrix(self):
        (pair,) = symmetric_toeplitz_eigen(1.0, 0.0, 1)
        assert pair.value == 0.0
        assert np.array_equal(pair.vector, np.array([1.0 + 0.0j]))

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (1.0, 5.0), (-2.0, 3.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64])
    def test_residuals(self, a, b, n):
        T = build_toeplitz(a, b, a, n)
        for pair in symmetric_toeplitz_eigen(a, b, n):
            assert residual(T, pair.value, pair.vector) <= 1e-10

    def test_shift_scale_covariance_is_bitwise(self):
        base = symmetric_toeplitz_eigen(1.0, 0.0, 17)
        other = symmetric_toeplitz_eigen(-2.0, 3.0, 17)
        for lo, hi in zip(base, other):
            assert hi.value == 3.0 + (-2.0) * lo.value
            assert np.array_equal(lo.vector, hi.vector)

    def test_degenerate_band_emits_standard_basis(self):
        pairs = symmetric_toeplitz_eigen(0.0, 7.0, 4)
        for k, pair in enumerate(pairs):
            assert pair.value == 7.0
            expected = np.zeros(4, dtype=np.complex128)
            expected[k] = 1.0
            assert np.array_equal(pair.vector, expected)

    def test_matches_numpy_eigensolver(self):
        for n in range(2, 11):
            claimed = [p.value for p in symmetric_toeplitz_eigen(-2.0, 3.0, n)]
            reference = np.linalg.eigvals(build_toeplitz(-2, 3, -2, n).to_dense().entries)
            assert_spectra_close(claimed, reference, atol=1e-10)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            symmetric_toeplitz_eigen(1.0, 0.0, 0)


class TestSkewToeplitz:
    def test_n3_values(self):
        values = [p.value for p in skew_toeplitz_eigen(3)]
        np.testing.assert_allclose(
            values, [1j * SQRT2, 0.0, -1j * SQRT2], rtol=0, atol=1e-15
        )
        for value in values:
            assert value.real == 0.0

    def test_n3_kernel_vector(self):
        # raw formula vector is (i, 0, i); the canonical scaling makes it (1, 0, 1)
        pair = skew_toeplitz_eigen(3)[1]
        assert pair.value == 0j
        assert np.array_equal(pair.vector, np.array([1.0, 0.0, 1.0], dtype=complex))
        assert np.array_equal(
            matvec_dense(build_K(3), pair.vector), np.zeros(3, dtype=complex)
        )

    def test_n1_zero(self):
        (pair,) = skew_toeplitz_eigen(1)
        assert pair.value == 0j

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64])
    def test_residuals_and_purely_imaginary_values(self, n):
        K = build_K(n)
        for pair in skew_toeplitz_eigen(n):
            assert pair.value.real == 0.0
            assert residual(K, pair.value, pair.vector) <= 1e-10

    def test_matches_numpy_eigensolver(self):
        for n in range(2, 11):
            claimed = [p.value for p in skew_toeplitz_eigen(n)]
            reference = np.linalg.eigvals(build_K(n).to_dense().entries)
            assert_spectra_close(claimed, reference, atol=1e-10)


def matvec_dense(A, v):
    return A.to_dense().entries @ v


class TestGeneralToeplitz:
    def test_4_0_1_reduces_to_symmetric_pair(self):
        # d = 1/2: explicit 3x3 conjugation oracle, then residual check
        d = 0.5
        D = np.diag([1.0, d, d * d])
        t = build_toeplitz(4, 0, 1, 3).to_dense().entries
        conjugated = D @ t @ np.linalg.inv(D)
        np.testing.assert_allclose(
            conjugated, build_toeplitz(2, 0, 2, 3).to_dense().entries, atol=1e-14
        )
        pairs = general_toeplitz_eigen(4, 0, 1, 3)
        np.testing.assert_allclose(
            [p.value for p in pairs],
            [2 * SQRT2, 0.0, -2 * SQRT2],
            rtol=0,
            atol=1e-14,
        )
        T = build_toeplitz(4, 0, 1, 3)
        for pair in pairs:
            assert residual(T, pair.value, pair.vector) <= 1e-10

    def test_skew_bands_reproduce_skew_solver(self):
        n = 4
        general = general_toeplitz_eigen(-1, 0, 1, n)
        skew = skew_toeplitz_eigen(n)
        for g, s in zip(general, skew):
            assert g.value == pytest.approx(s.value, abs=1e-15)
            assert g.value.real == 0.0
        K = build_K(n)
        for pair in general:
            assert residual(K, pair.value, pair.vector) <= 1e-10

    @pytest.mark.parametrize("a", [1, -2, 0])
    def test_unit_ratio_matches_symmetric_bitwise(self, a):
        general = general_toeplitz_eigen(a, 0, a, 3)
        symmetric = symmetric_toeplitz_eigen(float(a), 0.0, 3)
        for g, s in zip(general, symmetric):
            assert g.value == s.value
            assert np.array_equal(g.vector, s.vector)

    def test_zero_band_product_rejected(self):
        with pytest.raises(ZeroBandProduct):
            general_toeplitz_eigen(0, 1, 1, 3)
        with pytest.raises(ZeroBandProduct):
            general_toeplitz_eigen(2, 1, 0, 3)

    @pytest.mark.parametrize("a,c", [(4, 1), (-1, 1), (2, -3), (0.5, 2)])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_residuals(self, a, c, n):
        T = build_toeplitz(a, 1.5, c, n)
        for pair in general_toeplitz_eigen(a, 1.5, c, n):
            assert residual(T, pair.value, pair.vector) <= 1e-10

    def test_overflow_fails_verification(self):
        # the powers of 1/d = 2 overflow and leave NaN in the vectors
        pairs = general_toeplitz_eigen(4, 0, 1, 1100)
        report = spectrum_report("T", build_toeplitz(4, 0, 1, 1100), pairs)
        assert math.isnan(report.max_residual)
        assert not report.verified

    def test_matches_numpy_eigensolver(self):
        for n in range(2, 11):
            claimed = [p.value for p in general_toeplitz_eigen(2, 0.5, -3, n)]
            reference = np.linalg.eigvals(build_toeplitz(2, 0.5, -3, n).to_dense().entries)
            assert_spectra_close(claimed, reference, atol=1e-10)


class TestLiftEigenvector:
    def test_collapse_onto_all_ones(self):
        v = lift_eigenvector(np.array([1j, 0.0, 1j]), 4)
        assert np.array_equal(v, np.array([1j, 1j, 1j, 1j]))

    def test_smallest_case(self):
        assert np.array_equal(lift_eigenvector(np.array([1.0]), 2), np.array([1.0, 1.0]))

    def test_lifted_vector_is_eigenvector(self):
        u = skew_toeplitz_eigen(3)[0].vector  # j=1 eigenvector of K_3
        v = lift_eigenvector(u, 4)
        lam = 2j * math.cos(math.pi / 4)
        assert residual(build_R(4), lam, v) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lift_eigenvector(np.ones(3), 5)


class TestNearToeplitz:
    def test_n4_multiset_and_multiplicity(self):
        report = near_toeplitz_eigen(4)
        assert report.algebraic_multiplicity_of_zero == 2
        assert_spectra_close(
            report.eigenvalues(), [0.0, 0.0, 1j * SQRT2, -1j * SQRT2], atol=1e-15
        )
        flags = [p.flag for p in report.pairs]
        assert flags == [REGULAR, REGULAR, DUPLICATE_OF_ALL_ONES, REGULAR]
        assert report.verified

    def test_n3_multiset_against_char_poly(self):
        report = near_toeplitz_eigen(3)
        assert_spectra_close(report.eigenvalues(), [0.0, 1j, -1j], atol=1e-12)
        R = build_R(3)
        for value in report.eigenvalues():
            ev = char_poly_eval(R, value)
            assert abs(ev.value) <= 1e-12 * ev.scale

    def test_n2_nilpotent(self):
        report = near_toeplitz_eigen(2)
        assert report.eigenvalues() == [0j, 0j]
        assert report.algebraic_multiplicity_of_zero == 2
        assert report.pairs[1].flag == DUPLICATE_OF_ALL_ONES
        r = build_R(2).to_dense().entries
        assert np.array_equal(r @ r, np.zeros((2, 2)))

    def test_pair_count_and_labels(self):
        for n in (2, 5, 8, 13):
            report = near_toeplitz_eigen(n)
            assert len(report.pairs) == n
            assert [p.index_j for p in report.pairs] == list(range(n))

    @pytest.mark.parametrize("n", range(2, 65))
    def test_zero_multiplicity_by_parity(self, n):
        report = near_toeplitz_eigen(n)
        assert report.algebraic_multiplicity_of_zero == (2 if n % 2 == 0 else 1)

    @pytest.mark.parametrize("n", list(range(2, 33)) + [64, 128, 512])
    def test_residual_bound(self, n):
        report = near_toeplitz_eigen(n)
        assert report.verified
        assert report.max_residual <= 1e-10

    @pytest.mark.parametrize("n", range(2, 65))
    def test_spectrum_closed_under_negation(self, n):
        values = near_toeplitz_eigen(n).eigenvalues()
        negated = [-z for z in values]
        np.testing.assert_allclose(
            sorted_spectrum(values), sorted_spectrum(negated), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", range(2, 65))
    def test_purely_imaginary_spectrum(self, n):
        for value in near_toeplitz_eigen(n).eigenvalues():
            assert value.real == 0.0

    @pytest.mark.parametrize("n", range(2, 65))
    def test_trace_identities(self, n):
        values = near_toeplitz_eigen(n).eigenvalues()
        assert abs(sum(values)) <= 1e-12 * n
        # trace(R_n^2) = -2(n-2): corner rows contribute 0, interior rows -2
        r = build_R(n).to_dense().entries
        assert np.trace(r @ r) == -2.0 * (n - 2)
        assert abs(sum(z * z for z in values) - (-2.0 * (n - 2))) <= 1e-10 * n

    @pytest.mark.parametrize("n", range(2, 65, 2))
    def test_even_defect_collapses_onto_all_ones(self, n):
        lifted = normalize_eigenvector(
            lift_eigenvector(skew_toeplitz_eigen(n - 1)[n // 2 - 1].vector, n)
        )
        ones = normalize_eigenvector(np.ones(n))
        assert np.abs(lifted - ones).max() <= 1e-12
        report = near_toeplitz_eigen(n)
        flagged = [p for p in report.pairs if p.flag == DUPLICATE_OF_ALL_ONES]
        assert [p.index_j for p in flagged] == [n // 2]

    def test_matches_numpy_eigensolver(self):
        # the defective zero splits by ~sqrt(eps) in a dense solver
        for n in range(2, 11):
            claimed = near_toeplitz_eigen(n).eigenvalues()
            reference = np.linalg.eigvals(build_R(n).to_dense().entries)
            assert_spectra_close(claimed, reference, atol=1e-6)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            near_toeplitz_eigen(1)


# The per-component construction the vectorised kernel replaced, kept as its
# reference: one libm call per entry, the i^k twist for K, and one
# normalization and one lift per vector.
def reference_toeplitz(a, b, c, n):
    a, b, c = complex(a), complex(b), complex(c)
    if a == c == 0:
        return [(b, np.eye(n, dtype=complex)[j]) for j in range(n)]
    s = a if a == c else cmath.sqrt(a * c)
    inv_powers = np.ones(n)
    if a != c:
        inv_powers = np.concatenate(([1.0 + 0.0j], np.cumprod(np.full(n - 1, a / s))))
    return [
        (
            b + s * (2.0 * cos_pi_frac(j, n + 1)),
            normalize_eigenvector(
                inv_powers * np.array([sin_pi_frac(k * j, n + 1) for k in range(1, n + 1)])
            ),
        )
        for j in range(1, n + 1)
    ]


def reference_skew(n):
    return [
        (
            complex(0.0, 2.0 * cos_pi_frac(j, n + 1)),
            normalize_eigenvector([1j**k * sin_pi_frac(k * j, n + 1) for k in range(1, n + 1)]),
        )
        for j in range(1, n + 1)
    ]


def reference_near(n):
    ones = normalize_eigenvector(np.ones(n))
    pairs = [(0j, ones)]
    for j, (value, u) in enumerate(reference_skew(n - 1), start=1):
        lifted = normalize_eigenvector(lift_eigenvector(u, n))
        pairs.append((value, ones if 2 * j == n else lifted))
    return pairs


T_BANDS = [
    (1, 0, 1),
    (-2, 3, -2),
    (0, 7, 0),
    (0.5 + 1.5j, 1 - 2j, 0.5 + 1.5j),
    (4, 0.5, 1),
    (2, 0.5, -3),
    (1 + 2j, 0.25, 3 - 1j),
]


@pytest.mark.parametrize(
    "first_n,solver,reference",
    [
        pytest.param(1, skew_toeplitz_eigen, reference_skew, id="K"),
        pytest.param(2, lambda n: near_toeplitz_eigen(n).pairs, reference_near, id="R"),
    ]
    + [
        pytest.param(
            1,
            functools.partial(general_toeplitz_eigen, *bands),
            functools.partial(reference_toeplitz, *bands),
            id=f"T{bands}",
        )
        for bands in T_BANDS
    ],
)
def test_kernel_matches_per_component_reference(first_n, solver, reference):
    for n in range(first_n, 65):
        claimed = solver(n)
        expected = reference(n)
        assert np.array_equal([p.value for p in claimed], [value for value, _ in expected])
        for pair, (_, vector) in zip(claimed, expected, strict=True):
            assert np.array_equal(pair.vector, vector), (n, pair.index_j)
