"""Similarity machinery: the bidiagonal reduction and the diagonal scaling.

The reduction conjugates the corner-signed near-Toeplitz matrix by the
unit bidiagonal S_n = I_n + Z_n and lands exactly on K_n + e_n e_{n-1}^T;
everything on that route runs in exact integer arithmetic so the identity
is checked with zero tolerance.  The diagonal scaling turns a general
band pair (a, c) with ac != 0 into the symmetric pair (sqrt(ac), sqrt(ac))
and reports a measured residual instead of trusting the algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix, TridiagonalMatrix, build_toeplitz
from .errors import OrderTooSmall, ZeroBandProduct

__all__ = [
    "ReductionCertificate",
    "SymmetrizationCertificate",
    "s_inverse",
    "reduce_R",
    "commutator_check",
    "diag_symmetrize",
    "DENSE_SPOT_CHECK_MAX",
]

# Dense triple-product residual is only spot-checked at desk scale; above
# this order the certificate measures the band-wise conjugation instead.
DENSE_SPOT_CHECK_MAX = 16


def _int_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _int_shift(n: int) -> np.ndarray:
    return np.eye(n, k=-1, dtype=np.int64)


def _times_shift(p: np.ndarray) -> np.ndarray:
    # Exact right product with the lower shift matrix: column j of the
    # result is column j+1 of p, last column zero.
    out = np.zeros_like(p)
    out[:, :-1] = p[:, 1:]
    return out


def _int_R(n: int) -> np.ndarray:
    r = _int_shift(n).T - _int_shift(n)
    r[0, 0] = -1
    r[n - 1, n - 1] = 1
    return r


def _int_K(n: int) -> np.ndarray:
    return _int_shift(n).T - _int_shift(n)


def _s_inverse_int(n: int) -> np.ndarray:
    # Alternating Neumann series I - Z + Z^2 - ... +- Z^{n-1}, every term
    # an exact integer power of the nilpotent shift.
    total = _int_eye(n)
    power = _int_eye(n)
    sign = 1
    for _ in range(1, n):
        power = _times_shift(power)
        sign = -sign
        total = total + sign * power
    return total


def s_inverse(n: int) -> DenseMatrix:
    """Inverse of the unit bidiagonal S_n via the alternating Neumann series.

    The result is lower triangular with entry (i, j) = (-1)^(i-j) for
    i >= j, and satisfies S_n @ s_inverse(n) = I exactly.
    """
    if n < 1:
        raise OrderTooSmall(f"s_inverse needs n >= 1, got n={n}")
    return DenseMatrix(_s_inverse_int(n))


@dataclass(frozen=True)
class ReductionCertificate:
    """Witnesses of the bidiagonal similarity reduction at one order."""

    n: int
    s: DenseMatrix
    s_inv: DenseMatrix
    conjugated: DenseMatrix
    expected: DenseMatrix
    exact_match: bool


def reduce_R(n: int) -> ReductionCertificate:
    """Conjugate the near-Toeplitz matrix: S_n^{-1} R_n S_n = K_n + e_n e_{n-1}^T.

    Both sides are computed in exact integer arithmetic; ``exact_match``
    is an entrywise equality with zero tolerance.  The witnesses are kept
    so a failing order can be inspected.
    """
    if n < 2:
        raise OrderTooSmall(f"the reduction needs n >= 2, got n={n}")
    s_int = _int_eye(n) + _int_shift(n)
    s_inv_int = _s_inverse_int(n)
    conjugated = s_inv_int @ _int_R(n) @ s_int
    expected = _int_K(n)
    expected[n - 1, n - 2] += 1
    return ReductionCertificate(
        n=n,
        s=DenseMatrix(s_int),
        s_inv=DenseMatrix(s_inv_int),
        conjugated=DenseMatrix(conjugated),
        expected=DenseMatrix(expected),
        exact_match=bool(np.array_equal(conjugated, expected)),
    )


def commutator_check(n: int) -> bool:
    """Verify the two commutator identities behind the reduction proof.

    (i)  K S - S K = e_1 e_1^T - e_n e_n^T
    (ii) S e_n e_{n-1}^T + (e_1 e_1^T - e_n e_n^T) S = e_1 e_1^T - e_n e_n^T
    Both sides are exact integer matrices; the comparison has no tolerance.
    """
    if n < 2:
        raise OrderTooSmall(f"the commutator check needs n >= 2, got n={n}")
    k = _int_K(n)
    s = _int_eye(n) + _int_shift(n)
    corner = np.zeros((n, n), dtype=np.int64)
    corner[0, 0] = 1
    corner[n - 1, n - 1] = -1
    first = np.array_equal(k @ s - s @ k, corner)
    e_n_e_nm1 = np.zeros((n, n), dtype=np.int64)
    e_n_e_nm1[n - 1, n - 2] = 1
    second = np.array_equal(s @ e_n_e_nm1 + corner @ s, corner)
    return bool(first and second)


@dataclass(frozen=True)
class SymmetrizationCertificate:
    """Witnesses of the diagonal similarity symmetrizing transformation."""

    a: complex
    b: complex
    c: complex
    d: complex
    diag_d: np.ndarray
    symmetrized: TridiagonalMatrix
    residual: float

    @property
    def n(self) -> int:
        return self.diag_d.shape[0]

    @property
    def kappa(self) -> float:
        """Condition number of the scaling: (max(1,|d|)/min(1,|d|))^(n-1), inf on overflow."""
        mag = abs(self.d)
        try:
            return (max(1.0, mag) / min(1.0, mag)) ** (self.n - 1)
        except OverflowError:
            return math.inf


def diag_symmetrize(a: complex, b: complex, c: complex, n: int) -> SymmetrizationCertificate:
    """Symmetrize T_n(a, b, c) by conjugation with Diag(1, d, ..., d^{n-1}).

    s is the principal square root of ac and d = s/a, the branch of the
    ratio root sqrt(c/a) for which a*d and c/d both equal s; the other
    branch would land on T_n(-s, b, -s) instead.  The band-wise conjugation
    maps sub -> a*d and sup -> c/d, and the reported residual measures the
    dense triple product against T_n(s, b, s) for n <= 16, falling back to
    the band-wise deviation above that (powers of d overflow long before a
    dense product would be informative).
    """
    if n < 2:
        raise OrderTooSmall(f"symmetrization needs n >= 2, got n={n}")
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if a * c == 0:
        raise ZeroBandProduct(f"symmetrization needs a*c != 0, got a={a}, c={c}")
    s = cmath.sqrt(a * c)
    d = s / a
    diag_d = np.concatenate(
        ([1.0 + 0.0j], np.cumprod(np.full(n - 1, d, dtype=np.complex128)))
    )
    symmetrized = build_toeplitz(s, b, s, n)
    sub_mapped = a * d
    sup_mapped = c / d
    band_residual = max(abs(sub_mapped - s), abs(sup_mapped - s))
    if n <= DENSE_SPOT_CHECK_MAX:
        t_dense = build_toeplitz(a, b, c, n).to_dense().entries
        conj = np.diag(diag_d) @ t_dense @ np.diag(1.0 / diag_d)
        residual = float(np.abs(conj - symmetrized.to_dense().entries).max())
    else:
        residual = float(band_residual)
    return SymmetrizationCertificate(
        a=a,
        b=b,
        c=c,
        d=d,
        diag_d=diag_d,
        symmetrized=symmetrized,
        residual=residual,
    )
