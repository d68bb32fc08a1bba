"""Similarity machinery: the bidiagonal reduction and the diagonal scaling.

The reduction conjugates the corner-signed near-Toeplitz matrix by the
unit bidiagonal S_n = I_n + Z_n and lands exactly on K_n + e_n e_{n-1}^T;
everything on that route runs in exact integer band arithmetic, O(n) per
order, so the identity is checked with zero tolerance.  The diagonal
scaling turns a general band pair (a, c) with ac != 0 into the symmetric
pair (sqrt(ac), sqrt(ac)) and reports a measured residual instead of
trusting the algebra.
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


# A band matrix is a dict {k: w} of its diagonals, offset k = j - i, each an
# int64 array indexed by row: w[i] = A[i, i + k], zero where i + k falls
# outside 0..n-1.  Every product below is exact integer arithmetic in O(n).


def _shift(v: np.ndarray, p: int) -> np.ndarray:
    """w[i] = v[i + p], zero where i + p falls outside v."""
    w = np.zeros_like(v)
    if p >= 0:
        w[: len(v) - p] = v[p:]
    else:
        w[-p:] = v[:p]
    return w


def _unit(n: int, i: int) -> np.ndarray:
    w = np.zeros(n, dtype=np.int64)
    w[i] = 1
    return w


def _band_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, w in b.items():
        out[k] = out[k] + sign * w if k in out else sign * w
    return out


def _k_band(n: int) -> dict:
    ones = np.ones(n, dtype=np.int64)
    return {-1: _unit(n, 0) - ones, 1: ones - _unit(n, n - 1)}


def _r_band(n: int) -> dict:
    return _band_add(_k_band(n), {0: _unit(n, n - 1) - _unit(n, 0)})


def _s_band(n: int) -> dict:
    ones = np.ones(n, dtype=np.int64)
    return {0: ones, -1: ones - _unit(n, 0)}


def _band_matmul(a: dict, b: dict) -> dict:
    """Exact product: diagonal ka of a meets diagonal kb of b at row i + ka."""
    out: dict = {}
    for ka, da in a.items():
        for kb, db in b.items():
            out = _band_add(out, {ka + kb: da * _shift(db, ka)})
    return out


def _band_equal(a: dict, b: dict) -> bool:
    return not any(w.any() for w in _band_add(a, b, -1).values())


def _dense(band: dict, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for k, w in band.items():
        keep = (rows + k >= 0) & (rows + k < n)
        out[rows[keep], rows[keep] + k] = w[keep]
    return out


def _s_inverse_int(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.tril(np.where(np.add.outer(idx, idx) % 2, -1, 1)).astype(np.int64)


def s_inverse(n: int) -> DenseMatrix:
    """Inverse of the unit bidiagonal S_n, in closed form.

    The result is lower triangular with entry (i, j) = (-1)^(i-j) for
    i >= j, and satisfies S_n @ s_inverse(n) = I exactly.
    """
    if n < 1:
        raise OrderTooSmall(f"s_inverse needs n >= 1, got n={n}")
    return DenseMatrix(_s_inverse_int(n))


@dataclass(frozen=True)
class ReductionCertificate:
    """Witnesses of the bidiagonal similarity reduction at one order.

    ``band`` holds the diagonals -2..1 of S^{-1} A S and ``expected_band``
    those of K + e_n e_{n-1}^T.  The dense witnesses are built from them
    only when read.
    """

    n: int
    band: dict
    expected_band: dict
    exact_match: bool

    @property
    def s(self) -> DenseMatrix:
        return DenseMatrix(_dense(_s_band(self.n), self.n))

    @property
    def s_inv(self) -> DenseMatrix:
        return DenseMatrix(_s_inverse_int(self.n))

    @property
    def conjugated(self) -> DenseMatrix:
        # Below diagonal -2 every entry is (-1)^(i-j) X[j+2, j] (see
        # _certify_reduction), so a failing order shows its fill-in too.
        n = self.n
        upper = {k: self.band[k] for k in (-1, 0, 1)}
        fill = np.tril(_s_inverse_int(n), -2) * _shift(self.band[-2], 2)
        return DenseMatrix(_dense(upper, n) + fill)

    @property
    def expected(self) -> DenseMatrix:
        return DenseMatrix(_dense(self.expected_band, self.n))


def _certify_reduction(a: dict) -> ReductionCertificate:
    """Compare X = S^{-1} A S for an integer tridiagonal band A with K + e_n e_{n-1}^T.

    M = A S has diagonals -2..1.  S X = M is solved by forward substitution,
    X[i, :] = M[i, :] - X[i-1, :], which on diagonals reads
    X_k[i] = M_k[i] - X_{k+1}[i-1].  Column j of M is zero above row j-1,
    so X is zero above diagonal 1.  M has no diagonal below -2, so for
    k >= 3 X_{-k}[i] = -X_{-(k-1)}[i-1]: all fill-in below diagonal -2 is a
    signed copy of diagonal -2, and comparing diagonals -2..1 with the
    target decides all n^2 entries exactly.
    """
    n = len(a[0])
    m = _band_matmul(a, _s_band(n))
    x: dict = {}
    above = np.zeros(n, dtype=np.int64)
    for k in (1, 0, -1, -2):
        above = x[k] = m[k] - _shift(above, -1)
    expected = _band_add(_k_band(n), {-1: _unit(n, n - 1)})
    return ReductionCertificate(
        n=n, band=x, expected_band=expected, exact_match=_band_equal(x, expected)
    )


def reduce_R(n: int) -> ReductionCertificate:
    """Conjugate the near-Toeplitz matrix: S_n^{-1} R_n S_n = K_n + e_n e_{n-1}^T.

    Both sides are computed by exact integer band arithmetic in O(n);
    ``exact_match`` is an entrywise equality with zero tolerance.  The
    witnesses are kept so a failing order can be inspected.
    """
    if n < 2:
        raise OrderTooSmall(f"the reduction needs n >= 2, got n={n}")
    return _certify_reduction(_r_band(n))


def commutator_check(n: int) -> bool:
    """Verify the two commutator identities behind the reduction proof.

    (i)  K S - S K = e_1 e_1^T - e_n e_n^T
    (ii) S e_n e_{n-1}^T + (e_1 e_1^T - e_n e_n^T) S = e_1 e_1^T - e_n e_n^T
    Both sides are exact integer band products; the comparison has no
    tolerance.
    """
    if n < 2:
        raise OrderTooSmall(f"the commutator check needs n >= 2, got n={n}")
    k = _k_band(n)
    s = _s_band(n)
    corner = {0: _unit(n, 0) - _unit(n, n - 1)}
    e_n_e_nm1 = {-1: _unit(n, n - 1)}
    first = _band_equal(_band_add(_band_matmul(k, s), _band_matmul(s, k), -1), corner)
    second = _band_equal(
        _band_add(_band_matmul(s, e_n_e_nm1), _band_matmul(corner, s)), corner
    )
    return first and second


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
