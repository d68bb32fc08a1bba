"""Constructors and elementary algebra for the structured matrix families.

The star of the family is the corner-signed near-Toeplitz matrix R_n:
-1's on the subdiagonal, +1's on the superdiagonal, a -1 in the (1,1)
corner, a +1 in the (n,n) corner and zeros elsewhere.  Around it live the
lower shift matrix Z_n, the skew-symmetric Toeplitz matrix K_n = Z_n^T - Z_n,
the unit bidiagonal S_n = I_n + Z_n, the exchange (flip) matrix E_n and the
constant-band Toeplitz matrix T_n(a, b, c).

All integer-valued families are stored as complex binary64 but populated
from exact small integers, so identity checks on them are exact.  Every
value is immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NearToeplitzError, OrderTooSmall

__all__ = [
    "TridiagonalMatrix",
    "DenseMatrix",
    "SignPattern",
    "build_R",
    "build_Z",
    "build_K",
    "build_S",
    "build_E",
    "build_toeplitz",
    "matvec",
    "flip_conjugate",
    "is_centro_symmetric",
    "is_centro_skew",
    "sign_pattern",
    "in_pattern_class",
]


def _freeze(values, shape_name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NearToeplitzError(f"{shape_name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Banded storage for an n-by-n tridiagonal matrix.

    Only the three bands are stored: ``sub`` (length n-1), ``diag``
    (length n) and ``sup`` (length n-1).  Dense conversion is an explicit
    operation, never implicit.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        diag = _freeze(self.diag, "diag band")
        sub = _freeze(self.sub, "sub band")
        sup = _freeze(self.sup, "sup band")
        if diag.ndim != 1:
            raise DimensionMismatch(f"diag band must be 1-d; got shape {diag.shape}")
        if diag.shape[0] < 1:
            raise OrderTooSmall("tridiagonal matrix needs order >= 1")
        n = diag.shape[0]
        if sub.shape != (n - 1,) or sup.shape != (n - 1,):
            raise DimensionMismatch(
                f"band lengths must be ({n - 1}, {n}, {n - 1}); got "
                f"({sub.shape}, {diag.shape}, {sup.shape})"
            )
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> "DenseMatrix":
        n = self.n
        a = np.zeros((n, n), dtype=np.complex128)
        idx = np.arange(n)
        a[idx, idx] = self.diag
        if n > 1:
            a[idx[1:], idx[:-1]] = self.sub
            a[idx[:-1], idx[1:]] = self.sup
        return DenseMatrix(a)


@dataclass(frozen=True)
class DenseMatrix:
    """Small row-major dense complex matrix (oracle-side representation)."""

    entries: np.ndarray

    def __post_init__(self):
        a = _freeze(self.entries, "dense entries")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"dense matrix must be square; got shape {a.shape}")
        if a.shape[0] < 1:
            raise OrderTooSmall("dense matrix needs order >= 1")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def as_square_array(matrix) -> np.ndarray:
    """Return the dense complex array behind any accepted matrix argument."""
    if isinstance(matrix, TridiagonalMatrix):
        return matrix.to_dense().entries
    if isinstance(matrix, DenseMatrix):
        return matrix.entries
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix; got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NearToeplitzError("matrix contains non-finite entries")
    return arr


def build_R(n: int) -> TridiagonalMatrix:
    """The corner-signed near-Toeplitz matrix R_n.

    Subdiagonal all -1, superdiagonal all +1, diagonal zero except the
    (1,1) entry -1 and the (n,n) entry +1.  Needs n >= 2 so the two signed
    corners are distinct.
    """
    if n < 2:
        raise OrderTooSmall(f"R_n needs n >= 2, got n={n}")
    diag = np.zeros(n)
    diag[0] = -1.0
    diag[-1] = 1.0
    return TridiagonalMatrix(sub=-np.ones(n - 1), diag=diag, sup=np.ones(n - 1))


def build_Z(n: int) -> TridiagonalMatrix:
    """The lower shift matrix Z_n: 1's on the subdiagonal, 0's elsewhere."""
    if n < 1:
        raise OrderTooSmall(f"Z_n needs n >= 1, got n={n}")
    return TridiagonalMatrix(sub=np.ones(n - 1), diag=np.zeros(n), sup=np.zeros(n - 1))


def build_K(n: int) -> TridiagonalMatrix:
    """The skew-symmetric Toeplitz matrix K_n = Z_n^T - Z_n = T_n(-1, 0, 1)."""
    if n < 1:
        raise OrderTooSmall(f"K_n needs n >= 1, got n={n}")
    return TridiagonalMatrix(sub=-np.ones(n - 1), diag=np.zeros(n), sup=np.ones(n - 1))


def build_S(n: int) -> DenseMatrix:
    """The unit lower bidiagonal matrix S_n = I_n + Z_n."""
    if n < 1:
        raise OrderTooSmall(f"S_n needs n >= 1, got n={n}")
    return DenseMatrix(np.eye(n) + np.eye(n, k=-1))


def build_E(n: int) -> DenseMatrix:
    """The exchange (flip) matrix: ones on the anti-diagonal."""
    if n < 1:
        raise OrderTooSmall(f"E_n needs n >= 1, got n={n}")
    return DenseMatrix(np.fliplr(np.eye(n)))


def build_toeplitz(a: complex, b: complex, c: complex, n: int) -> TridiagonalMatrix:
    """The constant-band tridiagonal Toeplitz matrix T_n(a, b, c)."""
    if n < 1:
        raise OrderTooSmall(f"T_n needs n >= 1, got n={n}")
    return TridiagonalMatrix(
        sub=np.full(n - 1, complex(a)),
        diag=np.full(n, complex(b)),
        sup=np.full(n - 1, complex(c)),
    )


def matvec(A: TridiagonalMatrix, v) -> np.ndarray:
    """Exact three-band product A @ v.

    (Av)_k = sub_{k-1} v_{k-1} + diag_k v_k + sup_k v_{k+1}, out-of-range
    terms taken as zero.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (A.n,):
        raise DimensionMismatch(f"vector length {v.shape} does not match order {A.n}")
    out = A.diag * v
    if A.n > 1:
        out[1:] += A.sub * v[:-1]
        out[:-1] += A.sup * v[1:]
    return out


def flip_conjugate(matrix) -> DenseMatrix:
    """Conjugation by the exchange matrix: E A E.

    Entry (i, j) of the result is A(n+1-i, n+1-j), i.e. the matrix with
    both index orders reversed.
    """
    a = as_square_array(matrix)
    return DenseMatrix(a[::-1, ::-1])


def is_centro_symmetric(matrix) -> bool:
    """True iff E A E = A, compared entrywise with zero tolerance.

    Banded input is compared on its bands: E A E reverses the diagonal and
    takes the reversed superdiagonal as its subdiagonal (and vice versa).
    """
    if isinstance(matrix, TridiagonalMatrix):
        return bool(
            np.array_equal(matrix.diag[::-1], matrix.diag)
            and np.array_equal(matrix.sup[::-1], matrix.sub)
        )
    a = as_square_array(matrix)
    return bool(np.array_equal(a[::-1, ::-1], a))


def is_centro_skew(matrix) -> bool:
    """True iff E A E = -A, compared entrywise with zero tolerance.

    Banded input is compared on its bands, as in ``is_centro_symmetric``.
    """
    if isinstance(matrix, TridiagonalMatrix):
        return bool(
            np.array_equal(matrix.diag[::-1], -matrix.diag)
            and np.array_equal(matrix.sup[::-1], -matrix.sub)
        )
    a = as_square_array(matrix)
    return bool(np.array_equal(a[::-1, ::-1], -a))


@dataclass(frozen=True)
class SignPattern:
    """Entrywise sign pattern of a real matrix: entries from {-1, 0, +1}."""

    signs: np.ndarray

    def __post_init__(self):
        signs = np.array(self.signs, dtype=np.int8)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise DimensionMismatch(f"sign pattern must be square; got {signs.shape}")
        if signs.shape[0] < 1:
            raise OrderTooSmall("sign pattern needs order >= 1")
        if not np.isin(signs, (-1, 0, 1)).all():
            raise NearToeplitzError("sign pattern entries must lie in {-1, 0, +1}")
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return self.signs.shape[0]


def sign_pattern(matrix) -> SignPattern:
    """Entrywise sign of a real matrix, with sign(0) = 0 exactly."""
    a = as_square_array(matrix)
    if np.any(a.imag != 0.0):
        raise NearToeplitzError("sign patterns are defined for real matrices")
    return SignPattern(np.sign(a.real).astype(np.int8))


def _corner_signed_template(n: int) -> np.ndarray:
    template = np.zeros((n, n), dtype=np.int8)
    idx = np.arange(n)
    template[idx[1:], idx[:-1]] = -1
    template[idx[:-1], idx[1:]] = 1
    template[0, 0] = -1
    template[n - 1, n - 1] = 1
    return template


def in_pattern_class(matrix) -> bool:
    """Membership test for the corner-signed tridiagonal sign-pattern class.

    A real square matrix belongs to the class iff its subdiagonal is
    strictly negative, its superdiagonal strictly positive, the (1,1)
    entry negative, the (n,n) entry positive and every other entry exactly
    zero (interior diagonal included).  Zero entries are required to be
    exactly zero, so the test reduces to an exact sign-pattern match.
    """
    a = as_square_array(matrix)
    n = a.shape[0]
    if n < 2:
        raise OrderTooSmall(f"the sign-pattern class needs n >= 2, got n={n}")
    if np.any(a.imag != 0.0):
        return False
    pattern = sign_pattern(a.real)
    return bool(np.array_equal(pattern.signs, _corner_signed_template(n)))
