"""Closed-form eigen-solvers for the four structured matrix families.

One kernel, general_toeplitz_eigen, builds every Toeplitz spectrum from the
sine vectors of T_n(s, b, s): the symmetric family T_n(a, b, a) takes s = a,
a band pair (a, c) with ac != 0 takes s = sqrt(ac) through a diagonal
similarity, and K_n = T_n(-1, 0, 1) is the case s = i.  The corner-signed
near-Toeplitz matrix R_n picks up the whole spectrum of K_{n-1} (angle
pi/n), lifted through S = I + Z, plus the all-ones kernel vector.  For even
n the j = n/2 construction collapses onto the all-ones direction, so zero
has algebraic multiplicity 2 but only one independent eigenvector; that
pair is flagged instead of silently duplicated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import TridiagonalMatrix, build_R
from .errors import DimensionMismatch, OrderTooSmall, ZeroBandProduct, ZeroVector

__all__ = [
    "EigenPair",
    "SpectrumReport",
    "REGULAR",
    "DUPLICATE_OF_ALL_ONES",
    "RESIDUAL_TOL",
    "cos_pi_frac",
    "sin_pi_frac",
    "normalize_eigenvector",
    "symmetric_toeplitz_eigen",
    "general_toeplitz_eigen",
    "skew_toeplitz_eigen",
    "near_toeplitz_eigen",
    "lift_eigenvector",
    "spectrum_report",
]

REGULAR = "regular"
DUPLICATE_OF_ALL_ONES = "duplicate_of_all_ones"

RESIDUAL_TOL = 1e-10


def cos_pi_frac(p: int, m: int) -> float:
    """cos(p*pi/m) for integers p, m >= 1, folded exactly.

    The angle is reduced with integer arithmetic before calling the libm
    cosine, so values at p and m-p negate bitwise, multiples of m give
    exactly +/-1.0 and half multiples give exactly 0.0.
    """
    r = p % (2 * m)
    if r > m:
        r = 2 * m - r
    if 2 * r == m:
        return 0.0
    if r == 0:
        return 1.0
    if r == m:
        return -1.0
    if 2 * r > m:
        return -math.cos(math.pi * (m - r) / m)
    return math.cos(math.pi * r / m)


def sin_pi_frac(p: int, m: int) -> float:
    """sin(p*pi/m) for integers p, m >= 1, folded exactly.

    Multiples of m map to exactly 0.0 and odd half multiples to exactly
    +/-1.0; the fold keeps sin(p) = -sin(2m - p) bitwise.
    """
    r = p % (2 * m)
    sign = 1.0
    if r >= m:
        r -= m
        sign = -1.0
    if r == 0:
        return 0.0
    if 2 * r == m:
        return sign
    if 2 * r > m:
        r = m - r
    return sign * math.sin(math.pi * r / m)


def normalize_eigenvector(v) -> np.ndarray:
    """Canonical scaling: largest magnitude 1, first nonzero real positive.

    The scaling factor is the phase of the first nonzero component times
    the maximum component magnitude, which makes the output deterministic
    and satisfies the reporting convention for every solver.  A stack of
    vectors is scaled row by row along the last axis.
    """
    v = np.asarray(v, dtype=np.complex128)
    mags = np.abs(v)
    if v.size == 0 or not mags.any(axis=-1).all():
        raise ZeroVector("cannot normalize the zero vector")
    top = mags.max(axis=-1, keepdims=True)
    first = np.argmax(mags != 0, axis=-1)[..., None]
    phase = np.take_along_axis(v, first, -1) / np.take_along_axis(mags, first, -1)
    out = v / (phase * top)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its eigenvector and provenance label.

    ``index_j`` is the label j of the generating formula; 0 is reserved
    for the all-ones kernel pair of the near-Toeplitz family.
    """

    index_j: int
    value: complex
    vector: np.ndarray
    flag: str = REGULAR

    def __post_init__(self):
        if self.flag not in (REGULAR, DUPLICATE_OF_ALL_ONES):
            raise ValueError(f"unknown eigen-pair flag {self.flag!r}")
        vec = np.asarray(self.vector, dtype=np.complex128)
        if vec.ndim != 1 or vec.size == 0 or not np.any(vec):
            raise ZeroVector("eigen-pair vector must be a nonzero 1-d vector")
        vec.setflags(write=False)
        object.__setattr__(self, "value", complex(self.value))
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True)
class SpectrumReport:
    """Full eigen-decomposition with residuals and verification verdict."""

    matrix_descriptor: str
    n: int
    pairs: tuple
    algebraic_multiplicity_of_zero: int
    max_residual: float
    verified: bool

    def eigenvalues(self) -> list:
        return [p.value for p in self.pairs]


def general_toeplitz_eigen(a: complex, b: complex, c: complex, n: int) -> list:
    """Eigen-pairs of T_n(a, b, c), the one closed-form Toeplitz kernel.

    With theta = pi/(n+1) and j, k = 1..n the eigenvalue is
    b + s (2 cos(j theta)) and the eigenvector has k-th component
    sin(k j theta) / d^(k-1).  For a == c the bands are already symmetric:
    s = a and d = 1, and the degenerate band a == c == 0 (the matrix b*I)
    emits the standard basis.  Otherwise ac != 0 is required; s is the
    principal square root of ac and d = s/a (the ratio root branch
    consistent with s: d^2 = c/a and a d = c/d = s), so conjugation by
    Diag(1, d, ..., d^{n-1}) turns the matrix into T_n(s, b, s).
    Eigenvalues are computed as b + s * (2 cos(j theta)) so that shifting b
    and scaling a reproduce the base spectrum bitwise.
    """
    values, vectors = _toeplitz_arrays(a, b, c, n)
    return [
        EigenPair(index_j=j, value=value, vector=vector)
        for j, (value, vector) in enumerate(zip(values, vectors), start=1)
    ]


def _toeplitz_arrays(a: complex, b: complex, c: complex, n: int) -> tuple:
    """The eigenvalues of T_n(a, b, c) and its normalized eigenvectors as rows."""
    if n < 1:
        raise OrderTooSmall(f"eigen-solver needs n >= 1, got n={n}")
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if a == c == 0:
        return [b] * n, np.eye(n, dtype=np.complex128)
    if a == c:
        s = a
    elif a * c == 0:
        raise ZeroBandProduct(f"general solver needs a*c != 0, got a={a}, c={c}")
    else:
        s = cmath.sqrt(a * c)
    m = n + 1
    # sin(k j theta) depends only on k j mod 2m: one libm call per residue
    table = np.array([sin_pi_frac(r, m) for r in range(2 * m)])
    k = np.arange(1, m)
    vectors = np.empty((n, n), dtype=np.complex128)
    for j in range(1, m):
        vectors[j - 1] = table[(k * j) % (2 * m)]
    # the powers of 1/d can overflow at large n; the NaN vectors that result
    # fail the residual check in spectrum_report instead of warning here
    with np.errstate(over="ignore", invalid="ignore"):
        if a != c:
            d_inv = a / s
            inv_powers = np.concatenate(
                ([1.0 + 0.0j], np.cumprod(np.full(n - 1, d_inv, dtype=np.complex128)))
            )
            vectors *= inv_powers
        vectors = normalize_eigenvector(vectors)
    return [b + s * (2.0 * cos_pi_frac(j, m)) for j in range(1, m)], vectors


def symmetric_toeplitz_eigen(a: complex, b: complex, n: int) -> list:
    """Eigen-pairs of the symmetric Toeplitz matrix T_n(a, b, a)."""
    return general_toeplitz_eigen(a, b, a, n)


def skew_toeplitz_eigen(n: int) -> list:
    """Eigen-pairs of K_n = T_n(-1, 0, 1): values 2i cos(j theta), components i^k sin(k j theta)."""
    return general_toeplitz_eigen(-1, 0, 1, n)


def lift_eigenvector(u, n: int) -> np.ndarray:
    """Map an eigenvector of K_{n-1} (or a stack of them) to one of R_n.

    The similarity reduction sends the zero-padded vector (u, 0) through
    the unit bidiagonal matrix: v_1 = u_1, v_k = u_k + u_{k-1} for
    2 <= k <= n-1, v_n = u_{n-1}.  A stack is lifted along the last axis.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim not in (1, 2) or u.shape[-1] != n - 1 or n - 1 < 1:
        raise DimensionMismatch(
            f"lift needs vectors of length n-1={n - 1}, got shape {u.shape}"
        )
    v = np.zeros(u.shape[:-1] + (n,), dtype=np.complex128)
    v[..., : n - 1] = u
    v[..., 1:] += u
    return v


def spectrum_report(
    descriptor: str,
    matrix: TridiagonalMatrix,
    pairs,
    tol: float = RESIDUAL_TOL,
) -> SpectrumReport:
    """Bundle eigen-pairs with residuals and the verification verdict.

    The zero multiplicity counts exact zeros among the emitted values; the
    folded trig evaluation makes formula zeros exact, so the count agrees
    with the algebraic multiplicity for every family handled here.
    """
    pairs = tuple(pairs)
    if len(pairs) != matrix.n:
        raise DimensionMismatch(
            f"a spectrum of order {matrix.n} needs {matrix.n} pairs, got {len(pairs)}"
        )
    residuals = [oracle.residual(matrix, pair.value, pair.vector) for pair in pairs]
    # np.max propagates NaN, so a non-finite residual fails the <= test below;
    # the builtin max() would drop it
    max_residual = float(np.max(residuals))
    zero_mult = sum(1 for pair in pairs if pair.value == 0)
    return SpectrumReport(
        matrix_descriptor=descriptor,
        n=matrix.n,
        pairs=pairs,
        algebraic_multiplicity_of_zero=zero_mult,
        max_residual=max_residual,
        verified=max_residual <= tol,
    )


def near_toeplitz_eigen(n: int, tol: float = RESIDUAL_TOL) -> SpectrumReport:
    """Spectrum of the corner-signed near-Toeplitz matrix R_n.

    Pair 0 is the all-ones kernel vector with eigenvalue 0; pairs
    j = 1..n-1 carry eigenvalue 2i cos(j pi/n) with the eigenvector of
    K_{n-1} lifted through the similarity.  For even n the j = n/2 lift
    lands on the all-ones direction already emitted, so that pair keeps
    its (zero) eigenvalue, is flagged, and reports the normalized
    all-ones vector it collapsed onto.
    """
    if n < 2:
        raise OrderTooSmall(f"the near-Toeplitz family needs n >= 2, got n={n}")
    R = build_R(n)
    ones = normalize_eigenvector(np.ones(n, dtype=np.complex128))
    values, vectors = _toeplitz_arrays(-1, 0, 1, n - 1)  # the spectrum of K_{n-1}
    # lift and normalize in separate statements, so that each n-by-n stack
    # is freed before the next one is allocated
    vectors = lift_eigenvector(vectors, n)
    vectors = normalize_eigenvector(vectors)
    pairs = [EigenPair(index_j=0, value=0.0 + 0.0j, vector=ones)]
    for j, (value, vector) in enumerate(zip(values, vectors), start=1):
        if 2 * j == n:
            pairs.append(
                EigenPair(index_j=j, value=value, vector=ones, flag=DUPLICATE_OF_ALL_ONES)
            )
        else:
            pairs.append(EigenPair(index_j=j, value=value, vector=vector))
    return spectrum_report(f"R(n={n})", R, pairs, tol=tol)
