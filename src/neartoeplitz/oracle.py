"""Brute-force verification, independent of the closed-form solvers.

Nothing here trusts an eigen formula: the characteristic polynomial is
evaluated through the three-term continuant recurrence, residuals through
the banded product, rank through Gaussian elimination with partial
pivoting, and a claimed spectrum is certified against the polynomial plus
the trace, squared-trace and determinant identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TridiagonalMatrix, as_square_array, matvec
from .errors import DimensionMismatch, OrderTooLarge, ZeroVector

__all__ = [
    "CharPolyEvaluation",
    "SpectrumCheck",
    "SpectrumComparison",
    "char_poly_eval",
    "residual",
    "rank_small",
    "spectrum_compare",
    "CHARPOLY_REL_TOL",
    "TRACE_REL_TOL",
    "RANK_GUARD",
]

CHARPOLY_REL_TOL = 1e-8
TRACE_REL_TOL = 1e-10
RANK_GUARD = 64


@dataclass(frozen=True)
class CharPolyEvaluation:
    """Value of det(lambda*I - A) with the running recurrence magnitude.

    ``scale`` is the maximum magnitude seen among the intermediate
    recurrence values (p_0 = 1 included), so |value| <= scale always and
    zero tests can use a relative tolerance.
    """

    lam: complex
    value: complex
    scale: float


def char_poly_eval(A: TridiagonalMatrix, lam: complex) -> CharPolyEvaluation:
    """Evaluate det(lambda*I - A) by the continuant recurrence.

    p_0 = 1, p_1 = lambda - diag_1,
    p_k = (lambda - diag_k) p_{k-1} - sub_{k-1} sup_{k-1} p_{k-2}.
    The polynomial is never expanded into coefficients.
    """
    lam = complex(lam)
    # Python complex scalars: indexing numpy arrays per step costs more
    # than the arithmetic, and the values are the same bit for bit.
    diag = A.diag.tolist()
    products = (A.sub * A.sup).tolist()
    p_prev = 1.0 + 0.0j
    scale = 1.0
    p = lam - diag[0]
    scale = max(scale, abs(p))
    for k in range(1, A.n):
        p_next = (lam - diag[k]) * p - products[k - 1] * p_prev
        p_prev = p
        p = p_next
        scale = max(scale, abs(p))
    return CharPolyEvaluation(lam=lam, value=p, scale=scale)


def residual(A: TridiagonalMatrix, lam: complex, v) -> float:
    """Scaled eigen-residual ||A v - lambda v||_inf / max(1, ||v||_inf)."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (A.n,):
        raise DimensionMismatch(f"vector length {v.shape} does not match order {A.n}")
    vnorm = float(np.abs(v).max())
    if vnorm == 0.0:
        raise ZeroVector("residual needs a nonzero vector")
    r = matvec(A, v) - complex(lam) * v
    return float(np.abs(r).max()) / max(1.0, vnorm)


def rank_small(matrix, tol: float) -> int:
    """Numerical rank via Gaussian elimination with partial pivoting.

    A pivot counts if its magnitude exceeds ``tol`` times the largest
    entry magnitude of the original matrix.  Guarded to n <= 64: this is a
    desk-scale certification tool, not a production rank estimator.
    """
    a = np.array(as_square_array(matrix))
    n = a.shape[0]
    if n > RANK_GUARD:
        raise OrderTooLarge(f"rank_small is guarded to n <= {RANK_GUARD}, got n={n}")
    ref = float(np.abs(a).max())
    if ref == 0.0:
        return 0
    threshold = tol * ref
    rank = 0
    row = 0
    for col in range(n):
        if row == n:
            break
        pivot_row = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot_row, col]) <= threshold:
            continue
        if pivot_row != row:
            a[[row, pivot_row]] = a[[pivot_row, row]]
        factors = a[row + 1 :, col] / a[row, col]
        a[row + 1 :, col:] -= np.outer(factors, a[row, col:])
        rank += 1
        row += 1
    return rank


@dataclass(frozen=True)
class SpectrumCheck:
    name: str
    passed: bool
    lhs: complex
    rhs: complex
    tol: float


@dataclass(frozen=True)
class SpectrumComparison:
    """Verdicts of the four certification checks for a claimed spectrum."""

    n: int
    checks: tuple
    passed: bool


def _within(lhs: complex, rhs: complex, tol: float) -> bool:
    """|lhs - rhs| <= tol, and false whenever a term or the tolerance is not finite."""
    gap = abs(lhs - rhs)
    return math.isfinite(gap) and math.isfinite(tol) and gap <= tol


def spectrum_compare(claimed, A: TridiagonalMatrix) -> SpectrumComparison:
    """Certify a claimed eigenvalue multiset against A.

    Four independent checks: every claimed value is a characteristic-
    polynomial root in the relative sense, the sum matches trace(A), the
    sum of squares matches trace(A^2), and the product matches the
    determinant read off the recurrence at zero.
    """
    values = [complex(z) for z in claimed]
    if len(values) != A.n:
        raise DimensionMismatch(
            f"claimed spectrum has {len(values)} values for order {A.n}"
        )
    n = A.n

    ratios = []
    for lam in values:
        ev = char_poly_eval(A, lam)
        ratios.append(abs(ev.value) / ev.scale)
    # np.max keeps a NaN ratio, where Python's max(0.0, nan) drops it
    worst = float(np.max(ratios))
    charpoly = SpectrumCheck(
        name="charpoly",
        passed=_within(worst, 0.0, CHARPOLY_REL_TOL),
        lhs=complex(worst),
        rhs=0.0 + 0.0j,
        tol=CHARPOLY_REL_TOL,
    )

    lhs_trace = complex(sum(values))
    rhs_trace = complex(np.sum(A.diag))
    tol_trace = TRACE_REL_TOL * n
    trace = SpectrumCheck(
        name="trace",
        passed=_within(lhs_trace, rhs_trace, tol_trace),
        lhs=lhs_trace,
        rhs=rhs_trace,
        tol=tol_trace,
    )

    lhs_sq = complex(sum(z * z for z in values))
    rhs_sq = complex(np.sum(A.diag * A.diag) + 2.0 * np.sum(A.sub * A.sup))
    tol_sq = TRACE_REL_TOL * n * n
    trace2 = SpectrumCheck(
        name="trace2",
        passed=_within(lhs_sq, rhs_sq, tol_sq),
        lhs=lhs_sq,
        rhs=rhs_sq,
        tol=tol_sq,
    )

    at_zero = char_poly_eval(A, 0.0)
    lhs_det = complex(np.prod(np.asarray(values, dtype=np.complex128)))
    rhs_det = (-1.0) ** n * at_zero.value
    tol_det = CHARPOLY_REL_TOL * at_zero.scale
    det = SpectrumCheck(
        name="det",
        passed=_within(lhs_det, rhs_det, tol_det),
        lhs=lhs_det,
        rhs=rhs_det,
        tol=tol_det,
    )

    checks = (charpoly, trace, trace2, det)
    return SpectrumComparison(n=n, checks=checks, passed=all(c.passed for c in checks))
