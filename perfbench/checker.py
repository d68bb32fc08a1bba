"""Independent checker for the CLI's outputs.

Every verdict is recomputed with numpy, scipy and the stdlib from the
request the generator built; nothing here imports ``neartoeplitz``.  The
checker runs in the benchmark's parent process, outside the timed region,
and never stops a run: ``check`` returns ``None`` for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# The CLI documents residuals below 1e-10; the check applies the same bound
# to ||A v - lambda v||_inf / ||v||_inf with A built here.
RESIDUAL_TOL = 1e-10
# LAPACK eigenvalues of a defective eigenvalue (the double zero of R_n at
# even n) are only accurate to about sqrt(eps) * ||A||, ~3e-8 here.
EIGVALS_TOL = 1e-6

VERIFY_COLUMNS = ("n", "reduction", "commutator", "centro_skew", "max_residual",
                  "spectrum", "rank", "pass")
PATTERN_KEYS = ("n", "in_pattern_class", "centro_symmetric", "centro_skew")
WITNESSES = ("s", "s_inv", "conjugated", "expected")
RANK_ORDERS = 64  # verify rows up to this order carry the rank column


class CheckFailed(Exception):
    """The output contradicts what the request must produce."""


_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_LITERAL = re.compile(rf"(-?{_REAL})(?:([-+]{_REAL})i)?")


def parse_complex(text: str) -> complex:
    """Read a CLI complex literal: 're', 're+imi' or 're-imi'."""
    m = _LITERAL.fullmatch(text.strip())
    if m is None:
        raise CheckFailed(f"not a complex literal: {text!r}")
    return complex(float(m.group(1)), float(m.group(2) or 0.0))


def _bool(text) -> bool:
    if text in (True, "true"):
        return True
    if text in (False, "false"):
        return False
    raise CheckFailed(f"not a boolean: {text!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# matrices built from the request


def tridiagonal(sub: complex, diag: complex, sup: complex, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    a[idx, idx] = diag
    a[idx[1:], idx[:-1]] = sub
    a[idx[:-1], idx[1:]] = sup
    return a


def family_matrix(family: str, n: int, bands) -> np.ndarray:
    """The dense matrix an ``eigen`` request names."""
    if family == "T":
        a, b, c = (complex(*z) for z in bands)
        return tridiagonal(a, b, c, n)
    a = tridiagonal(-1, 0, 1, n)
    if family == "R":
        a[0, 0] = -1
        a[n - 1, n - 1] = 1
    return a


def eigvals_reference(family: str, n: int, bands) -> np.ndarray:
    """numpy.linalg.eigvals of the requested matrix or of an exact similar one.

    For T(a, b, c) with a != c the eigenvalues have condition number about
    |a/c|^((n-1)/2), far beyond what LAPACK can resolve at n = 512, so the
    reference is taken from T(s, b, s) with s^2 = ac, which
    Diag(1, d, ..., d^(n-1)) with d^2 = c/a makes similar to it; the two
    branches of s give the same spectrum.
    """
    if family == "T" and bands[0] != bands[2]:
        a, b, c = (complex(*z) for z in bands)
        s = np.sqrt(a * c)
        return np.linalg.eigvals(tridiagonal(s, b, s, n))
    a = family_matrix(family, n, bands)
    return np.linalg.eigvals(a if family == "T" else a.real)  # R and K are real


def integer_reduction(n: int) -> dict:
    """S, R and K + e_n e_(n-1)^T over the integers."""
    eye = np.eye(n, dtype=np.int64)
    shift = np.eye(n, k=-1, dtype=np.int64)
    r = shift.T - shift
    r[0, 0] = -1
    r[n - 1, n - 1] = 1
    target = shift.T - shift
    target[n - 1, n - 2] += 1
    return {"eye": eye, "s": eye + shift, "r": r, "target": target}


# ---------------------------------------------------------------------------
# output parsers, one per command and format


def parse_eigen(text: str, fmt: str) -> tuple:
    """(eigenvalues, vectors as columns, verified) from an eigen output."""
    if fmt == "json":
        doc = json.loads(text)
        pairs = doc["pairs"]
        values = [complex(p["lambda"]["re"], p["lambda"]["im"]) for p in pairs]
        vectors = [[complex(z["re"], z["im"]) for z in p["vector"]] for p in pairs]
        verified = doc["verified"] is True
    elif fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        values = [complex(float(r[1]), float(r[2])) for r in rows]
        vectors = [
            [complex(float(x), float(y)) for x, y in zip(r[4::2], r[5::2])] for r in rows
        ]
        verified = True  # the csv layout carries no verdict
    else:
        lines = text.splitlines()
        head = dict(line.split(": ", 1) for line in lines[:5])
        verified = head.get("verified") == "true"
        values, vectors = [], []
        for line in lines[6:]:
            m = re.fullmatch(r"  j=\d+ lambda=(\S+) flag=\S+ vector=\[(.*)\]", line)
            _require(m is not None, f"unreadable pair line {line[:60]!r}")
            values.append(parse_complex(m.group(1)))
            vectors.append([parse_complex(z) for z in m.group(2).split(", ")])
    lengths = {len(v) for v in vectors}
    _require(len(lengths) == 1, "eigenvectors of different lengths")
    return np.array(values), np.array(vectors).T, verified


def _table(text: str, fmt: str, columns: tuple) -> list:
    """Rows of a csv or plain (column-aligned) table as dicts of strings."""
    lines = text.splitlines()
    if fmt == "csv":
        _require(tuple(lines[0].split(",")) == columns, "wrong csv header")
        return [dict(zip(columns, line.split(","))) for line in lines[1:]]
    _require(tuple(lines[0].split()) == columns, "wrong table header")
    starts = [lines[0].index(name) for name in columns] + [None]
    return [
        {name: line[starts[k]:starts[k + 1]].strip() for k, name in enumerate(columns)}
        for line in lines[1:]
    ]


def parse_verify(text: str, fmt: str) -> list:
    if fmt == "json":
        doc = json.loads(text)
        _require(doc["pass"] is True, "verify document reports pass false")
        return doc["rows"]
    return _table(text, fmt, VERIFY_COLUMNS)


def parse_pattern(text: str, fmt: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
    elif fmt == "csv":
        doc = _table(text, fmt, PATTERN_KEYS)[0]
    else:
        doc = dict(line.split(": ", 1) for line in text.splitlines())
    return {key: int(doc[key]) if key == "n" else _bool(doc[key]) for key in PATTERN_KEYS}


def _integer_matrix(values: list, n: int, name: str) -> np.ndarray:
    z = np.array(values, dtype=np.complex128)
    _require(z.size == n * n, f"witness {name} has {z.size} entries, want {n * n}")
    _require(not np.any(z.imag) and np.all(z.real == np.round(z.real)),
             f"witness {name} is not an integer matrix")
    return z.real.astype(np.int64).reshape(n, n)


def parse_reduce(text: str, fmt: str) -> tuple:
    """(n, exact_match, witnesses or None) from a reduce output."""
    if fmt == "json":
        doc = json.loads(text)
        n = doc["n"]
        witnesses = {
            name: _integer_matrix(
                [complex(z["re"], z["im"]) for z in doc["witnesses"][name]["entries"]],
                n, name)
            for name in WITNESSES
        }
        return n, _bool(doc["exact_match"]), witnesses
    lines = text.splitlines()
    if fmt == "csv":
        _require(lines[0] == "identity,n,exact_match", "wrong csv header")
        identity, n, exact = lines[1].split(",")
        _require(identity == "reduction", "csv row is not the reduction")
        return int(n), _bool(exact), None
    n = int(lines[0].removeprefix("n: "))
    exact = _bool(lines[1].removeprefix("exact_match: "))
    witnesses = {}
    for k, name in enumerate(WITNESSES):
        start = 2 + k * (n + 1)
        _require(lines[start] == f"{name}:", f"missing witness {name}")
        cells = [parse_complex(c) for row in lines[start + 1:start + 1 + n] for c in row.split()]
        witnesses[name] = _integer_matrix(cells, n, name)
    return n, exact, witnesses


# ---------------------------------------------------------------------------


class Checker:
    """Decides whether each request's output is correct.

    ``golden_dir`` holds the byte-exact expected outputs of the golden
    requests.  A request whose argv and output bytes match ones already
    accepted in this run is accepted without recomputing the verdict.
    """

    def __init__(self, golden_dir: Path):
        self.golden_dir = Path(golden_dir)
        self._accepted: set = set()
        self._eigvals: dict = {}

    def check(self, request: dict, rc, stdout: str, stderr: str, exception) -> str | None:
        if exception is not None:
            return "raised " + exception.strip().splitlines()[-1]
        if "Traceback" in stderr:
            return "printed a traceback"
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[:200]}"
        key = hashlib.sha256(
            json.dumps(request["argv"]).encode() + b"\0" + stdout.encode()
        ).digest()
        if key in self._accepted:
            return None
        expect = request["expect"]
        try:
            getattr(self, "_check_" + expect["kind"])(expect, stdout)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"
        self._accepted.add(key)
        return None

    def _check_golden(self, expect: dict, stdout: str) -> None:
        golden = (self.golden_dir / expect["file"]).read_bytes()
        _require(stdout.encode() == golden, f"differs from golden {expect['file']}")

    def _check_eigen(self, expect: dict, stdout: str) -> None:
        family, n, bands = expect["family"], expect["n"], expect["bands"]
        values, vectors, verified = parse_eigen(stdout, expect["format"])
        _require(verified, "output reports verified false")
        _require(vectors.shape == (n, n), f"{vectors.shape} pair table, want {n} pairs of {n}")
        _require(np.all(np.isfinite(values)) and np.all(np.isfinite(vectors)),
                 "non-finite value")
        a = family_matrix(family, n, bands)
        scale = np.abs(vectors).max(axis=0)
        _require(np.all(scale > 0), "zero eigenvector")
        residual = (np.abs(a @ vectors - vectors * values).max(axis=0) / scale).max()
        _require(residual <= RESIDUAL_TOL, f"residual {residual:.3g} > {RESIDUAL_TOL:g}")
        key = (family, n, json.dumps(bands))
        if key not in self._eigvals:
            self._eigvals[key] = eigvals_reference(family, n, bands)
        reference = self._eigvals[key]
        distance = np.abs(values[:, None] - reference[None, :])
        rows, cols = linear_sum_assignment(distance)
        worst = distance[rows, cols].max()
        tol = EIGVALS_TOL * max(1.0, np.abs(a).sum(axis=1).max())
        _require(worst <= tol, f"eigenvalues differ from numpy.linalg.eigvals by {worst:.3g}")

    def _check_verify(self, expect: dict, stdout: str) -> None:
        lo, hi = expect["lo"], expect["hi"]
        rows = parse_verify(stdout, expect["format"])
        _require(len(rows) == hi - lo + 1, f"{len(rows)} rows for {lo}:{hi}")
        for n, row in zip(range(lo, hi + 1), rows):
            _require(int(row["n"]) == n, f"row for n={row['n']} where n={n} was due")
            for col in ("reduction", "commutator", "centro_skew", "spectrum", "pass"):
                _require(_bool(row[col]), f"n={n}: {col} is not true")
            if n <= RANK_ORDERS:
                _require(_bool(row["rank"]), f"n={n}: rank is not true")
            else:
                _require(row["rank"] == "", f"n={n}: rank column filled above {RANK_ORDERS}")
            residual = float(row["max_residual"])
            _require(math.isfinite(residual) and residual <= RESIDUAL_TOL,
                     f"n={n}: max_residual {residual:.3g}")

    def _check_pattern(self, expect: dict, stdout: str) -> None:
        verdicts = parse_pattern(stdout, expect["format"])
        for key, want in expect["labels"].items():
            _require(verdicts[key] == want, f"{key} is {verdicts[key]}, generator says {want}")

    def _check_reduce(self, expect: dict, stdout: str) -> None:
        n, exact, witnesses = parse_reduce(stdout, expect["format"])
        _require(n == expect["n"], f"reduction of order {n}, want {expect['n']}")
        _require(exact, "exact_match is false")
        if witnesses is None:
            return
        ref = integer_reduction(n)
        s, s_inv = witnesses["s"], witnesses["s_inv"]
        _require(np.array_equal(s, ref["s"]), "witness s is not I + Z")
        _require(np.array_equal(s @ s_inv, ref["eye"]), "s_inv is not the inverse of s")
        conjugated = s_inv @ ref["r"] @ s
        _require(np.array_equal(conjugated, ref["target"]), "S^-1 R S != K + e_n e_(n-1)^T")
        _require(np.array_equal(witnesses["conjugated"], conjugated), "witness conjugated is wrong")
        _require(np.array_equal(witnesses["expected"], ref["target"]), "witness expected is wrong")
