"""Deterministic JSON interchange for matrices, reports and certificates.

Output is byte-stable: object keys keep their documented order, floats are
rendered with 17 significant digits (enough to round-trip binary64) and
zero is always rendered as ``0`` regardless of sign.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import DenseMatrix, TridiagonalMatrix
from .errors import MatrixFormatError
from .oracle import SpectrumComparison
from .spectra import SpectrumReport
from .transforms import ReductionCertificate, SymmetrizationCertificate

__all__ = [
    "format_float",
    "format_floats",
    "format_complex",
    "format_complexes",
    "render_json",
    "complex_to_doc",
    "matrix_to_doc",
    "matrix_from_doc",
    "load_matrix_file",
    "report_to_doc",
    "comparison_to_doc",
    "reduction_to_doc",
    "commutator_to_doc",
    "symmetrization_to_doc",
]


def _finite_values(values) -> np.ndarray:
    """The values as one flat float64 array, with every zero made +0.0.

    Raises ValueError on the first non-finite value, in input order.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(x[finite.argmin()])!r}")
    return x + 0.0  # -0.0 + 0.0 is +0.0, which '%.17g' writes as '0'


def _digits(x: np.ndarray) -> list:
    """'%.17g' of each value (17 significant digits round-trip binary64)."""
    return ("\n".join(["%.17g"] * x.size) % tuple(x.tolist())).split("\n")


def format_float(x: float) -> str:
    """Render a finite binary64 with 17 significant digits; zero as '0'."""
    return _digits(_finite_values((x,)))[0]


def format_floats(values) -> list:
    """``[format_float(x) for x in values]``, formatting each distinct value once."""
    unique, inverse = np.unique(_finite_values(values), return_inverse=True)
    return np.array(_digits(unique), dtype=object)[inverse].tolist()


def format_complex(z: complex) -> str:
    """CLI-style complex literal: 're' for real values, else 're+imi'."""
    return format_complexes((z,))[0]


def format_complexes(values) -> list:
    """``[format_complex(z) for z in values]``, through one array pass per part."""
    z = np.asarray(values, dtype=np.complex128).reshape(-1)
    im = format_floats(z.imag)  # first, so a non-finite imaginary part is the one named
    return [
        r if i == "0" else f"{r}{i}i" if i.startswith("-") else f"{r}+{i}i"
        for r, i in zip(format_floats(z.real), im)
    ]


def complex_to_doc(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def render_json(value, indent: int = 2) -> str:
    """Serialize nested dict/list/scalar data with deterministic bytes.

    A 1-D float array leaf renders as its list of numbers and a 1-D complex
    array leaf as its list of {re, im} objects, each number through one
    format_floats call per array.
    """
    lines: list = []
    _render(value, lines, 0, indent)
    return "".join(lines)


def _render(value, out: list, level: int, indent: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f'{pad}{json.dumps(str(key))}: ')
            _render(item, out, level + 1, indent)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, np.ndarray):
        out.append(_render_array(value, level, indent))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _render(item, out, level + 1, indent)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "]")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _render_array(values: np.ndarray, level: int, indent: int) -> str:
    """A 1-D float or complex array, as _render would write its list of
    numbers or of {re, im} objects, through one format_floats call."""
    if values.ndim != 1 or not np.issubdtype(values.dtype, np.inexact):
        raise TypeError(f"cannot serialize a {values.ndim}-D {values.dtype} array")
    if not values.size:
        return "[]"
    pad = " " * (indent * (level + 1))
    if np.iscomplexobj(values):
        inner = pad + " " * indent
        item = f'{pad}{{\n{inner}"re": %s,\n{inner}"im": %s\n{pad}}}'
        numbers = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    else:
        item = pad + "%s"
        numbers = values
    body = ",\n".join([item] * values.size) % tuple(format_floats(numbers))
    return f"[\n{body}\n{' ' * (indent * level)}]"


def matrix_to_doc(matrix) -> dict:
    """Matrix-file document: banded or dense, entries as complex arrays.

    render_json writes each array as its list of {re, im} objects.
    """
    if isinstance(matrix, TridiagonalMatrix):
        return {
            "n": matrix.n,
            "kind": "tridiagonal",
            "sub": matrix.sub,
            "diag": matrix.diag,
            "sup": matrix.sup,
        }
    if isinstance(matrix, DenseMatrix):
        return {
            "n": matrix.n,
            "kind": "dense",
            "entries": matrix.entries.reshape(-1),
        }
    raise TypeError(f"cannot serialize matrix of type {type(matrix).__name__}")


def _complex_from_doc(doc, where: str) -> complex:
    if not isinstance(doc, dict) or set(doc) != {"re", "im"}:
        raise MatrixFormatError(f"{where}: expected an object with keys re, im")
    re, im = doc["re"], doc["im"]
    if isinstance(re, bool) or isinstance(im, bool):
        raise MatrixFormatError(f"{where}: re/im must be numbers")
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise MatrixFormatError(f"{where}: re/im must be numbers")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MatrixFormatError(f"{where}: re/im must be finite")
    return complex(re, im)


def _complex_list(doc, count: int, where: str) -> np.ndarray:
    if not isinstance(doc, list):
        raise MatrixFormatError(f"{where}: expected a list")
    if len(doc) != count:
        raise MatrixFormatError(f"{where}: expected {count} entries, got {len(doc)}")
    return np.array(
        [_complex_from_doc(item, f"{where}[{i}]") for i, item in enumerate(doc)],
        dtype=np.complex128,
    ).reshape(count)


def matrix_from_doc(doc):
    """Parse a matrix-file document, raising MatrixFormatError with context."""
    if not isinstance(doc, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f"field 'n' must be a positive integer, got {n!r}")
    kind = doc.get("kind")
    if kind == "tridiagonal":
        missing = {"sub", "diag", "sup"} - set(doc)
        if missing:
            raise MatrixFormatError(f"tridiagonal document lacks {sorted(missing)}")
        return TridiagonalMatrix(
            sub=_complex_list(doc["sub"], n - 1, "sub"),
            diag=_complex_list(doc["diag"], n, "diag"),
            sup=_complex_list(doc["sup"], n - 1, "sup"),
        )
    if kind == "dense":
        if "entries" not in doc:
            raise MatrixFormatError("dense document lacks 'entries'")
        flat = _complex_list(doc["entries"], n * n, "entries")
        return DenseMatrix(flat.reshape(n, n))
    raise MatrixFormatError(f"field 'kind' must be 'tridiagonal' or 'dense', got {kind!r}")


def load_matrix_file(path):
    """Read and parse one matrix-file document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_doc(doc)


def report_to_doc(report: SpectrumReport) -> dict:
    """SpectrumReport document with the fixed field order."""
    return {
        "matrix": report.matrix_descriptor,
        "n": report.n,
        "pairs": [
            {
                "j": pair.index_j,
                "lambda": complex_to_doc(pair.value),
                "vector": pair.vector,
                "flag": pair.flag,
            }
            for pair in report.pairs
        ],
        "zero_multiplicity": report.algebraic_multiplicity_of_zero,
        "max_residual": report.max_residual,
        "verified": report.verified,
    }


def _check_value_doc(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return complex_to_doc(z)


def comparison_to_doc(comparison: SpectrumComparison) -> dict:
    return {
        "n": comparison.n,
        "checks": [
            {
                "name": check.name,
                "pass": check.passed,
                "lhs": _check_value_doc(check.lhs),
                "rhs": _check_value_doc(check.rhs),
                "tol": check.tol,
            }
            for check in comparison.checks
        ],
        "pass": comparison.passed,
    }


def reduction_to_doc(cert: ReductionCertificate) -> dict:
    return {
        "identity": "reduction",
        "n": cert.n,
        "exact_match": cert.exact_match,
        "witnesses": {
            "s": matrix_to_doc(cert.s),
            "s_inv": matrix_to_doc(cert.s_inv),
            "conjugated": matrix_to_doc(cert.conjugated),
            "expected": matrix_to_doc(cert.expected),
        },
    }


def commutator_to_doc(n: int, exact_match: bool) -> dict:
    return {"identity": "commutator", "n": n, "exact_match": exact_match, "witnesses": {}}


def symmetrization_to_doc(cert: SymmetrizationCertificate) -> dict:
    return {
        "identity": "symmetrization",
        "n": cert.n,
        "residual": cert.residual,
        "witnesses": {
            "a": complex_to_doc(cert.a),
            "b": complex_to_doc(cert.b),
            "c": complex_to_doc(cert.c),
            "d": complex_to_doc(cert.d),
            "diag_d": cert.diag_d,
            "symmetrized": matrix_to_doc(cert.symmetrized),
        },
    }
