"""Command-line surface: construction, eigen-computation and verification.

Subcommands
-----------
eigen    closed-form spectrum of one family (R, K or T) at a single order
verify   sweep a range of orders through every identity and oracle check
reduce   print the bidiagonal similarity reduction witnesses
pattern  classify a matrix file (sign-pattern class, centro-symmetry)
info     show which closed form backs which family

Exit codes: 0 all checks pass, 1 usage or input error, 2 a mathematical
check failed.  Data goes to stdout (or --output); diagnostics to stderr.
The environment variable NEARTOEPLITZ_TOL overrides the default residual
tolerance; an explicit --tol beats both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .core import (
    DenseMatrix,
    build_K,
    build_toeplitz,
    is_centro_skew,
    is_centro_symmetric,
    in_pattern_class,
    build_R,
)
from .errors import NearToeplitzError
from .oracle import RANK_GUARD, rank_small, spectrum_compare
from .serialize import (
    format_complex,
    format_float,
    load_matrix_file,
    reduction_to_doc,
    render_json,
    report_to_doc,
)
from .spectra import (
    RESIDUAL_TOL,
    SpectrumReport,
    general_toeplitz_eigen,
    near_toeplitz_eigen,
    skew_toeplitz_eigen,
    spectrum_report,
)
from .transforms import commutator_check, reduce_R

__all__ = ["main", "build_parser", "parse_complex_literal"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

RANK_TOL = 1e-10


class CliUsageError(Exception):
    """Usage or input problem: reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def parse_complex_literal(text: str) -> complex:
    """Parse 're' or 're+imi' / 're-imi' (e.g. '-1', '0+1i', '2-3i').

    Both parts must be finite: 'nan', 'inf' and overflowing literals such
    as '1e999' are rejected.
    """
    s = text.strip()
    if s.endswith("i"):
        body = s[:-1]
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split == -1:
            raise ValueError(f"expected re+imi or re-imi, got {text!r}")
        value = complex(float(body[:split]), float(body[split:]))
    else:
        value = complex(float(s), 0.0)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"expected finite parts, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"expected a positive real, got {text!r}")
    return value


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise CliUsageError(f"--n-range expects LO:HI, got {text!r}") from None
    return lo, hi


def _resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("NEARTOEPLITZ_TOL")
    if env is None:
        return RESIDUAL_TOL
    try:
        tol = float(env)
    except ValueError:
        raise CliUsageError(
            f"NEARTOEPLITZ_TOL must be a positive decimal literal, got {env!r}"
        ) from None
    if not (tol > 0.0 and math.isfinite(tol)):
        raise CliUsageError(f"NEARTOEPLITZ_TOL must be positive, got {env!r}")
    return tol


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bool_word(value) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _matrix_lines(matrix: DenseMatrix) -> list:
    cells = [[format_complex(z) for z in row] for row in matrix.entries]
    width = max(len(c) for row in cells for c in row)
    return ["  ".join(c.rjust(width) for c in row) for row in cells]


# ---------------------------------------------------------------------------
# eigen


def _render_report(report: SpectrumReport, fmt: str) -> str:
    if fmt == "json":
        return render_json(report_to_doc(report)) + "\n"
    if fmt == "csv":
        n = report.n
        header = ["j", "lambda_re", "lambda_im", "flag"]
        for k in range(1, n + 1):
            header += [f"v{k}_re", f"v{k}_im"]
        lines = [",".join(header)]
        for pair in report.pairs:
            row = [
                str(pair.index_j),
                format_float(pair.value.real),
                format_float(pair.value.imag),
                pair.flag,
            ]
            for z in pair.vector:
                row += [format_float(z.real), format_float(z.imag)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    lines = [
        f"matrix: {report.matrix_descriptor}",
        f"n: {report.n}",
        f"zero_multiplicity: {report.algebraic_multiplicity_of_zero}",
        f"max_residual: {format_float(report.max_residual)}",
        f"verified: {_bool_word(report.verified)}",
        "pairs:",
    ]
    for pair in report.pairs:
        vec = ", ".join(format_complex(z) for z in pair.vector)
        lines.append(
            f"  j={pair.index_j} lambda={format_complex(pair.value)} "
            f"flag={pair.flag} vector=[{vec}]"
        )
    return "\n".join(lines) + "\n"


def cmd_eigen(args) -> int:
    family = args.family
    n = args.n
    tol = _resolve_tol(args)
    bands = [args.a, args.b, args.c]
    if family != "T" and any(v is not None for v in bands):
        raise CliUsageError("--a/--b/--c are only valid with --family T")
    if family in ("S", "Z", "E"):
        raise CliUsageError(
            f"family {family} has no closed-form eigen-solver; choose R, K or T"
        )
    if family == "R":
        report = near_toeplitz_eigen(n, tol=tol)
    elif family == "K":
        report = spectrum_report(f"K(n={n})", build_K(n), skew_toeplitz_eigen(n), tol=tol)
    else:
        if any(v is None for v in bands):
            raise CliUsageError("family T requires --a, --b and --c")
        a, b, c = bands
        pairs = general_toeplitz_eigen(a, b, c, n)
        descriptor = (
            f"T(n={n}, a={format_complex(a)}, b={format_complex(b)}, "
            f"c={format_complex(c)})"
        )
        report = spectrum_report(descriptor, build_toeplitz(a, b, c, n), pairs, tol=tol)
    if not math.isfinite(report.max_residual):
        print(
            f"error: residual is {report.max_residual}; the closed form is not "
            f"finite at n={n}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    _emit(args, _render_report(report, args.format))
    if not report.verified:
        print(
            f"error: residual {format_float(report.max_residual)} exceeds "
            f"tolerance {format_float(tol)}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

_VERIFY_COLUMNS = (
    "n",
    "reduction",
    "commutator",
    "centro_skew",
    "max_residual",
    "spectrum",
    "rank",
    "pass",
)


def _verify_row(n: int, tol: float) -> dict:
    cert = reduce_R(n)
    commutator = commutator_check(n)
    R = build_R(n)
    centro = is_centro_skew(R)
    report = near_toeplitz_eigen(n, tol=tol)
    comparison = spectrum_compare(report.eigenvalues(), R)
    rank_ok = None
    if n <= RANK_GUARD:
        rank_ok = rank_small(R.to_dense(), RANK_TOL) == n - 1
    row_pass = (
        cert.exact_match
        and commutator
        and centro
        and report.verified
        and comparison.passed
        and rank_ok is not False
    )
    return {
        "n": n,
        "reduction": cert.exact_match,
        "commutator": commutator,
        "centro_skew": centro,
        "max_residual": report.max_residual,
        "spectrum": comparison.passed,
        "rank": rank_ok,
        "pass": row_pass,
    }


def _render_verify(rows: list, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "rows": [
                {
                    key: (row[key] if row[key] is not None else "")
                    for key in _VERIFY_COLUMNS
                }
                for row in rows
            ],
            "pass": all(row["pass"] for row in rows),
        }
        return render_json(doc) + "\n"
    table = [list(_VERIFY_COLUMNS)]
    for row in rows:
        table.append(
            [
                str(row["n"]),
                _bool_word(row["reduction"]),
                _bool_word(row["commutator"]),
                _bool_word(row["centro_skew"]),
                format_float(row["max_residual"]),
                _bool_word(row["spectrum"]),
                _bool_word(row["rank"]),
                _bool_word(row["pass"]),
            ]
        )
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in table) + "\n"
    widths = [max(len(line[k]) for line in table) for k in range(len(_VERIFY_COLUMNS))]
    lines = [
        "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(cells)).rstrip()
        for cells in table
    ]
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.n_range)
    if lo < 2 or hi > 512 or lo > hi:
        raise CliUsageError(
            f"--n-range must lie within 2:512 with LO <= HI, got {lo}:{hi}"
        )
    tol = _resolve_tol(args)
    rows = [_verify_row(n, tol) for n in range(lo, hi + 1)]
    _emit(args, _render_verify(rows, args.format))
    if not all(row["pass"] for row in rows):
        failing = [str(row["n"]) for row in rows if not row["pass"]]
        print(f"error: checks failed at n = {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# reduce


def _render_reduction(cert, fmt: str) -> str:
    if fmt == "json":
        return render_json(reduction_to_doc(cert)) + "\n"
    if fmt == "csv":
        return (
            "identity,n,exact_match\n"
            f"reduction,{cert.n},{_bool_word(cert.exact_match)}\n"
        )
    lines = [f"n: {cert.n}", f"exact_match: {_bool_word(cert.exact_match)}"]
    for name, matrix in (
        ("s", cert.s),
        ("s_inv", cert.s_inv),
        ("conjugated", cert.conjugated),
        ("expected", cert.expected),
    ):
        lines.append(f"{name}:")
        lines.extend("  " + row for row in _matrix_lines(matrix))
    return "\n".join(lines) + "\n"


def cmd_reduce(args) -> int:
    cert = reduce_R(args.n)
    _emit(args, _render_reduction(cert, args.format))
    if not cert.exact_match:
        print(f"error: reduction mismatch at n={cert.n}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# pattern


def cmd_pattern(args) -> int:
    matrix = load_matrix_file(args.input)
    verdicts = {
        "n": matrix.n,
        "in_pattern_class": in_pattern_class(matrix),
        "centro_symmetric": is_centro_symmetric(matrix),
        "centro_skew": is_centro_skew(matrix),
    }
    if args.format == "json":
        _emit(args, render_json(verdicts) + "\n")
    elif args.format == "csv":
        _emit(
            args,
            "n,in_pattern_class,centro_symmetric,centro_skew\n"
            f"{verdicts['n']},{_bool_word(verdicts['in_pattern_class'])},"
            f"{_bool_word(verdicts['centro_symmetric'])},"
            f"{_bool_word(verdicts['centro_skew'])}\n",
        )
    else:
        _emit(
            args,
            f"n: {verdicts['n']}\n"
            f"in_pattern_class: {_bool_word(verdicts['in_pattern_class'])}\n"
            f"centro_symmetric: {_bool_word(verdicts['centro_symmetric'])}\n"
            f"centro_skew: {_bool_word(verdicts['centro_skew'])}\n",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# info

_INFO_ROWS = (
    {
        "name": "R",
        "construction": "sub -1, diag (-1, 0, ..., 0, 1), sup +1; needs n >= 2",
        "spectrum": (
            "eigenvalues 0 and 2i*cos(j*pi/n) for j=1..n-1; eigenvectors are the "
            "all-ones vector and the K_(n-1) vectors pushed through S = I + Z; "
            "for even n the zero eigenvalue has algebraic multiplicity 2 but a "
            "single independent eigenvector"
        ),
    },
    {
        "name": "K",
        "construction": "Z^T - Z = T(-1, 0, 1)",
        "spectrum": (
            "eigenvalues 2i*cos(j*pi/(n+1)); eigenvector components "
            "i^k*sin(k*j*pi/(n+1))"
        ),
    },
    {
        "name": "T (a = c)",
        "construction": "constant bands (a, b, a)",
        "spectrum": (
            "eigenvalues b + 2a*cos(j*pi/(n+1)); eigenvector components "
            "sin(k*j*pi/(n+1))"
        ),
    },
    {
        "name": "T (general, ac != 0)",
        "construction": "constant bands (a, b, c)",
        "spectrum": (
            "conjugation by Diag(1, d, ..., d^(n-1)) with d = sqrt(ac)/a reduces "
            "to bands (sqrt(ac), b, sqrt(ac)); eigenvalues "
            "b + 2*sqrt(ac)*cos(j*pi/(n+1))"
        ),
    },
    {
        "name": "S",
        "construction": "I + Z, unit lower bidiagonal",
        "spectrum": "similarity witness for the reduction; no eigen-solver",
    },
    {
        "name": "Z",
        "construction": "ones on the subdiagonal (lower shift)",
        "spectrum": "nilpotent; no eigen-solver",
    },
    {
        "name": "E",
        "construction": "ones on the anti-diagonal (exchange)",
        "spectrum": "conjugation E*A*E drives the centro-skew test; no eigen-solver",
    },
    {
        "name": "reduction",
        "construction": "S^-1 R S",
        "spectrum": "equals K + e_n e_(n-1)^T exactly over the integers",
    },
    {
        "name": "commutator",
        "construction": "[K, S]",
        "spectrum": (
            "equals e_1 e_1^T - e_n e_n^T and also "
            "S e_n e_(n-1)^T + (e_1 e_1^T - e_n e_n^T) S"
        ),
    },
)


def cmd_info(args) -> int:
    if args.format == "json":
        _emit(args, render_json(list(_INFO_ROWS)) + "\n")
    elif args.format == "csv":
        lines = ["name,construction,spectrum"]
        for row in _INFO_ROWS:
            cells = [row["name"], row["construction"], row["spectrum"]]
            lines.append(",".join('"' + c.replace('"', '""') + '"' for c in cells))
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = []
        for row in _INFO_ROWS:
            lines.append(f"{row['name']}:")
            lines.append(f"  construction: {row['construction']}")
            lines.append(f"  spectrum: {row['spectrum']}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument(
        "--format", choices=["json", "csv", "plain"], default="plain",
        help="output format (default: plain)",
    )
    parser.add_argument("--output", help="write data to this path instead of stdout")
    parser.add_argument(
        "--tol", type=_positive_float, default=None,
        help="residual tolerance override (default 1e-10 or NEARTOEPLITZ_TOL)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neartoeplitz",
        description="Closed-form eigen-pairs and verification for structured "
        "tridiagonal matrix families.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eigen = sub.add_parser("eigen", help="closed-form spectrum of one family")
    p_eigen.add_argument(
        "--family", required=True, choices=["R", "K", "T", "S", "Z", "E"]
    )
    p_eigen.add_argument("--n", required=True, type=int)
    p_eigen.add_argument("--a", type=parse_complex_literal, default=None)
    p_eigen.add_argument("--b", type=parse_complex_literal, default=None)
    p_eigen.add_argument("--c", type=parse_complex_literal, default=None)
    _add_common(p_eigen)
    p_eigen.set_defaults(handler=cmd_eigen)

    p_verify = sub.add_parser("verify", help="sweep orders through every check")
    p_verify.add_argument("--n-range", required=True, dest="n_range")
    _add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_reduce = sub.add_parser("reduce", help="print the reduction witnesses")
    p_reduce.add_argument("--n", required=True, type=int)
    _add_common(p_reduce)
    p_reduce.set_defaults(handler=cmd_reduce)

    p_pattern = sub.add_parser("pattern", help="classify a matrix file")
    p_pattern.add_argument("--input", required=True, help="matrix file (JSON schema)")
    _add_common(p_pattern)
    p_pattern.set_defaults(handler=cmd_pattern)

    p_info = sub.add_parser("info", help="formula provenance per family")
    _add_common(p_info)
    p_info.set_defaults(handler=cmd_info)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NearToeplitzError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
