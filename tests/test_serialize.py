"""Tests for the deterministic JSON interchange layer."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neartoeplitz import (
    DenseMatrix,
    MatrixFormatError,
    TridiagonalMatrix,
    build_K,
    build_R,
    build_S,
    build_toeplitz,
    diag_symmetrize,
    general_toeplitz_eigen,
    near_toeplitz_eigen,
    reduce_R,
    skew_toeplitz_eigen,
    spectrum_compare,
    spectrum_report,
)
from neartoeplitz.cli import _render_reduction, _render_report
from neartoeplitz.serialize import (
    comparison_to_doc,
    complex_to_doc,
    format_complex,
    format_complexes,
    format_float,
    format_floats,
    load_matrix_file,
    matrix_from_doc,
    matrix_to_doc,
    reduction_to_doc,
    render_json,
    report_to_doc,
    symmetrization_to_doc,
)


class TestFloatFormatting:
    def test_seventeen_significant_digits(self):
        assert format_float(math.sqrt(2.0)) == "1.4142135623730951"
        assert format_float(2.0 / 3.0) == "0.66666666666666663"

    def test_zero_canonicalized(self):
        assert format_float(0.0) == "0"
        assert format_float(-0.0) == "0"

    def test_integers_render_plainly(self):
        assert format_float(1.0) == "1"
        assert format_float(-2.0) == "-2"

    def test_round_trip(self):
        for x in (math.pi, -1e-300, 3.5e17, 0.1):
            assert float(format_float(x)) == x

    def test_complex_literals(self):
        assert format_complex(-1.0) == "-1"
        assert format_complex(1j) == "0+1i"
        assert format_complex(2.0 - 3.0j) == "2-3i"


class TestRenderJson:
    def test_output_is_valid_json(self):
        doc = report_to_doc(near_toeplitz_eigen(5))
        parsed = json.loads(render_json(doc))
        assert parsed["n"] == 5
        assert parsed["zero_multiplicity"] == 1

    def test_field_order_is_fixed(self):
        doc = report_to_doc(near_toeplitz_eigen(2))
        text = render_json(doc)
        order = [
            text.index('"matrix"'),
            text.index('"n"'),
            text.index('"pairs"'),
            text.index('"zero_multiplicity"'),
            text.index('"max_residual"'),
            text.index('"verified"'),
        ]
        assert order == sorted(order)

    def test_determinism(self):
        a = render_json(report_to_doc(near_toeplitz_eigen(7)))
        b = render_json(report_to_doc(near_toeplitz_eigen(7)))
        assert a == b


class TestMatrixDocs:
    def test_tridiagonal_round_trip(self):
        k = build_K(4)
        back = matrix_from_doc(json.loads(render_json(matrix_to_doc(k))))
        assert isinstance(back, TridiagonalMatrix)
        assert np.array_equal(back.sub, k.sub)
        assert np.array_equal(back.diag, k.diag)
        assert np.array_equal(back.sup, k.sup)

    def test_dense_round_trip(self):
        s = build_S(3)
        back = matrix_from_doc(json.loads(render_json(matrix_to_doc(s))))
        assert isinstance(back, DenseMatrix)
        assert np.array_equal(back.entries, s.entries)

    def test_complex_entries_survive(self):
        m = TridiagonalMatrix(
            sub=np.array([1.5 - 2.0j]),
            diag=np.array([0.25j, -3.0]),
            sup=np.array([1e-30]),
        )
        back = matrix_from_doc(json.loads(render_json(matrix_to_doc(m))))
        assert np.array_equal(back.diag, m.diag)
        assert np.array_equal(back.sup, m.sup)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"kind": "dense"},
            {"n": 0, "kind": "dense", "entries": []},
            {"n": 2, "kind": "sparse"},
            {"n": 2, "kind": "dense", "entries": [{"re": 0, "im": 0}] * 3},
            {"n": 2, "kind": "tridiagonal", "sub": [], "diag": []},
            {
                "n": 1,
                "kind": "dense",
                "entries": [{"re": "x", "im": 0}],
            },
            {"n": 1, "kind": "dense", "entries": [{"real": 0, "imag": 0}]},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(MatrixFormatError):
            matrix_from_doc(doc)

    def test_load_matrix_file_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3, "kind": "tridiagonal"')
        with pytest.raises(MatrixFormatError):
            load_matrix_file(path)
        with pytest.raises(MatrixFormatError):
            load_matrix_file(tmp_path / "missing.json")


class TestCertificateDocs:
    def test_reduction_doc_shape(self):
        doc = reduction_to_doc(reduce_R(3))
        assert doc["identity"] == "reduction"
        assert doc["n"] == 3
        assert doc["exact_match"] is True
        assert set(doc["witnesses"]) == {"s", "s_inv", "conjugated", "expected"}
        json.loads(render_json(doc))

    def test_symmetrization_doc_shape(self):
        doc = symmetrization_to_doc(diag_symmetrize(4, 0, 1, 3))
        assert doc["identity"] == "symmetrization"
        assert doc["residual"] == 0.0
        assert doc["witnesses"]["d"] == {"re": 0.5, "im": 0.0}
        json.loads(render_json(doc))

    def test_comparison_doc_shape(self):
        comparison = spectrum_compare(near_toeplitz_eigen(4).eigenvalues(), build_R(4))
        doc = comparison_to_doc(comparison)
        assert doc["pass"] is True
        assert [c["name"] for c in doc["checks"]] == ["charpoly", "trace", "trace2", "det"]
        json.loads(render_json(doc))


# ---------------------------------------------------------------------------
# The per-leaf renderers that array rendering replaced, kept as references:
# one {re, im} dict, one recursive call and one float format per component.


def _ref_float(x) -> str:
    x = float(x)
    return "0" if x == 0.0 else format(x, ".17g")


def _ref_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _ref_float(z.real)
    im = _ref_float(z.imag)
    return f"{_ref_float(z.real)}{'' if im.startswith('-') else '+'}{im}i"


def _ref_json(value, out: list, level: int = 0, indent: int = 2) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(value, np.ndarray):
        value = [complex_to_doc(z) for z in value] if np.iscomplexobj(value) else list(value)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _ref_json(item, out, level + 1, indent)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _ref_json(item, out, level + 1, indent)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "]")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_ref_float(value))
    else:
        out.append(json.dumps(value))


def _ref_report(report, fmt: str) -> str:
    if fmt == "json":
        out: list = []
        _ref_json(report_to_doc(report), out)
        return "".join(out) + "\n"
    if fmt == "csv":
        header = ["j", "lambda_re", "lambda_im", "flag"]
        for k in range(1, report.n + 1):
            header += [f"v{k}_re", f"v{k}_im"]
        lines = [",".join(header)]
        for pair in report.pairs:
            row = [str(pair.index_j), _ref_float(pair.value.real), _ref_float(pair.value.imag), pair.flag]
            for z in pair.vector:
                row += [_ref_float(z.real), _ref_float(z.imag)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    lines = [
        f"matrix: {report.matrix_descriptor}",
        f"n: {report.n}",
        f"zero_multiplicity: {report.algebraic_multiplicity_of_zero}",
        f"max_residual: {_ref_float(report.max_residual)}",
        f"verified: {'true' if report.verified else 'false'}",
        "pairs:",
    ]
    for pair in report.pairs:
        vec = ", ".join(_ref_complex(z) for z in pair.vector)
        lines.append(
            f"  j={pair.index_j} lambda={_ref_complex(pair.value)} "
            f"flag={pair.flag} vector=[{vec}]"
        )
    return "\n".join(lines) + "\n"


def _ref_reduction(cert, fmt: str) -> str:
    if fmt == "json":
        out: list = []
        _ref_json(reduction_to_doc(cert), out)
        return "".join(out) + "\n"
    lines = [f"n: {cert.n}", f"exact_match: {'true' if cert.exact_match else 'false'}"]
    for name in ("s", "s_inv", "conjugated", "expected"):
        cells = [[_ref_complex(z) for z in row] for row in getattr(cert, name).entries]
        width = max(len(c) for row in cells for c in row)
        lines.append(f"{name}:")
        lines.extend("  " + "  ".join(c.rjust(width) for c in row) for row in cells)
    return "\n".join(lines) + "\n"


# The band triples (a, b, c) of the family T: a == c real, zero and complex,
# then a != c real and complex.
T_TRIPLES = [
    (1, 0, 1), (-2, 3, -2), (0, 7, 0), (0.5 + 1.5j, 1 - 2j, 0.5 + 1.5j),
    (-0.3 - 2j, 0, -0.3 - 2j), (4, 0, 1), (-1, 0, 1), (2, 0.5, -3),
    (1 + 2j, 0.25, 3 - 1j), (0.3, 1, -0.7j),
]
FAMILIES = ["R", "K"] + [f"T{k}" for k in range(len(T_TRIPLES))]
# Every small order, where the widths, signs and zeros vary most, and a few
# large ones; the reference renderer is too slow to sweep all of 1..128 here.
ORDERS = list(range(1, 33)) + [47, 64, 100, 128]


def _family_report(family: str, n: int):
    if family == "R":
        return near_toeplitz_eigen(n)
    if family == "K":
        return spectrum_report(f"K(n={n})", build_K(n), skew_toeplitz_eigen(n))
    a, b, c = T_TRIPLES[int(family[1:])]
    return spectrum_report(family, build_toeplitz(a, b, c, n), general_toeplitz_eigen(a, b, c, n))


class TestArrayRenderingMatchesPerLeaf:
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_eigen_reports(self, family, fmt):
        for n in ORDERS:
            if family == "R" and n == 1:
                continue
            report = _family_report(family, n)
            assert _render_report(report, fmt) == _ref_report(report, fmt), n

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_reduce_witnesses(self, fmt):
        for n in list(range(2, 33)) + [47, 64]:
            cert = reduce_R(n)
            assert _render_reduction(cert, fmt) == _ref_reduction(cert, fmt), n

    def test_symmetrization_doc(self):
        doc = symmetrization_to_doc(diag_symmetrize(2 - 1j, 0.5, -3, 9))
        out: list = []
        _ref_json(doc, out)
        assert render_json(doc) == "".join(out)

    def test_float_array_leaf(self):
        values = np.array([0.0, -0.0, 1.5, -2.0, 1e-310, 1.0 / 3.0])
        out: list = []
        _ref_json({"x": values, "empty": np.array([])}, out)
        assert render_json({"x": values, "empty": np.array([])}) == "".join(out)

    @pytest.mark.parametrize("leaf", [np.zeros((2, 2)), np.arange(3), np.array([True])])
    def test_other_array_leaves_rejected(self, leaf):
        with pytest.raises(TypeError):
            render_json({"x": leaf})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max]


class TestFormatFloats:
    @given(st.lists(FINITE | st.sampled_from(EDGES), max_size=64))
    def test_matches_format_float(self, values):
        expected = [format_float(x) for x in values]
        assert format_floats(values) == expected
        assert format_floats(np.array(values, dtype=np.float64)) == expected
        assert expected == [_ref_float(x) for x in values]

    @given(
        st.lists(FINITE, max_size=16),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.lists(FINITE | st.sampled_from([math.nan, math.inf, -math.inf]), max_size=16),
    )
    def test_non_finite_raises_on_first(self, head, bad, tail):
        with pytest.raises(ValueError) as caught:
            format_floats(head + [bad] + tail)
        with pytest.raises(ValueError) as scalar:
            format_float(bad)
        assert str(caught.value) == str(scalar.value)

    @given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=32))
    def test_complexes_match_format_complex(self, values):
        assert format_complexes(values) == [_ref_complex(z) for z in values]
        assert [format_complex(z) for z in values] == [_ref_complex(z) for z in values]
