"""End-to-end CLI tests: golden outputs, exit codes, stream discipline."""

import json
from pathlib import Path

import pytest

from neartoeplitz.cli import main, parse_complex_literal
from neartoeplitz.serialize import matrix_to_doc, render_json
from neartoeplitz import build_R

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-1", -1 + 0j),
            ("0+1i", 1j),
            ("2-3i", 2 - 3j),
            ("1e-3+2.5i", 1e-3 + 2.5j),
            ("-0.5-1e-2i", -0.5 - 1e-2j),
            ("4", 4 + 0j),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_complex_literal(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "i", "1i", "1+2", "abc", "1+2j", "nan", "-inf", "1e999", "1+nani", "0-infi"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex_literal(text)


class TestGolden:
    def test_eigen_R4_json_byte_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "R", "--n", "4", "--format", "json"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "eigen_R4.json").read_bytes()

    def test_reduce_4_byte_match(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--n", "4")
        assert code == 0
        assert out.encode() == (GOLDEN / "reduce_4.txt").read_bytes()

    def test_determinism(self, capsys):
        first = run_cli(capsys, "eigen", "--family", "K", "--n", "6", "--format", "json")
        second = run_cli(capsys, "eigen", "--family", "K", "--n", "6", "--format", "json")
        assert first == second


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--family", "R", "--n", "4")
        assert code == 0
        assert out

    def test_usage_error_is_one(self, capsys):
        code, out, err = run_cli(capsys, "eigen", "--family", "R", "--n", "1")
        assert code == 1
        assert not out
        assert "OrderTooSmall" in err

    def test_check_failure_is_two(self, capsys):
        # residuals are ~1e-16 but never all zero at n=5
        code, out, err = run_cli(
            capsys, "eigen", "--family", "R", "--n", "5", "--tol", "1e-30"
        )
        assert code == 2
        assert out
        assert "exceeds" in err

    def test_non_finite_residual_is_two_without_data(self, capsys):
        code, out, err = run_cli(
            capsys, "eigen", "--family", "T", "--n", "1100",
            "--a", "4", "--b", "0", "--c", "1",
        )
        assert code == 2
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eigen", "--family", "Q", "--n", "4")
        assert code == 1

    def test_unsolved_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--family", "S", "--n", "4")
        assert code == 1
        assert "no closed-form eigen-solver" in err

    def test_missing_band_params_for_T(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--family", "T", "--n", "3")
        assert code == 1
        assert "requires --a, --b and --c" in err

    def test_band_params_rejected_for_R(self, capsys):
        code, _, _ = run_cli(
            capsys, "eigen", "--family", "R", "--n", "3", "--a", "1"
        )
        assert code == 1

    def test_bad_complex_literal(self, capsys):
        code, _, _ = run_cli(
            capsys, "eigen", "--family", "T", "--n", "3",
            "--a", "nope", "--b", "0", "--c", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("band", ["--a", "--b", "--c"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_band_is_usage_error(self, capsys, band, value):
        bands = {"--a": "2", "--b": "0", "--c": "1"}
        bands[band] = value
        code, out, err = run_cli(
            capsys, "eigen", "--family", "T", "--n", "4",
            *(f"{flag}={text}" for flag, text in bands.items()),
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("error:") == 1

    @pytest.mark.parametrize("band", ["--a", "--b", "--c"])
    @pytest.mark.parametrize("value", ["-1+2i", "-1e-3", "-0.5-2i"])
    def test_negative_band_literal_needs_no_equals(self, capsys, band, value):
        bands = {"--a": "2", "--b": "0", "--c": "1", band: value}
        common = ["eigen", "--family", "T", "--n", "4", "--format", "json"]
        spaced = [token for flag, text in bands.items() for token in (flag, text)]
        joined = [f"{flag}={text}" for flag, text in bands.items()]
        result = run_cli(capsys, *common, *spaced)
        assert result[0] == 0
        assert result == run_cli(capsys, *common, *joined)

    def test_band_flag_without_value_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eigen", "--family", "T", "--a", "--b", "0", "--c", "1", "--n", "3",
        )
        assert code == 1
        assert out == ""
        assert "--a" in err

    def test_zero_band_product_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eigen", "--family", "T", "--n", "3",
            "--a", "0", "--b", "1", "--c", "2",
        )
        assert code == 1
        assert "ZeroBandProduct" in err


class TestEigen:
    def test_T_symmetric_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "T", "--a", "1", "--b", "0", "--c", "1",
            "--n", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        values = sorted(p["lambda"]["re"] for p in doc["pairs"])
        assert values == pytest.approx([-2**0.5, 0.0, 2**0.5], abs=1e-14)

    def test_R4_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "R", "--n", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["zero_multiplicity"] == 2
        assert doc["verified"] is True
        flags = [p["flag"] for p in doc["pairs"]]
        assert flags.count("duplicate_of_all_ones") == 1

    def test_csv_flattens_complex_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "K", "--n", "2", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["j", "lambda_re", "lambda_im", "flag"]
        assert "v1_re" in header and "v2_im" in header
        assert len(out.splitlines()) == 3

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NEARTOEPLITZ_TOL", "1e-30")
        code, _, _ = run_cli(capsys, "eigen", "--family", "R", "--n", "5")
        assert code == 2
        # explicit flag beats the environment
        code, _, _ = run_cli(
            capsys, "eigen", "--family", "R", "--n", "5", "--tol", "1e-10"
        )
        assert code == 0

    def test_bad_env_tolerance_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NEARTOEPLITZ_TOL", "not-a-number")
        code, _, _ = run_cli(capsys, "eigen", "--family", "R", "--n", "4")
        assert code == 1

    def test_output_redirects_data_only(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "R", "--n", "4", "--format", "json",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["matrix"] == "R(n=4)"


    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "eigen", "--family", "R", "--n", "4", "--format", "json",
            "--output", str(tmp_path / "missing" / "x.json"),
        )
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert "Traceback" not in err


class TestVerify:
    def test_range_2_16_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-range", "2:16")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16  # header + 15 rows

    def test_range_2_64_within_time_budget(self, capsys):
        import time

        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--n-range", "2:64")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(out.strip().splitlines()) == 64
        assert elapsed < 10.0

    def test_single_row_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-range", "2:2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,reduction,commutator,centro_skew,max_residual,spectrum,rank,pass"
        assert lines[1].startswith("2,true,true,true,")
        assert lines[1].endswith(",true")
        assert len(lines) == 2

    def test_range_below_two_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-range", "1:4")
        assert code == 1

    def test_range_above_cap_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-range", "2:513")
        assert code == 1

    def test_malformed_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-range", "2:4:8")
        assert code == 1

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-range", "3:5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert [row["n"] for row in doc["rows"]] == [3, 4, 5]
        assert all(row["rank"] is True for row in doc["rows"])

    def test_tiny_tolerance_fails_with_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--n-range", "3:3", "--tol", "1e-30"
        )
        assert code == 2

    def test_rank_column_blank_above_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-range", "65:65", "--format", "csv"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "65"
        assert row[6] == ""  # rank check capped at 64
        assert row[7] == "true"


class TestReduce:
    def test_reduce_2(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--n", "2")
        assert code == 0
        assert "exact_match: true" in out
        assert "conjugated:" in out

    def test_reduce_0_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", "--n", "0")
        assert code == 1

    def test_reduce_json(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] == "reduction"
        assert doc["exact_match"] is True


class TestPattern:
    def write_matrix(self, path, matrix):
        path.write_text(render_json(matrix_to_doc(matrix)) + "\n")

    def test_R5_verdicts(self, capsys, tmp_path):
        path = tmp_path / "r5.json"
        self.write_matrix(path, build_R(5))
        code, out, _ = run_cli(capsys, "pattern", "--input", str(path))
        assert code == 0
        assert "in_pattern_class: true" in out
        assert "centro_skew: true" in out
        assert "centro_symmetric: false" in out

    def test_identity_verdicts(self, capsys, tmp_path):
        import numpy as np
        from neartoeplitz import DenseMatrix

        path = tmp_path / "i3.json"
        self.write_matrix(path, DenseMatrix(np.eye(3)))
        code, out, _ = run_cli(
            capsys, "pattern", "--input", str(path), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["in_pattern_class"] is False
        assert doc["centro_symmetric"] is True

    def test_truncated_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 4, "kind": "tridiagonal", "sub": [')
        code, out, err = run_cli(capsys, "pattern", "--input", str(path))
        assert code == 1
        assert not out
        assert "MatrixFormatError" in err


class TestInfo:
    def test_plain_lists_every_family(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        for token in ("R:", "K:", "S:", "Z:", "E:", "reduction", "commutator"):
            assert token in out

    def test_json_parses(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {row["name"] for row in rows} >= {"R", "K", "S", "Z", "E"}
