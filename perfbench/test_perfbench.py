"""Fast tests of the benchmark itself; none of them runs a workload."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checker, run, tracing, workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def _plan(name, seed):
    return workloads.build_plan(name, seed, ".perfbench/work")


@pytest.mark.parametrize("name", list(run.WHY))
def test_same_seed_same_requests_and_files(name):
    assert _plan(name, 7) == _plan(name, 7)


@pytest.mark.parametrize("name", list(run.WHY))
def test_other_seed_other_requests(name):
    first, second = _plan(name, 7), _plan(name, 8)
    assert [r["argv"] for r in first[0]] != [r["argv"] for r in second[0]]


def test_every_prefix_of_every_stream_is_spread_evenly():
    import random

    points = workloads.spread_points(random.Random(3), 2, 600, 3)
    for stream in range(3):
        for prefix in (50, 100, 200):
            for dim in range(2):
                values = [p[dim] for p in points[stream::3][:prefix]]
                counts = [sum(k / 10 <= v < (k + 1) / 10 for v in values) for k in range(10)]
                assert max(counts) - min(counts) <= 4, (stream, prefix, dim, counts)


def test_band_literals_round_trip_exactly():
    from neartoeplitz.cli import parse_complex_literal

    for z in (0.25 - 3.999j, -1e-05 + 2j, 1.0000000000000002 - 0.0j):
        assert parse_complex_literal(workloads.literal(z)) == z
        assert checker.parse_complex(workloads.literal(z)) == z


def test_generated_pattern_labels_match_known_classes():
    import random

    rng = random.Random(0)
    for cls in workloads.MATRIX_CLASSES:
        for storage in ("tridiagonal", "dense"):
            doc, labels = workloads.matrix_case(rng, cls, storage, 17)
            assert doc["kind"] == storage
            assert labels["in_pattern_class"] == (cls in ("in_class", "centro_skew"))
            assert labels["centro_skew"] == (cls == "centro_skew")
            assert labels["centro_symmetric"] == (cls == "centro_symmetric")


def _eigen_request(n, fmt):
    return {"argv": [], "items": n, "expect": {
        "kind": "eigen", "family": "R", "n": n, "bands": None, "format": fmt}}


def _check(request, stdout, rc=0, stderr="", exception=None):
    return checker.Checker(GOLDEN).check(request, rc, stdout, stderr, exception)


def test_checker_accepts_golden_and_flags_corruption():
    text = (GOLDEN / "eigen_R4.json").read_text()
    golden = {"argv": [], "items": 4, "expect": {"kind": "golden", "file": "eigen_R4.json"}}
    assert _check(golden, text) is None
    assert _check(_eigen_request(4, "json"), text) is None
    last_digit = text.replace("1.4142135623730951", "1.4142135623730954", 1)
    assert "golden" in _check(golden, last_digit)
    assert _check(_eigen_request(4, "json"), last_digit) is None  # within tolerance
    corrupted = text.replace("0.57735026918962584", "0.67735026918962584", 1)
    assert "residual" in _check(_eigen_request(4, "json"), corrupted)


def test_checker_flags_eigenvalue_multiset_with_valid_pairs():
    doc = json.loads((GOLDEN / "eigen_R4.json").read_text())
    doc["pairs"][1] = doc["pairs"][3]  # every pair still solves R v = lambda v
    reason = _check(_eigen_request(4, "json"), json.dumps(doc))
    assert "numpy.linalg.eigvals" in reason


def test_checker_flags_reduce_witness_and_pattern_label():
    text = (GOLDEN / "reduce_4.txt").read_text()
    request = {"argv": [], "items": 64, "expect": {"kind": "reduce", "n": 4, "format": "plain"}}
    assert _check(request, text) is None
    lines = text.splitlines()
    lines[9] = lines[9].replace("-1", " 1", 1)  # first row of s_inv below the diagonal
    assert _check(request, "\n".join(lines) + "\n") is not None
    labels = {"n": 3, "in_pattern_class": True, "centro_symmetric": False, "centro_skew": True}
    pattern = {"argv": [], "items": 9, "expect": {"kind": "pattern", "labels": labels,
                                                  "format": "csv"}}
    good = "n,in_pattern_class,centro_symmetric,centro_skew\n3,true,false,true\n"
    assert _check(pattern, good) is None
    assert "in_pattern_class" in _check(pattern, good.replace("3,true", "3,false"))


def test_checker_flags_exceptions_exit_codes_and_short_verify():
    request = {"argv": [], "items": 2, "expect": {"kind": "verify", "lo": 2, "hi": 3,
                                                  "format": "csv"}}
    header = ",".join(checker.VERIFY_COLUMNS)
    row = "{},true,true,true,0,true,true,true"
    good = "\n".join([header, row.format(2), row.format(3)]) + "\n"
    assert _check(request, good) is None
    assert "rows" in _check(request, "\n".join([header, row.format(2)]) + "\n")
    assert "exit code 2" in _check(request, good, rc=2)
    assert "traceback" in _check(request, good, stderr="Traceback (most recent call last)")
    assert "raised" in _check(request, good, exception="Traceback\nValueError: boom\n")


def test_tail_percentile_rule():
    samples = list(range(100, 0, -1))
    assert run.tail_percentile(samples) == (90, 90.0)
    value, percentile = run.tail_percentile(list(range(11)))
    assert (value, percentile) == (0, pytest.approx(100 / 11))
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_self_times_partition_a_request():
    from neartoeplitz import cli, spectra

    original = cli.main
    reduce_R, spectrum_report = cli.reduce_R, spectra.spectrum_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.reduce_R is not reduce_R
        assert spectra.spectrum_report is not spectrum_report
        with contextlib.redirect_stdout(io.StringIO()) as out:
            tracer.call_request(0, cli.main, ["verify", "--n-range", "2:3"])
    finally:
        tracer.uninstall()
    assert cli.reduce_R is reduce_R and cli.main is original
    assert spectra.spectrum_report is spectrum_report
    metrics = tracer.layer_metrics(len(out.getvalue()), 0.0)
    assert set(metrics) == {name for name, _ in tracing.METRICS}
    assert metrics["transforms.calls"] == 4 and metrics["cli.requests"] == 1
    assert metrics["oracle.charpoly_evals"] == (2 + 1) + (3 + 1)
    assert metrics["oracle.rank_calls"] == 2
    root = next(s for s in tracer.spans if s[0] == tracing.ROOT_SPAN)
    total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert total == pytest.approx((root[3] - root[2]) / 1e9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eigen_emit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
