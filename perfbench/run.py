"""Benchmark of the ``neartoeplitz`` CLI: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload eigen_emit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Each workload runs in its own fresh interpreter (``perfbench/worker.py``),
which drives ``neartoeplitz.cli.main(argv)`` in a closed loop with one
client.  This process generates the requests from the seed, measures the
CLI's start-up time, checks every output with ``perfbench/checker.py``
outside the timed region, and prints a report followed by one JSON line:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

# The program runs in the environment it was given.  The checker, in this
# process, gets one BLAS thread: it runs while the worker waits, and idle
# OpenBLAS threads would otherwise spin on the core the next request needs.
PROGRAM_ENV = dict(os.environ)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from perfbench import SPEC, checker, tracing, workloads  # noqa: E402

WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
SOURCE = ROOT / "src" / "neartoeplitz"
GOLDEN = ROOT / "tests" / "golden"
STATE = ROOT / ".perfbench"
SETUP_LAUNCHES = 10  # before the worker starts, and as many after it exits
TAIL_BEYOND = 10
WORKER_EXIT_S = 60

ITEM_WORDS = {
    "eigen_emit": "eigen-pairs emitted",
    "verify_small": "orders certified",
    "verify_large": "orders certified",
    "ingest_reduce": "matrix cells parsed or rendered",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (not a failed request)."""


def tail_percentile(samples: list, beyond: int = TAIL_BEYOND) -> tuple:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile)``: the sample with exactly ``beyond``
    samples ranked after it, at percentile ``100 * (N - beyond) / N``.  With
    ``beyond`` samples or fewer there is no such percentile: ``(max, 100.0)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def _env() -> dict:
    env = dict(PROGRAM_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # launches use cached bytecode, as installs do
    return env


class SetupTimes:
    """Wall times of fresh ``python -m neartoeplitz info`` launches.

    Launches are made only while no worker process exists, so that nothing
    else the benchmark runs shares the CPU with them.  The first launch,
    untimed, writes the bytecode cache, as an install would.
    """

    def __init__(self, env: dict):
        self.command = [sys.executable, "-m", "neartoeplitz", "info"]
        self.env = env
        self.expected = self._launch()[1].stdout
        self.times: list = []
        self.failures: list = []

    def _launch(self) -> tuple:
        start = time.perf_counter()
        done = subprocess.run(self.command, cwd=ROOT, env=self.env, capture_output=True)
        return time.perf_counter() - start, done

    def launch(self, count: int) -> None:
        for _ in range(count):
            elapsed, done = self._launch()
            self.times.append(elapsed)
            if done.returncode != 0 or done.stdout != self.expected or not done.stdout:
                self.failures.append(f"exit {done.returncode}: {done.stderr.decode()[-200:]}")


def drive_worker(plan: dict, requests: list, check, env: dict) -> tuple:
    """Run the worker, checking each output as it arrives; returns (records, summary)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker"],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    records = []
    try:
        proc.stdin.write(json.dumps(plan).encode() + b"\n")
        proc.stdin.flush()
        while True:
            line = proc.stdout.readline()
            if not line:
                raise BenchmarkError("the worker ended without a summary")
            header = json.loads(line)
            if header.get("done"):
                return records, header
            payload = proc.stdout.read(header["bytes"])
            request = requests[header["index"]]
            reason = check.check(request, header["rc"], payload.decode(),
                                 header["stderr"], header["exception"])
            records.append((header["index"], header["latency"], reason))
            proc.stdin.write(b"next\n")
            proc.stdin.flush()
    except BrokenPipeError:
        raise BenchmarkError("the worker ended during the run") from None
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=WORKER_EXIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload: set-up launches, the closed loop, the checker and the metrics."""
    env = _env()
    setup = None if trace else SetupTimes(env)
    work = STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    requests, files = workloads.build_plan(name, seed, work.relative_to(ROOT).as_posix())
    workloads.write_files(ROOT, files)
    plan = {
        "argvs": [r["argv"] for r in requests],
        "seconds": seconds,
        "trace": trace,
        "source": str(SOURCE),
        "spans_path": str(STATE / f"spans-{name}.jsonl"),
    }
    if not trace:
        setup.launch(SETUP_LAUNCHES)
    try:
        records, summary = drive_worker(plan, requests, checker.Checker(GOLDEN), env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(index, reason) for index, _, reason in records if reason is not None]
    attempted = len(records)
    result = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [" ".join(requests[i]["argv"]) + f": {why}" for i, why in failures],
        "busy_s": summary["busy_s"],
    }
    if trace:
        result["correct"] = not failures
        result["metrics"] = summary["layers"]
        return result
    setup.launch(SETUP_LAUNCHES)
    result["failures"] += [f"setup launch {why}" for why in setup.failures]
    result["correct"] = not result["failures"]

    latencies = [latency * 1e3 for _, latency, _ in records]
    ok = [index for index, _, reason in records if reason is None]
    tail, percentile = tail_percentile(latencies)
    result["tail_percentile"] = percentile
    result["items"] = sum(requests[i]["items"] for i in ok)
    result["metrics"] = {
        "setup_s": statistics.median(setup.times),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "requests_per_s": len(ok) / summary["busy_s"],
        "items_per_s": result["items"] / summary["busy_s"],
        "peak_rss_mib": summary["peak_rss_kib"] / 1024.0,
    }
    return result


def report_lines(result: dict) -> list:
    """Human-readable report of one workload's run."""
    name, m, n = result["workload"], result["metrics"], result["attempted"]
    phases = "" if "tail_percentile" in result else ", each once traced and once untraced"
    lines = [
        f"== {name}  seed {result['seed']}  closed loop, 1 client: {n} requests{phases}; "
        f"{result['busy_s']:.3f} s busy untraced",
        f"   why: {WHY[name]}",
    ]
    if "tail_percentile" in result:
        notes = {
            "setup_s": f"median of {2 * SETUP_LAUNCHES} launches of 'python -m neartoeplitz "
            "info', half before the loop and half after",
            "latency_p50_ms": f"median of {n} samples",
            "latency_tail_ms": f"p{result['tail_percentile']:.2f} of {n} samples, "
            f"{TAIL_BEYOND} beyond it" if n > TAIL_BEYOND else
            f"maximum of {n} samples: no percentile has {TAIL_BEYOND} beyond it",
            "requests_per_s": f"{n - result['failed']} completed requests",
            "items_per_s": f"{result['items']} {ITEM_WORDS[name]}",
            "peak_rss_mib": "peak resident memory of the worker process",
        }
        for key, unit in E2E_UNITS.items():
            lines.append(f"   {key:<16} {m[key]:>14.6g} {unit:<5} {notes[key]}")
        share = result["failed"] / n
        lines.append(f"   {'failed_share':<16} {share:>14.6g} {'share':<5} "
                     f"{result['failed']} of {n} requests failed the checker")
    else:
        for key, unit in tracing.METRICS:
            lines.append(f"   {key:<30} {m[key]:>14.6g} {unit}")
        timed = {k: v for k, v in m.items() if k.endswith("_s")}
        total = sum(timed.values())
        layers = {}
        for key, seconds in timed.items():
            layers[key.split(".")[0]] = layers.get(key.split(".")[0], 0.0) + seconds
        for label, table in (("layer", layers), ("metric", timed)):
            top = max(table, key=table.get)
            lines.append(f"   largest self time by {label}: {top} "
                         f"({100 * table[top] / total:.1f}% of traced time)")
    verdict = "all outputs correct" if result["correct"] else "INCORRECT OUTPUTS"
    lines.append(f"   checker: {result['attempted'] - result['failed']} passed, "
                 f"{result['failed']} failed: {verdict}")
    lines.extend(f"   FAILED {line}" for line in result["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SOURCE / "cli.py", GOLDEN / "eigen_R4.json", GOLDEN / "reduce_4.txt")
               if not p.is_file()]
    if missing:
        print(f"error: cannot benchmark without {missing[0]}", file=sys.stderr)
        return 2
    names = list(WHY) if args.workload == "all" else [args.workload]
    STATE.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(result)), flush=True)
            results.append(result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = dict(tracing.METRICS) if args.trace else E2E_UNITS
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": result["metrics"][key], "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
