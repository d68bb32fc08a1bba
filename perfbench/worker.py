"""One workload's closed loop, in a fresh interpreter.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` from the
repository root with ``src`` on ``PYTHONPATH``.  It reads one JSON line (the
plan) from stdin, then drives ``neartoeplitz.cli.main(argv)`` in-process:
one client, the next request sent only after the previous one returned,
stdout and stderr captured in memory.  After each request it writes a JSON
header line and the raw stdout bytes to its own stdout and waits for one
line on stdin, so the parent's checking never overlaps a timed request.
The last line it writes is a summary with the peak resident memory and,
when tracing, the per-layer metrics.

With tracing on, each request runs twice in a row, once traced and once
untraced, in alternating order, until the traced runs reach half the run's
seconds; the ratio of the two busy times gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _send(channel, header: dict, payload: bytes = b"") -> None:
    channel.write(json.dumps(header).encode() + b"\n" + payload)
    channel.flush()


def _run_one(main, argvs: list, index: int, channel, tracer=None) -> tuple:
    """One timed request; sends its result and waits for the parent's go-ahead."""
    out, err = io.StringIO(), io.StringIO()
    rc, exception = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(argvs[index])
            else:
                rc = tracer.call_request(index, main, argvs[index])
    except (Exception, SystemExit):
        exception = traceback.format_exc()
    latency = time.perf_counter() - start
    payload = out.getvalue().encode()
    _send(channel, {"index": index, "rc": rc, "latency": latency,
                    "stderr": err.getvalue(), "exception": exception,
                    "bytes": len(payload)}, payload)
    if sys.stdin.readline().strip() != "next":
        raise SystemExit("parent stopped the run")
    return latency, len(payload)


def main() -> None:
    plan = json.loads(sys.stdin.readline())
    channel = sys.stdout.buffer
    import neartoeplitz
    from neartoeplitz import cli

    source = Path(neartoeplitz.__file__).resolve().parent
    if source != Path(plan["source"]).resolve():
        raise SystemExit(f"imported neartoeplitz from {source}, not {plan['source']}")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["info"])  # warm-up, outside any timing
    argvs = plan["argvs"]
    summary = {"done": True}
    busy, done = 0.0, 0
    if plan["trace"]:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        traced_busy, output_bytes = 0.0, 0
        while traced_busy < plan["seconds"] / 2:
            index = done % len(argvs)
            for traced in (True, False) if done % 2 == 0 else (False, True):
                if traced:
                    tracer.install()
                    latency, size = _run_one(cli.main, argvs, index, channel, tracer)
                    tracer.uninstall()
                    traced_busy += latency
                    output_bytes += size
                else:
                    busy += _run_one(cli.main, argvs, index, channel)[0]
            done += 1
        summary["layers"] = tracer.layer_metrics(output_bytes, (traced_busy - busy) / busy)
        tracer.dump(plan["spans_path"])
    else:
        while busy < plan["seconds"]:
            busy += _run_one(cli.main, argvs, done % len(argvs), channel)[0]
            done += 1
    summary["busy_s"] = busy
    summary["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _send(channel, summary)


if __name__ == "__main__":
    main()
