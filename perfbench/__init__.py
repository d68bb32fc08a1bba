"""Seeded end-to-end and per-layer benchmark for the ``neartoeplitz`` CLI.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/NOTES.md``.
``SPEC`` is ``BENCHMARK.json``: the workloads with their input
distributions, and the metrics with their units.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
