"""Spans around the public functions of each ``neartoeplitz`` layer.

The tracer replaces each traced function with a wrapper in every module
namespace that holds it: the defining module's globals, so that internal
calls made through module globals (``spectra`` calling ``oracle.residual``,
``near_toeplitz_eigen`` calling ``skew_toeplitz_eigen``, ``spectrum_report``
and ``build_R``, ``spectrum_compare`` calling ``char_poly_eval``) are seen,
and the names ``neartoeplitz.cli`` bound with ``from .x import``.  The
formatting leaves (``format_float``, ``format_complex``) are not wrapped:
millions of calls would swamp the trace, so rendering is timed at
``render_json`` and the document builders, and csv/plain rendering stays in
the ``cli`` layer's self time.

Spans are kept in memory and written at the end.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

from perfbench import SPEC

# function name -> per-layer time metric its self time is added to
TIMED = {
    "core": {
        "build_R": "core.build_s",
        "build_K": "core.build_s",
        "build_toeplitz": "core.build_s",
        "is_centro_symmetric": "core.predicate_s",
        "is_centro_skew": "core.predicate_s",
        "in_pattern_class": "core.predicate_s",
    },
    "spectra": {
        "symmetric_toeplitz_eigen": "spectra.self_s",
        "general_toeplitz_eigen": "spectra.self_s",
        "skew_toeplitz_eigen": "spectra.self_s",
        "near_toeplitz_eigen": "spectra.self_s",
        "spectrum_report": "spectra.self_s",
    },
    "oracle": {
        "residual": "oracle.residual_s",
        "char_poly_eval": "oracle.charpoly_s",
        "spectrum_compare": "oracle.charpoly_s",
        "rank_small": "oracle.rank_s",
    },
    "transforms": {
        "reduce_R": "transforms.reduce_s",
        "commutator_check": "transforms.commutator_s",
    },
    "serialize": {
        "report_to_doc": "serialize.doc_s",
        "reduction_to_doc": "serialize.doc_s",
        "render_json": "serialize.render_s",
        "load_matrix_file": "serialize.load_s",
    },
}

# function name -> call-count metric
CALLS = {
    **{name: "core.calls" for name in TIMED["core"]},
    **{name: "spectra.calls" for name in TIMED["spectra"]},
    **{name: "transforms.calls" for name in TIMED["transforms"]},
    "residual": "oracle.residual_calls",
    "char_poly_eval": "oracle.charpoly_evals",
    "rank_small": "oracle.rank_calls",
}


def _count_result(name: str, args: tuple, result, counts: Counter) -> None:
    """Counters read off a call's arguments and result at its boundary."""
    if name == "spectrum_report":
        counts["spectra.pairs"] += len(result.pairs)
    elif name == "spectrum_compare":
        counts["oracle.failed_checks"] += sum(not check.passed for check in result.checks)
    elif name == "reduce_R":
        counts["transforms.failed_identities"] += not result.exact_match
    elif name == "commutator_check":
        counts["transforms.failed_identities"] += not result
    elif name == "render_json":
        counts["serialize.render_bytes"] += len(result)
    elif name == "load_matrix_file":
        counts["serialize.load_bytes"] += os.path.getsize(args[0])


# Per-layer metrics in report order, with units.
METRICS = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

ROOT_SPAN = "cli.main"


class Tracer:
    """Records one span per traced call; spans of one request share its index."""

    def __init__(self):
        self.spans: list = []  # [name, parent index, start ns, end ns, request]
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list = []
        self._restore: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), 0, self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def call_request(self, index: int, fn, *args):
        """Run one request as the root span of its trace."""
        self.request = index
        span = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _count_result(name, args, result, tracer.counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package's modules bind it."""
        originals = {}
        for layer, names in TIMED.items():
            module = sys.modules[f"neartoeplitz.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "neartoeplitz" and not modname.startswith("neartoeplitz."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and callable(value):
                    self._restore.append((namespace, attr, value))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            namespace[attr] = value
        self._restore.clear()

    def self_times(self) -> Counter:
        """Total self time in seconds of each span name."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, _, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) / 1e9
        return totals

    def layer_metrics(self, output_bytes: int, overhead_share: float) -> dict:
        """Every per-layer metric of ``METRICS`` as a plain number."""
        values = dict.fromkeys((name for name, _ in METRICS), 0)
        for fn_name, seconds in self.self_times().items():
            if fn_name == ROOT_SPAN:
                values["cli.self_s"] += seconds
                continue
            metric = next(names[fn_name] for names in TIMED.values() if fn_name in names)
            values[metric] += seconds
        for name, *_ in self.spans:
            if name == ROOT_SPAN:
                values["cli.requests"] += 1
            elif name in CALLS:
                values[CALLS[name]] += 1
        values.update(self.counts)
        values["cli.output_bytes"] = output_bytes
        values["trace.overhead_share"] = overhead_share
        return values

    def dump(self, path) -> None:
        """Write the spans as one JSON list per line: name, parent, start, end, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
