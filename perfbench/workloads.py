"""Seeded request generator for the benchmark workloads.

The properties that set a request's cost (the order, the window, the output
format, the family) are read off a randomly shifted low-discrepancy
sequence instead of independent draws.  Each property keeps the marginal
distribution documented in ``BENCHMARK.json``, but any prefix of the request list
covers the distribution evenly, so the median and tail of a run do not swing
with the seed or with the number of requests a run completes.  Band values
and matrix entries are independent draws.  Draws are never filtered:
whatever the program does with them is counted by the checker.

Everything here depends only on the workload name and the seed, and runs
before timing starts.  Matrix files are plain ``json`` documents in the
schema the CLI reads.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

import numpy as np

FORMATS = ("json", "csv", "plain")
PLAN_LENGTH = 2400  # requests per plan; a run that completes them all starts over
GOLDEN_EVERY = 25  # one golden request among every 25
# eigen families in equal slots: R 1/2, K 1/4, T with a == c 1/8, T with a != c 1/8
FAMILY_SLOTS = ("R", "K", "R", "T==", "R", "K", "R", "T!=")

GOLDEN_EIGEN = ["eigen", "--family", "R", "--n", "4", "--format", "json"]
GOLDEN_REDUCE = ["reduce", "--n", "4"]

def _log_int(lo: int, hi: int, u: float) -> int:
    """Order log-uniform in lo..hi for u uniform in [0, 1)."""
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def spread_points(rng: random.Random, dims: int, count: int, streams: int) -> list:
    """``count`` points in [0, 1)^dims from ``streams`` interleaved Kronecker sequences.

    Point k belongs to stream k mod ``streams`` and is
    frac(shift + j * (g^-1, ..., g^-dims)), j = k div ``streams``, with g the
    root of g^(dims+1) = g + 1 and a random shift per stream.  Each
    coordinate is uniform, and every prefix of every stream covers the cube
    almost evenly, so a run's mix does not depend on how many requests it
    completes, and the seed only moves the shifts.
    """
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alphas = [g ** -(k + 1) for k in range(dims)]
    shifts = [[rng.random() for _ in range(dims)] for _ in range(streams)]
    return [
        [(s + (k // streams + 1) * a) % 1.0 for s, a in zip(shifts[k % streams], alphas)]
        for k in range(count)
    ]


def _magnitude(rng: random.Random) -> float:
    return 4.0 ** rng.uniform(-1.0, 1.0)


def _band(rng: random.Random) -> complex:
    return cmath.rect(_magnitude(rng), rng.uniform(-math.pi, math.pi))


def literal(z: complex) -> str:
    """A band value as the CLI's 're+imi' literal, exact to the last bit."""
    im = repr(z.imag)
    return f"{z.real!r}{'' if im.startswith('-') else '+'}{im}i"


def _request(argv: list, items: int, expect: dict) -> dict:
    return {"argv": argv, "items": items, "expect": expect}


def _golden(argv: list, name: str, items: int) -> dict:
    return _request(list(argv), items, {"kind": "golden", "file": name})


def _eigen_request(family: str, n: int, fmt: str, bands=None) -> dict:
    argv = ["eigen", "--family", family, "--n", str(n), "--format", fmt]
    if bands is not None:
        argv += [f"--{name}={literal(z)}" for name, z in zip("abc", bands)]
        bands = [[z.real, z.imag] for z in bands]
    expect = {"kind": "eigen", "family": family, "n": n, "bands": bands, "format": fmt}
    return _request(argv, n, expect)


def _eigen_requests(rng: random.Random) -> list:
    # The plan opens with the costliest request of the distribution, so that
    # every run's peak memory is set by the same request.
    requests = [_eigen_request("R", 512, "json")]
    for k, (u_n,) in enumerate(spread_points(rng, 1, PLAN_LENGTH, len(FORMATS))):
        if len(requests) % GOLDEN_EVERY == 0:
            requests.append(_golden(GOLDEN_EIGEN, "eigen_R4.json", 4))
        family = FAMILY_SLOTS[k % len(FAMILY_SLOTS)]
        bands = None
        if family.startswith("T"):
            a, b = _band(rng), _band(rng)
            bands = (a, b, a if family == "T==" else _band(rng))
        requests.append(_eigen_request(family[0], _log_int(32, 512, u_n),
                                       FORMATS[k % len(FORMATS)], bands))
    return requests


def _verify_request(lo: int, hi: int, fmt: str) -> dict:
    argv = ["verify", "--n-range", f"{lo}:{hi}", "--format", fmt]
    expect = {"kind": "verify", "lo": lo, "hi": hi, "format": fmt}
    return _request(argv, hi - lo + 1, expect)


def _verify_small_requests(rng: random.Random) -> list:
    requests = []
    for k, (u_width, u_start) in enumerate(spread_points(rng, 2, PLAN_LENGTH, len(FORMATS))):
        width = 1 + int(16 * u_width)
        lo = 2 + int(u_start * (128 - width))
        requests.append(_verify_request(lo, lo + width - 1, FORMATS[k % len(FORMATS)]))
    return requests


def _verify_large_requests(rng: random.Random) -> list:
    requests = []
    for k, (u_order,) in enumerate(spread_points(rng, 1, PLAN_LENGTH, len(FORMATS))):
        n = 385 + int(128 * u_order)
        requests.append(_verify_request(n, n, FORMATS[k % len(FORMATS)]))
    return requests


MATRIX_CLASSES = ("in_class", "centro_skew", "perturbed", "centro_symmetric")


def _bands_for(rng: random.Random, cls: str, n: int):
    """Bands (sub, diag, sup) of one matrix of the given class, and its class label."""
    sub = [complex(-_magnitude(rng)) for _ in range(n - 1)]
    sup = [complex(_magnitude(rng)) for _ in range(n - 1)]
    diag = [0j] * n
    diag[0] = complex(-_magnitude(rng))
    diag[-1] = complex(_magnitude(rng))
    if cls == "centro_skew":
        sup = [-z for z in reversed(sub)]
        diag[-1] = -diag[0]
    elif cls == "centro_symmetric":
        sub = [complex(rng.choice((-1, 1)) * _magnitude(rng)) for _ in range(n - 1)]
        sup = list(reversed(sub))
        half = [complex(rng.uniform(-2.0, 2.0)) for _ in range((n + 1) // 2)]
        diag = half + list(reversed(half[: n // 2]))
    return sub, diag, sup, cls in ("in_class", "centro_skew")


def _perturb(rng: random.Random, dense: np.ndarray, off_band: bool) -> None:
    """Move an in-class matrix out of the sign-pattern class, in place."""
    n = dense.shape[0]
    k = rng.randrange(n - 1)
    choice = rng.randrange(5 if off_band else 4)
    if choice == 0:  # flip the sign of one sub- or superdiagonal entry
        i, j = (k + 1, k) if rng.random() < 0.5 else (k, k + 1)
        dense[i, j] = -dense[i, j]
    elif choice == 1:  # a nonreal band entry
        dense[k + 1, k] += 1j * _magnitude(rng)
    elif choice == 2:  # a zero corner
        dense[0, 0] = 0.0
    elif choice == 3:  # a nonzero interior diagonal entry
        i = rng.randrange(1, n - 1)
        dense[i, i] = _magnitude(rng)
    else:  # an entry off the band
        i = rng.randrange(n - 2)
        dense[i + 2, i] = _magnitude(rng)


def _entry_docs(values) -> list:
    return [{"re": float(z.real), "im": float(z.imag)} for z in values]


def matrix_case(rng: random.Random, cls: str, storage: str, n: int):
    """One matrix file document and the verdicts the CLI must give for it.

    The class label is known by construction; the two centro labels are read
    off the dense array with numpy, independently of the program.
    """
    sub, diag, sup, in_class = _bands_for(rng, cls, n)
    dense = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    dense[idx, idx] = diag
    dense[idx[1:], idx[:-1]] = sub
    dense[idx[:-1], idx[1:]] = sup
    if cls == "perturbed":
        _perturb(rng, dense, off_band=storage == "dense")
    if storage == "tridiagonal":
        doc = {
            "n": n,
            "kind": "tridiagonal",
            "sub": _entry_docs(np.diagonal(dense, -1)),
            "diag": _entry_docs(np.diagonal(dense)),
            "sup": _entry_docs(np.diagonal(dense, 1)),
        }
    else:
        doc = {"n": n, "kind": "dense", "entries": _entry_docs(dense.reshape(-1))}
    flipped = dense[::-1, ::-1]
    labels = {
        "n": n,
        "in_pattern_class": in_class,
        "centro_symmetric": bool(np.array_equal(flipped, dense)),
        "centro_skew": bool(np.array_equal(flipped, -dense)),
    }
    return doc, labels


def _pattern_pool(rng: random.Random, workdir: str, files: dict) -> list:
    """24 matrix files, half tridiagonal and half dense.

    Each storage holds one file at each of 12 evenly spaced log-orders in
    16..256, and the four classes three times each in a seeded order, so the
    pool's parsing cost is the same for every seed.
    """
    pool = []
    for storage in ("tridiagonal", "dense"):
        classes = list(MATRIX_CLASSES) * 3
        rng.shuffle(classes)
        for stratum, cls in enumerate(classes):
            n = _log_int(16, 256, (stratum + 0.5) / len(classes))
            doc, labels = matrix_case(rng, cls, storage, n)
            path = f"{workdir}/m{len(pool):02d}.json"
            files[path] = doc
            pool.append((path, labels, n * n if storage == "dense" else 3 * n - 2))
    rng.shuffle(pool)
    return pool


def _ingest_requests(rng: random.Random, workdir: str, files: dict) -> list:
    """Pattern and reduce requests in turn; pattern cycles the pool through the formats."""
    pool = _pattern_pool(rng, workdir, files)
    requests = []
    for k, (u_n,) in enumerate(spread_points(rng, 1, PLAN_LENGTH // 2, len(FORMATS))):
        if len(requests) % GOLDEN_EVERY == 0:
            requests.append(_golden(GOLDEN_REDUCE, "reduce_4.txt", 64))
        path, labels, items = pool[k % len(pool)]
        fmt = FORMATS[(k + k // len(pool)) % len(FORMATS)]
        expect = {"kind": "pattern", "labels": labels, "format": fmt}
        requests.append(_request(["pattern", "--input", path, "--format", fmt], items, expect))
        n = _log_int(4, 256, u_n)
        fmt = FORMATS[k % len(FORMATS)]
        argv = ["reduce", "--n", str(n), "--format", fmt]
        expect = {"kind": "reduce", "n": n, "format": fmt}
        requests.append(_request(argv, 0 if fmt == "csv" else 4 * n * n, expect))
    return requests


def build_plan(workload: str, seed: int, workdir: str) -> tuple:
    """Requests and matrix files of one workload, from the seed alone.

    Returns ``(requests, files)``: a list of request dicts (``argv``,
    ``items``, ``expect``) and a dict from file path, relative to the
    repository root and under ``workdir``, to the document to write there.
    A run that completes every request starts the list over.
    """
    rng = random.Random(f"{workload}/{seed}")
    files: dict = {}
    if workload == "eigen_emit":
        requests = _eigen_requests(rng)
    elif workload == "verify_small":
        requests = _verify_small_requests(rng)
    elif workload == "verify_large":
        requests = _verify_large_requests(rng)
    elif workload == "ingest_reduce":
        requests = _ingest_requests(rng, workdir, files)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests, files


def write_files(root: Path, files: dict) -> None:
    for rel, doc in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
