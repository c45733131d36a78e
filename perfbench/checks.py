"""Correctness checks on what one CLI call printed and wrote.

Every check returns None when the call's outputs are right, or a one-line
reason. They recompute what they can without the code under test's own
pipeline: keys from the walk through struct and hashlib, box counts with
numpy, and the sha3-512 flip vector of one trial per avalanche call by
hand.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import struct
from statistics import fmean

import numpy as np

from workloads import FRACTAL_N_LIST, WALK_N

_HASHLIB = {
    "sha3-512": lambda data: hashlib.sha3_512(data).digest(),
    "shake256-512": lambda data: hashlib.shake_256(data).digest(64),
}
_DEFAULT_ALGS = ("sha3-512", "shake256-512", "blake3-256")


def manifest(stdout: str, files: dict[str, bytes]) -> str:
    """SHA-256 over the SHA-256 of stdout and of every report file."""
    lines = [f"<stdout> {hashlib.sha256(stdout.encode()).hexdigest()}"]
    lines += [f"{name} {hashlib.sha256(data).hexdigest()}"
              for name, data in sorted(files.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _flag(argv, name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _points(config) -> list[tuple[int, int]]:
    from walkhash.walk import generate_walk
    return [(p.x, p.y) for p in generate_walk(config).points]


def _serialize(points) -> bytes:
    return b"".join(struct.pack("<qq", x, y) for x, y in points)


def check_keygen(argv, stdout: str, files: dict[str, bytes]) -> str | None:
    from walkhash.walk import WalkConfig
    seed, alg = int(_flag(argv, "--seed")), _flag(argv, "--alg")
    if set(files) != {"key.json"}:
        return f"wrote {sorted(files)}, expected key.json"
    key = json.loads(files["key.json"])
    digest = stdout.strip()
    if stdout != digest + "\n" or key["digest"] != digest:
        return "stdout and key.json disagree on the key"
    if key["algorithm"] != alg or key["config"]["seed"] != seed \
            or key["config"]["n"] != WALK_N:
        return "key.json does not echo the call's alg, seed and n"
    if len(digest) != (64 if alg.startswith("blake3") else 128):
        return f"key has {len(digest)} hex digits"
    if alg in _HASHLIB:
        data = _serialize(_points(WalkConfig(seed=seed, n=WALK_N)))
        if _HASHLIB[alg](data).hex() != digest:
            return "key differs from struct + hashlib over the walk"
    return None


def _reference_flip(seed: int, position: int, reevolve: bool) -> bytes:
    """sha3-512 flip vector of trial 0 at position, built without
    diffusion."""
    from walkhash.diffusion import trial_seed
    from walkhash.walk import (LatticePoint, WalkConfig, affine_step_for,
                               lattice_bound, step)
    config = WalkConfig(seed=trial_seed(seed, position, 0), n=WALK_N)
    base = _points(config)
    moved = list(base)
    x, y = base[position]
    moved[position] = (x + 1, y)
    if reevolve:
        point, bound = LatticePoint(x + 1, y), lattice_bound(config)
        for i in range(position + 1, WALK_N + 1):
            point = step(point, affine_step_for(config, i), bound=bound)
            moved[i] = (point.x, point.y)
    d0 = hashlib.sha3_512(_serialize(base)).digest()
    d1 = hashlib.sha3_512(_serialize(moved)).digest()
    return bytes(a ^ b for a, b in zip(d0, d1))


def check_avalanche(argv, stdout: str, files: dict[str, bytes]) -> str | None:
    seed = int(_flag(argv, "--seed"))
    reevolve = _flag(argv, "--mode") == "re-evolve"
    algs = _flag(argv, "--algs", ",".join(_DEFAULT_ALGS)).split(",")
    expected = {"summary.json"} | {f"trials_{a}.csv" for a in algs} \
        | {f"bitmatrix_{a}.bin" for a in algs}
    if set(files) != expected:
        return f"wrote {sorted(files)}, expected {sorted(expected)}"
    summary = json.loads(files["summary.json"])
    stride = -(-WALK_N // 6)
    positions = [stride * k for k in range(1, 6)]
    if summary["perturbation"]["positions"] != positions \
            or summary["config"]["seed"] != seed:
        return "summary.json does not echo the call's positions and seed"
    lines = stdout.splitlines()
    if len(lines) != len(algs):
        return f"{len(lines)} stdout lines for {len(algs)} algorithms"
    for alg, line in zip(algs, lines):
        rows = list(csv.reader(io.StringIO(files[f"trials_{alg}.csv"]
                                           .decode())))[1:]
        bits = 256 if alg.startswith("blake3") else 512
        flips = [bytes.fromhex(r[6]) for r in rows]
        hammings = [int(r[3]) for r in rows]
        for i, (r, flip, h) in enumerate(zip(rows, flips, hammings)):
            if int(r[0]) != i or int(r[1]) != positions[i] or r[2] != alg \
                    or len(flip) * 8 != bits \
                    or h != int.from_bytes(flip, "big").bit_count() \
                    or float(r[4]) != h / bits:
                return f"{alg}: trial row {i} is inconsistent"
        if len(rows) != len(positions):
            return f"{alg}: {len(rows)} trial rows"
        matrix = struct.pack("<II", len(rows), bits) + b"".join(flips)
        if files[f"bitmatrix_{alg}.bin"] != matrix:
            return f"{alg}: bit matrix does not match the flip vectors"
        block = summary["algorithms"][alg]
        mean = fmean(hammings)
        if block["trials"] != len(rows) or block["mean_hamming"] != mean \
                or not line.startswith(f"{alg}: mean_hamming={mean:.2f}/"):
            return f"{alg}: summary does not match the trial rows"
        if alg == "sha3-512" and \
                flips[0] != _reference_flip(seed, positions[0], reevolve):
            return f"{alg}: trial 0 differs from the hand-built trial"
    return None


def check_fractal(argv, stdout: str, files: dict[str, bytes]) -> str | None:
    from walkhash.walk import WalkConfig
    seed = int(_flag(argv, "--seed"))
    if set(files) != {"fractal.json"}:
        return f"wrote {sorted(files)}, expected fractal.json"
    report = json.loads(files["fractal.json"])
    if report["n_list"] != list(FRACTAL_N_LIST) \
            or report["config"]["seed"] != seed:
        return "fractal.json does not echo the call's n-list and seed"
    medians = []
    for n in FRACTAL_N_LIST:
        entry = report["results"][str(n)]
        (only,) = entry["per_seed"]
        if only["seed"] != seed or entry["median_dimension"] != \
                only["dimension"]:
            return f"n={n}: median does not match the one seed's estimate"
        medians.append(only["dimension"])
    trend = all(b >= a for a, b in zip(medians, medians[1:]))
    if report["median_trend_non_decreasing"] != trend:
        return "trend flag does not match the medians"
    if stdout.splitlines() != [f"n={n} median_dimension={m:.4f}"
                               for n, m in zip(FRACTAL_N_LIST, medians)]:
        return "stdout does not match fractal.json"
    # box counts and fit of the shortest walk, recomputed with numpy
    n = FRACTAL_N_LIST[0]
    est = report["results"][str(n)]["per_seed"][0]
    pts = np.array(_points(WalkConfig(seed=seed, n=n)), dtype=np.int64)
    extent = int((pts.max(axis=0) - pts.min(axis=0) + 1).max())
    sizes = [1]
    while sizes[-1] * 2 <= extent // 4 or len(sizes) < 4:
        sizes.append(sizes[-1] * 2)
    counts = [len(np.unique(pts // s, axis=0)) for s in sizes]
    if est["box_sizes"] != sizes or est["counts"] != counts:
        return f"n={n}: box counts differ from numpy's"
    if counts[0] != counts[-1]:
        slope = np.polyfit(np.log2(sizes), np.log2(counts), 1)[0]
        if not math.isclose(-slope, est["dimension"], abs_tol=1e-9):
            return f"n={n}: dimension differs from numpy's fit"
    return None


CHECKS = {
    "keygen": check_keygen,
    "avalanche": check_avalanche,
    "avalanche-reevolve": check_avalanche,
    "fractal": check_fractal,
}
