"""Acceptance program: each numbered criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
shared 250-trial avalanche run backs criteria 1 through 4; the remaining
criteria time their own workloads.
"""

import math
import random
import struct
import time
from fractions import Fraction
from statistics import fmean, median

import mpmath
import pytest

from walkhash import (
    AffineStep,
    ChiSquareMode,
    HashAlg,
    LatticePoint,
    Trajectory,
    WalkConfig,
    box_count,
    chi_square_uniform,
    digest_bytes,
    estimate_point_dimension,
    generate_walk,
    lattice_bound,
    lower_regularized_gamma,
    sample_affine_step,
    serialize_trajectory,
    step,
    upper_regularized_gamma,
)
from walkhash import walk
from walkhash.cli import main as cli_main
from walkhash.rng import Stream

ALGS = (HashAlg.sha3_512(), HashAlg.shake256(64), HashAlg.blake3(32))
HAMMING_BANDS = {
    "sha3-512": (251.0, 261.0),
    "shake256-512": (251.0, 261.0),
    "blake3-256": (124.0, 132.0),
}


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def avalanche_run():
    from walkhash import run_avalanche
    config = WalkConfig(seed=1)
    start = time.perf_counter()
    results = run_avalanche(config, list(ALGS))
    return results, time.perf_counter() - start


def test_criterion_1_mean_hamming(avalanche_run):
    results, elapsed = avalanche_run
    parts = []
    ok = elapsed < 60.0
    for label, (lo, hi) in HAMMING_BANDS.items():
        records, _ = results[label]
        mean = fmean(r.hamming for r in records)
        ok = ok and len(records) == 250 and lo <= mean <= hi
        parts.append(f"{label} {mean:.2f} in [{lo:.0f}, {hi:.0f}]")
    _criterion(1, ok,
               f"{'; '.join(parts)}; 250 trials in {elapsed:.1f}s (< 60s)")


def test_criterion_2_bitflip_rate(avalanche_run):
    results, _ = avalanche_run
    parts = []
    ok = True
    for label in HAMMING_BANDS:
        rate = fmean(r.bitflip_rate for r in results[label][0])
        ok = ok and 0.48 <= rate <= 0.52
        parts.append(f"{label} {rate:.4f}")
    _criterion(2, ok, f"mean bitflip rates {'; '.join(parts)} in [0.48, 0.52]")


def test_criterion_3_entropy_shift(avalanche_run):
    results, _ = avalanche_run
    parts = []
    ok = True
    for label in HAMMING_BANDS:
        shift = fmean(r.delta_entropy for r in results[label][0])
        ok = ok and abs(shift) < 0.05
        parts.append(f"{label} {shift:+.4f}")
    _criterion(3, ok, f"mean entropy shifts {'; '.join(parts)}, |.| < 0.05")


def test_criterion_4_flip_uniformity(avalanche_run):
    results, _ = avalanche_run
    parts = []
    ok = True
    for label in HAMMING_BANDS:
        matrix = results[label][1]
        t1 = chi_square_uniform(matrix, ChiSquareMode.TABLE1)
        ok = ok and t1.p_value > 0.01
        note = ""
        if t1.statistic < 0.75 * t1.dof:
            note = " (stat well below dof)"
        parts.append(f"{label} table1 stat={t1.statistic:.1f} "
                     f"dof={t1.dof} p={t1.p_value:.4f}{note}")
        if matrix.cols == 512:
            be = chi_square_uniform(matrix, ChiSquareMode.BERNOULLI)
            ok = ok and 350.0 <= be.statistic <= 700.0
            parts.append(f"{label} bernoulli stat={be.statistic:.1f} "
                         f"in [350, 700]")
    _criterion(4, ok, "; ".join(parts))


def test_criterion_5_dimension_growth():
    lengths = (128, 500, 2000, 5000)
    start = time.perf_counter()
    medians = []
    for n in lengths:
        dims = [estimate_point_dimension(
            generate_walk(WalkConfig(seed=seed, n=n)).xy).dimension
            for seed in range(20)]
        medians.append(median(dims))
    elapsed = time.perf_counter() - start
    trend = all(b >= a for a, b in zip(medians, medians[1:]))
    in_band = 0.9 <= medians[-1] <= 1.4
    rendered = ", ".join(f"n={n}: {m:.4f}" for n, m in zip(lengths, medians))
    _criterion(5, trend and in_band and elapsed < 120.0,
               f"medians non-decreasing [{rendered}], final in [0.9, 1.4], "
               f"20 seeds in {elapsed:.1f}s (< 120s)")


def test_criterion_6_reference_oracles():
    # incomplete gamma vs an arbitrary-precision oracle
    mpmath.mp.dps = 50
    grid = [
        (0.5, 0.2), (0.5, 1.9), (1.0, 0.7), (1.0, 5.0), (2.5, 1.2),
        (2.5, 9.0), (3.0, 0.01), (8.0, 8.9), (13.7, 6.0), (13.7, 30.0),
        (31.5, 31.5), (64.0, 50.0), (64.0, 90.0), (127.5, 100.0),
        (127.5, 160.0), (255.5, 200.0), (255.5, 255.0), (255.5, 300.0),
        (255.5, 511.0), (500.0, 450.0),
    ]
    gamma_err = 0.0
    for a, x in grid:
        want_p = float(mpmath.gammainc(a, 0, x, regularized=True))
        want_q = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        gamma_err = max(gamma_err,
                        abs(lower_regularized_gamma(a, x) - want_p),
                        abs(upper_regularized_gamma(a, x) - want_q))
    gamma_ok = gamma_err <= 1e-9

    # box counts on a filled 16x16 grid, against exhaustive enumeration
    pts = [LatticePoint(i - 8, j - 8) for i in range(16) for j in range(16)]
    boxes_ok = True
    for size in (1, 2, 3, 4, 5, 8, 16):
        occupied = set()
        for cx in range(-16 // size - 1, 16 // size + 2):
            for cy in range(-16 // size - 1, 16 // size + 2):
                if any(cx * size <= p.x < (cx + 1) * size
                       and cy * size <= p.y < (cy + 1) * size
                       for p in pts):
                    occupied.add((cx, cy))
        boxes_ok = boxes_ok and box_count(pts, size) == len(occupied)
    aligned = [LatticePoint(i, j) for i in range(16) for j in range(16)]
    for size, want in ((1, 256), (2, 64), (4, 16), (8, 4)):
        boxes_ok = boxes_ok and box_count(aligned, size) == want

    # step() against exact rational arithmetic
    rng = random.Random(8128)
    step_ok = True
    for _ in range(10_000):
        s = AffineStep(*(rng.uniform(-1, 1) for _ in range(4)),
                       rng.uniform(-100, 100), rng.uniform(-100, 100),
                       rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        x = LatticePoint(rng.randrange(-1500, 1500),
                         rng.randrange(-1500, 1500))
        fx = Fraction(s.a11) * x.x + Fraction(s.a12) * x.y \
            + Fraction(s.b1) + Fraction(s.d1)
        fy = Fraction(s.a21) * x.x + Fraction(s.a22) * x.y \
            + Fraction(s.b2) + Fraction(s.d2)
        want = LatticePoint(math.floor(fx), math.floor(fy))
        step_ok = step_ok and step(x, s) == want

    _criterion(6, gamma_ok and boxes_ok and step_ok,
               f"gamma max err {gamma_err:.2e} <= 1e-9 on 20 points; "
               f"16x16 box counts exact; 10^4 step cases exact")


def test_criterion_7_reproducible_outputs(tmp_path):
    commands = {
        "keygen": ["keygen", "--seed", "42", "--n", "128"],
        "walk": ["walk", "--seed", "5", "--n", "64"],
        "fractal": ["fractal", "--n-list", "64,128", "--num-seeds", "2",
                    "--seed", "0"],
        "avalanche": ["avalanche", "--n", "60", "--seed", "3",
                      "--positions", "20,40", "--trials", "2"],
    }
    ok = True
    for name, argv in commands.items():
        snapshots = []
        for run_id in ("first", "second"):
            outdir = tmp_path / name / run_id
            assert cli_main([*argv, "--output-dir", str(outdir)]) == 0
            snapshots.append(
                {p.name: p.read_bytes() for p in outdir.iterdir()})
        ok = ok and snapshots[0] and snapshots[0] == snapshots[1]
    _criterion(7, ok, f"byte-identical reruns for {', '.join(commands)}")


def test_criterion_8_property_suites():
    cases = 1000
    rng = random.Random(777)

    contraction_ok = True
    for i in range(cases):
        lo = rng.uniform(0.05, 0.9)
        hi = rng.uniform(lo + 0.01, 0.98)
        config = WalkConfig(rho_min=lo, rho_max=hi, seed=i)
        norm = walk._spectral_norm(
            *sample_affine_step(Stream(i, 0, 1), config)[:4])
        contraction_ok = contraction_ok \
            and lo - 1e-9 <= norm <= hi + 1e-9

    bounded_ok = True
    for i in range(cases):
        b = rng.uniform(0.5, 200.0)
        config = WalkConfig(
            x0=LatticePoint(rng.randrange(-50, 50), rng.randrange(-50, 50)),
            rho_min=0.3, rho_max=rng.uniform(0.5, 0.9),
            b_min=-b, b_max=b, epsilon=rng.uniform(0.0, 2.0),
            n=rng.randrange(1, 40), seed=i)
        bound = lattice_bound(config)
        t = generate_walk(config)
        bounded_ok = bounded_ok and all(
            max(abs(p.x), abs(p.y)) <= bound for p in t.points)

    xor_ok = True
    for _ in range(cases):
        width = rng.randrange(1, 65)
        a = rng.randbytes(width)
        b = rng.randbytes(width)
        ab = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        ba = int.from_bytes(b, "big") ^ int.from_bytes(a, "big")
        xor_ok = xor_ok and ab == ba \
            and (int.from_bytes(a, "big") ^ int.from_bytes(a, "big")) == 0

    roundtrip_ok = True
    for _ in range(cases):
        points = tuple(
            LatticePoint(rng.randrange(-10**12, 10**12),
                         rng.randrange(-10**12, 10**12))
            for _ in range(rng.randrange(1, 20)))
        blob = serialize_trajectory(Trajectory(points, WalkConfig()))
        back = tuple(LatticePoint(x, y)
                     for x, y in struct.iter_unpack("<qq", blob))
        roundtrip_ok = roundtrip_ok \
            and len(blob) == 16 * len(points) and back == points

    prefix_ok = True
    for i in range(cases):
        family = HashAlg.shake256 if i % 2 else HashAlg.blake3
        msg = rng.randbytes(rng.randrange(0, 300))
        short_len = rng.randrange(16, 80)
        long_len = short_len + rng.randrange(1, 40)
        short = digest_bytes(msg, family(short_len))
        long = digest_bytes(msg, family(long_len))
        prefix_ok = prefix_ok and long.data[:short_len] == short.data

    ok = (contraction_ok and bounded_ok and xor_ok and roundtrip_ok
          and prefix_ok)
    _criterion(8, ok,
               f"{cases} cases each: contractivity {contraction_ok}, "
               f"boundedness {bounded_ok}, xor symmetry {xor_ok}, "
               f"serialization round-trip {roundtrip_ok}, "
               f"xof prefix {prefix_ok}")
