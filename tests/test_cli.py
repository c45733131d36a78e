"""End-to-end command tests driven through main(argv)."""

import csv
import importlib.metadata
import json
import os
import random
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median

import numpy as np
import pytest

import walkhash
from walkhash import (
    BitMatrix,
    BoundsExceeded,
    ConfigError,
    HashAlg,
    LatticePoint,
    MapMode,
    PerturbationSpec,
    PerturbMode,
    WalkConfig,
    WalkhashError,
    derive_key,
    estimate_point_dimension,
    generate_walk,
    perturb,
    run_avalanche,
    trial_seed,
)
from walkhash import cli, walk
from walkhash.cli import OPTIONS, main


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _read_json(path):
    return json.loads(path.read_text())


# ----------------------------------------------------------------- keygen

def test_keygen_prints_key_and_writes_report(tmp_path, capsys):
    code, out, err = _run(capsys, "keygen", "--seed", 42, "--n", 128,
                          "--output-dir", tmp_path)
    assert (code, err) == (0, "")
    want = derive_key(generate_walk(WalkConfig(seed=42, n=128)))
    assert out.strip() == want.hex
    report = _read_json(tmp_path / "key.json")
    assert report["digest"] == want.hex
    assert report["algorithm"] == "sha3-512"
    assert report["digest_bits"] == 512
    assert report["config"]["seed"] == 42
    assert report["config"]["n"] == 128
    assert report["config"]["b_max"] == 100.0


def test_keygen_is_reproducible(tmp_path, capsys):
    dirs = (tmp_path / "a", tmp_path / "b")
    outs = []
    for d in dirs:
        code, out, _ = _run(capsys, "keygen", "--seed", 42, "--n", 128,
                            "--output-dir", d)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert (dirs[0] / "key.json").read_bytes() \
        == (dirs[1] / "key.json").read_bytes()


def test_keygen_xof_out_len(tmp_path, capsys):
    _, short, _ = _run(capsys, "keygen", "--seed", 3, "--n", 64,
                       "--alg", "shake256", "--out-len", 32,
                       "--output-dir", tmp_path / "short")
    _, long, _ = _run(capsys, "keygen", "--seed", 3, "--n", 64,
                      "--alg", "shake256-512",
                      "--output-dir", tmp_path / "long")
    assert len(short.strip()) == 64 and len(long.strip()) == 128
    assert long.startswith(short.strip())


def test_keygen_rejects_bad_inputs(tmp_path, capsys):
    code, _, err = _run(capsys, "keygen", "--n", 0, "--output-dir", tmp_path)
    assert code == 2
    assert "n must" in err
    code, _, err = _run(capsys, "keygen", "--alg", "md5",
                        "--output-dir", tmp_path)
    assert code == 2
    assert "md5" in err
    code, _, err = _run(capsys, "keygen", "--map-count", 4,
                        "--output-dir", tmp_path)
    assert code == 2
    assert "map_count" in err


# ------------------------------------------------------------------- walk

def test_walk_outputs_match_library(tmp_path, capsys):
    code, out, err = _run(capsys, "walk", "--seed", 5, "--n", 128,
                          "--output-dir", tmp_path)
    assert (code, err) == (0, "")
    with (tmp_path / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x", "y"]
    assert len(rows) == 130  # header + x_0..x_128
    points = [LatticePoint(int(x), int(y)) for _, x, y in rows[1:]]
    t = generate_walk(WalkConfig(seed=5, n=128))
    assert tuple(points) == t.points
    report = _read_json(tmp_path / "geometry.json")
    geo = report["geometry"]
    assert geo["unique_points"] <= 129
    assert geo["bbox_width"] >= 1 and geo["bbox_height"] >= 1
    assert 0.0 < geo["density"] <= 1.0
    assert geo["total_path_length"] >= 0.0
    assert report["lattice_bound"] >= max(
        abs(v) for p in points for v in (p.x, p.y))
    assert f"n=128 bbox={geo['bbox_width']}x{geo['bbox_height']}" in out


def test_walk_format_filtering(tmp_path, capsys):
    code, *_ = _run(capsys, "walk", "--n", 32, "--format", "json",
                    "--output-dir", tmp_path / "j")
    assert code == 0
    assert not (tmp_path / "j" / "trajectory.csv").exists()
    assert (tmp_path / "j" / "geometry.json").exists()
    code, *_ = _run(capsys, "walk", "--n", 32, "--format", "csv",
                    "--output-dir", tmp_path / "c")
    assert code == 0
    assert (tmp_path / "c" / "trajectory.csv").exists()
    assert not (tmp_path / "c" / "geometry.json").exists()
    code, _, err = _run(capsys, "walk", "--n", 32, "--format", "yaml",
                        "--output-dir", tmp_path)
    assert code == 2 and "format" in err


# ---------------------------------------------------------------- fractal

def test_fractal_synthetic_point_is_degenerate(tmp_path, capsys):
    code, out, _ = _run(capsys, "fractal", "--synthetic", "point",
                        "--output-dir", tmp_path)
    assert code == 0
    report = _read_json(tmp_path / "fractal.json")
    assert report["estimate"]["degenerate"] is True
    assert report["estimate"]["dimension"] == 0.0
    assert "dimension=0.0000" in out


def test_fractal_synthetic_square(tmp_path, capsys):
    code, out, _ = _run(capsys, "fractal", "--synthetic", "square:256",
                        "--output-dir", tmp_path)
    assert code == 0
    report = _read_json(tmp_path / "fractal.json")
    assert report["estimate"]["dimension"] == pytest.approx(2.0, abs=1e-9)
    assert "dimension=2.0000" in out


def test_fractal_synthetic_rejects_garbage(tmp_path, capsys):
    for spec in ("blob", "line:x", "square:0"):
        code, _, err = _run(capsys, "fractal", "--synthetic", spec,
                            "--output-dir", tmp_path)
        assert code == 2, spec
        assert "synthetic" in err


def test_fractal_sweep_report_shape(tmp_path, capsys):
    code, out, _ = _run(capsys, "fractal", "--n-list", "128,500",
                        "--num-seeds", 3, "--seed", 0,
                        "--output-dir", tmp_path)
    assert code == 0
    report = _read_json(tmp_path / "fractal.json")
    assert report["n_list"] == [128, 500]
    assert report["num_seeds"] == 3
    assert sorted(report["results"]) == ["128", "500"]
    medians = []
    for n_text, block in report["results"].items():
        per_seed = block["per_seed"]
        assert [e["seed"] for e in per_seed] == [0, 1, 2]
        dims = sorted(e["dimension"] for e in per_seed)
        assert block["median_dimension"] == pytest.approx(dims[1], abs=1e-12)
        medians.append((int(n_text), block["median_dimension"]))
    medians.sort()
    want_trend = medians[0][1] <= medians[1][1]
    assert report["median_trend_non_decreasing"] is want_trend
    assert "n=128 median_dimension=" in out


def _n_major_sweep(config, n_list, num_seeds, box_sizes=None):
    """The sweep as one walk per (n, seed), n-major, raising the first
    error it meets: the reference for fractal's prefix sweep. Returns the
    report's results and the medians in n-list order."""
    results, medians = {}, []
    for n in n_list:
        per_seed = []
        for offset in range(num_seeds):
            cfg = replace(config, n=n, seed=config.seed + offset)
            est = estimate_point_dimension(generate_walk(cfg).xy, box_sizes)
            per_seed.append({"seed": cfg.seed, **asdict(est)})
        med = median(e["dimension"] for e in per_seed)
        medians.append(med)
        results[str(n)] = {"median_dimension": med, "per_seed": per_seed}
    return json.loads(json.dumps(results)), medians


def _fractal_argv(config, n_list, num_seeds, box_sizes):
    argv = ["fractal", "--seed", config.seed, "--num-seeds", num_seeds,
            "--n-list", ",".join(map(str, n_list)),
            "--map-mode", config.map_mode.value]
    if config.map_count is not None:
        argv += ["--map-count", config.map_count]
    if box_sizes is not None:
        argv += ["--box-sizes", ",".join(map(str, box_sizes))]
    return argv


@pytest.mark.parametrize("mode", list(MapMode))
def test_fractal_sweep_equals_one_walk_per_n_and_seed(mode, tmp_path,
                                                      capsys):
    rng = random.Random(f"sweep-{mode.value}")
    for case in range(8):
        config = WalkConfig(
            seed=rng.randrange(2**63), map_mode=mode,
            map_count=rng.randint(1, 7) if mode is MapMode.FIXED_SET
            else None)
        # unsorted, with repeats, and crossing a step-table block
        n_list = [rng.choice([1, 2, 9, 64, 300, 1030, 1100])
                  for _ in range(rng.randint(1, 5))]
        num_seeds = rng.randint(1, 4)
        box_sizes = rng.choice([None, (1, 2, 4, 8)])
        results, medians = _n_major_sweep(config, n_list, num_seeds,
                                          box_sizes)
        outdir = tmp_path / str(case)
        code, out, err = _run(capsys, *_fractal_argv(
            config, n_list, num_seeds, box_sizes), "--output-dir", outdir)
        assert (code, err) == (0, "")
        assert _read_json(outdir / "fractal.json")["results"] == results
        assert out == "".join(f"n={n} median_dimension={med:.4f}\n"
                              for n, med in zip(n_list, medians))


@pytest.mark.parametrize("seed, n_list", [
    (6, (3, 20, 40)),     # seed 6 fails at n=40, seed 7 first, at n=20
    (6, (3, 20, 0)),      # seed 7's bounds error comes before n=0
    (6, (3, 0, 20)),      # n=0 comes before any bounds error
    (6, (40, 3, 20)),
    (6, (0, 3)),
    (6, (3, 20, 3, 40)),
    (6, (3, 9)),          # both seeds pass
    (5, (3, 9, 40)),      # seed 5 fails at n=9, before seed 6 at n=40
])
def test_fractal_sweep_reports_the_n_major_first_error(seed, n_list,
                                                       monkeypatch, tmp_path,
                                                       capsys):
    # with this bound, seeds 5, 6 and 7 first leave the region at steps 8,
    # 31 and 4
    monkeypatch.setattr(walk, "lattice_bound", lambda config: 120)
    config = WalkConfig(seed=seed)
    try:
        _n_major_sweep(config, n_list, 2)
        want_code, want_err = 0, ""
    except WalkhashError as exc:
        want_code = 2 if isinstance(exc, ConfigError) else 3
        want_err = f"error: {exc}\n"
    code, _, err = _run(capsys, *_fractal_argv(config, n_list, 2, None),
                        "--output-dir", tmp_path)
    assert (code, err) == (want_code, want_err)
    if n_list == (3, 20, 40):
        with pytest.raises(WalkhashError) as late:
            generate_walk(replace(config, n=40))
        assert code == 3 and str(late.value) not in err


def test_fractal_sweep_walks_each_seed_once_holding_one_walk(
        monkeypatch, tmp_path, capsys):
    made, refs = [], []  # (kind, n, walks alive before it was built)

    def tracked(kind, make):
        def build(*args):
            alive = sum(r() is not None for r in refs)
            t = make(*args)
            refs.append(weakref.ref(t))
            made.append((kind, t.n, alive))
            return t
        return build

    monkeypatch.setattr(cli, "generate_walk", tracked("walk", generate_walk))
    code, _, err = _run(capsys, "fractal", "--n-list", "64,300,128",
                        "--num-seeds", 50, "--output-dir", tmp_path)
    assert (code, err) == (0, "")
    # one walk a seed, at the longest n, gone before the next seed's
    assert made == [("walk", 300, 0)] * 50


def test_synthetic_points_rows():
    for spec, want in (
            ("point", [[0, 0]]),
            ("line:4", [[i, 0] for i in range(4)]),
            ("square:3", [[i, j] for i in range(3) for j in range(3)])):
        points = cli._synthetic_points(spec)
        assert points.dtype == np.int64 and points.tolist() == want


# -------------------------------------------------------------- avalanche

def test_avalanche_small_run_outputs(tmp_path, capsys):
    code, out, err = _run(capsys, "avalanche", "--n", 60, "--seed", 2,
                          "--positions", "20,40", "--trials", 2,
                          "--algs", "sha3-512,blake3-256",
                          "--output-dir", tmp_path)
    assert (code, err) == (0, "")
    summary = _read_json(tmp_path / "summary.json")
    assert sorted(summary["algorithms"]) == ["blake3-256", "sha3-512"]
    for label, bits in (("sha3-512", 512), ("blake3-256", 256)):
        block = summary["algorithms"][label]
        assert block["trials"] == 4
        assert block["digest_bits"] == bits
        assert 0.0 < block["mean_bitflip_rate"] < 1.0
        chi = block["chi_square"]
        assert set(chi) == {"table1", "bernoulli"}
        assert chi["table1"]["dof"] == bits - 1
        assert "statistic_well_below_dof" in chi["table1"]
        assert "statistic_well_below_dof" not in chi["bernoulli"]
        with (tmp_path / f"trials_{label}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial_id", "position", "alg", "hamming",
                           "bitflip_rate", "delta_entropy", "flip_vector"]
        assert len(rows) == 5
        assert [r[1] for r in rows[1:]] == ["20", "20", "40", "40"]
        assert all(r[2] == label for r in rows[1:])
        matrix = BitMatrix.from_bytes(
            (tmp_path / f"bitmatrix_{label}.bin").read_bytes())
        assert (matrix.rows, matrix.cols) == (4, bits)
        # csv hamming agrees with the matrix row weight
        for row, r in zip(matrix.bits, rows[1:]):
            assert int(row.sum()) == int(r[3])
        assert label in out
    assert summary["perturbation"] == {
        "mode": "point-nudge", "nudge": [1, 0],
        "positions": [20, 40], "trials_per_position": 2,
    }


def test_avalanche_zero_nudge_is_all_zero(tmp_path, capsys):
    code, out, err = _run(capsys, "avalanche", "--n", 60,
                          "--positions", "20", "--trials", 1,
                          "--nudge", "0,0", "--algs", "sha3-512",
                          "--output-dir", tmp_path)
    assert (code, err) == (0, "")
    block = _read_json(tmp_path / "summary.json")["algorithms"]["sha3-512"]
    assert block["mean_hamming"] == 0.0
    assert block["mean_bitflip_rate"] == 0.0
    assert block["mean_delta_entropy"] == 0.0
    for mode in ("table1", "bernoulli"):
        assert block["chi_square"][mode]["degenerate"] is True
        assert "note" in block["chi_square"][mode]
    assert "chi2_p=degenerate" in out


def test_avalanche_rejects_bad_positions_and_algs(tmp_path, capsys):
    code, _, err = _run(capsys, "avalanche", "--n", 60, "--positions", "60",
                        "--trials", 1, "--output-dir", tmp_path)
    assert code == 2 and "positions" in err
    code, _, err = _run(capsys, "avalanche", "--n", 60, "--positions", "0",
                        "--trials", 1, "--output-dir", tmp_path)
    assert code == 2
    code, _, err = _run(capsys, "avalanche", "--n", 60, "--algs", "crc32",
                        "--positions", "20", "--output-dir", tmp_path)
    assert code == 2 and "crc32" in err


def test_avalanche_json_only_still_writes_bitmatrix(tmp_path, capsys):
    code, *_ = _run(capsys, "avalanche", "--n", 60, "--positions", "20",
                    "--trials", 1, "--algs", "blake3-256",
                    "--format", "json", "--output-dir", tmp_path)
    assert code == 0
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "bitmatrix_blake3-256.bin").exists()
    assert not (tmp_path / "trials_blake3-256.csv").exists()


# main(argv) in a child limited to 2 GB of address space (`ulimit -v
# 2000000`), with every walk of a trial stopped by an error instead of
# running.
_NO_WALK = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from walkhash import cli, walk
from walkhash.errors import BoundsExceeded
def no_walk(configs, xy, first):
    return [BoundsExceeded("generate_walk called")] * len(configs), xy
walk._evolve = no_walk
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("positions, trials, code, err", [
    ("1", 10**20, 2, "error: positions x trials must be < 2**32 rows, got "
                     "1 x 100000000000000000000\n"),
    ("1,2", 2**31, 2, "error: positions x trials must be < 2**32 rows, got "
                      "2 x 2147483648\n"),
    # allowed, and its first trial starts before any (position, trial)
    # pair past it is made
    ("1", 10**9, 3, "error: generate_walk called (seed=0 position=1 trial=0 "
                    f"trial_seed={trial_seed(0, 1, 0)})\n"),
])
def test_avalanche_rows_are_bounded_before_any_walk(positions, trials, code,
                                                    err, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_WALK, "avalanche", "--n", "10",
         "--positions", positions, "--trials", str(trials),
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
    assert list(tmp_path.iterdir()) == []


def _first_trial_error(config, positions, trials, mode, nudge):
    """The first WalkhashError of the (position, trial) loop, with the
    trial that raised it and whether its base walk was built."""
    for position in positions:
        for trial in range(trials):
            tseed = trial_seed(config.seed, position, trial)
            try:
                base = generate_walk(replace(config, seed=tseed))
            except WalkhashError as exc:
                return exc, position, trial, tseed, False
            try:
                perturb(base, PerturbationSpec(position, mode, nudge))
            except WalkhashError as exc:
                return exc, position, trial, tseed, True
    raise AssertionError("no trial failed")


@pytest.mark.parametrize("mode, bound, seed", [
    (PerturbMode.POINT_NUDGE, 150, 3),   # position 20's base walk fails
    (PerturbMode.RE_EVOLVE, 250, 5),     # position 20, trial 2 replays out
])
def test_avalanche_failure_names_its_trial(mode, bound, seed, monkeypatch,
                                           tmp_path, capsys):
    monkeypatch.setattr(walk, "lattice_bound", lambda config: bound)
    config = WalkConfig(seed=seed, n=30)
    exc, position, trial, tseed, base_ok = _first_trial_error(
        config, (10, 20), 3, mode, (100, 0))
    assert base_ok is (mode is PerturbMode.RE_EVOLVE)
    code, out, err = _run(capsys, "avalanche", "--n", 30, "--seed", seed,
                          "--positions", "10,20", "--trials", 3,
                          "--mode", mode.value, "--nudge", "100,0",
                          "--algs", "sha3-512", "--output-dir", tmp_path)
    assert (code, out) == (3, "")
    assert err == (f"error: {exc} (seed={seed} position={position} "
                   f"trial={trial} trial_seed={tseed})\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(BoundsExceeded, match=f"trial_seed={tseed}"):
        run_avalanche(config, [HashAlg.parse("sha3-512")],
                               (10, 20), 3, mode, (100, 0))
    # keygen at the trial's seed replays the base walk
    code, out, err = _run(capsys, "keygen", "--n", 30, "--seed", tseed,
                          "--output-dir", tmp_path / "replay")
    if base_ok:
        want = derive_key(generate_walk(replace(config, seed=tseed)))
        assert (code, out, err) == (0, want.hex + "\n", "")
    else:
        assert (code, out, err) == (3, "", f"error: {exc}\n")


@pytest.mark.parametrize("argv", [
    ["keygen", "--b-max", "inf"],
    ["keygen", "--epsilon", "nan"],
    ["keygen", "--x0", "10000000000000000000,0"],
    ["keygen", "--x0", "9007199254740993,0"],
    ["avalanche", "--n", "60", "--positions", "20", "--trials", "1",
     "--nudge", "10000000000000000000,0"],
    ["fractal", "--n-list", "6", "--num-seeds", "1", "--seed", "1",
     "--b-min", "-3", "--b-max", "3", "--box-sizes", "2,3,5"],
    ["keygen", "--n", "20", "--seed", "-1"],
    ["keygen", "--n", "20", "--seed", "18446744073709551616"],
    ["fractal", "--n-list", "8", "--num-seeds", "2",
     "--seed", "18446744073709551615"],
    ["avalanche", "--n", "40", "--positions", ",", "--trials", "1"],
    ["keygen", "--n", "20", "--alg", "shake256",
     "--out-len", "18446744073709551616"],
    ["keygen", "--n", "20", "--alg", "blake3", "--out-len", "100000000000"],
    ["fractal", "--n-list", "8", "--num-seeds", "1", "--box-sizes", "0"],
    ["fractal", "--n-list", "8", "--num-seeds", "1", "--box-sizes", "1,2"],
    ["fractal", "--n-list", "8", "--num-seeds", "1",
     "--box-sizes", "1,2,9223372036854775808"],
    ["fractal", "--synthetic", "line:4",
     "--box-sizes", "1,2,9223372036854775808"],
    ["keygen", "--n", "16", "--config", ""],
    ["keygen", "--n", "16", "--map-mode", "fixed-set",
     "--map-count", "18446744073709551616"],
    ["keygen", "--n", "16", "--bogus", "1"],
    ["keygen", "--n"],
    ["bogus"],
    ["keygen", "--n", "4611686018427387904"],
    ["avalanche", "--n", "4611686018427387904", "--trials", "1"],
    ["fractal", "--synthetic", "line:4611686018427387904"],
    ["fractal", "--synthetic", "square:4294967296"],
    ["fractal", "--n-list", "8", "--num-seeds", "4294967296"],
    ["fractal", "--n-list", "8", "--num-seeds", "18446744073709551616"],
])
def test_out_of_domain_inputs_exit_2(argv, tmp_path, capsys):
    code, out, err = _run(capsys, *argv, "--output-dir", tmp_path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Each allocates 2**58 bytes or more at once, beyond even a 57-bit address
# space, so it fails before any memory is touched.
@pytest.mark.parametrize("argv", [
    ["keygen", "--n", "36028797018963968"],
    ["walk", "--n", "36028797018963968"],
    ["avalanche", "--n", "36028797018963968", "--trials", "1"],
    ["fractal", "--n-list", "36028797018963968", "--num-seeds", "1"],
    ["fractal", "--synthetic", "line:36028797018963968"],
])
def test_oversize_allocations_exit_3(argv, tmp_path, capsys):
    code, out, err = _run(capsys, *argv, "--output-dir", tmp_path)
    assert (code, out) == (3, "")
    assert err.startswith("error: out of memory: Unable to allocate ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_bare_memory_error_gets_a_message(monkeypatch, tmp_path, capsys):
    def exhausted(config):
        raise MemoryError
    monkeypatch.setattr(cli, "generate_walk", exhausted)
    code, out, err = _run(capsys, "keygen", "--output-dir", tmp_path)
    assert (code, out) == (3, "")
    assert err == "error: out of memory: an allocation failed\n"


# command line -> the files written under --format csv and under json
# (test_walk_format_filtering covers walk)
_REPORTS = {
    "keygen": (["keygen", "--n", 32], set(), {"key.json"}),
    "fractal": (["fractal", "--n-list", "64,128", "--num-seeds", 2],
                set(), {"fractal.json"}),
    "fractal-synthetic": (["fractal", "--synthetic", "line:64"],
                          set(), {"fractal.json"}),
    "avalanche": (["avalanche", "--n", 60, "--positions", 20, "--trials", 1,
                   "--algs", "sha3-512,blake3-256"],
                  {"trials_sha3-512.csv", "trials_blake3-256.csv",
                   "bitmatrix_sha3-512.bin", "bitmatrix_blake3-256.bin"},
                  {"summary.json", "bitmatrix_sha3-512.bin",
                   "bitmatrix_blake3-256.bin"}),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_REPORTS))
def test_format_selects_the_reports(command, fmt, tmp_path, capsys):
    argv, csv_files, json_files = _REPORTS[command]
    outdir = tmp_path / "out"
    code, _, err = _run(capsys, *argv, "--format", fmt,
                        "--output-dir", outdir)
    assert (code, err) == (0, "")
    written = {p.name for p in outdir.iterdir()} if outdir.exists() else set()
    assert written == (csv_files if fmt == "csv" else json_files)


def test_failed_report_write_leaves_nothing(monkeypatch, tmp_path, capsys):
    def no_space(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli.os, "replace", no_space)
    code, out, err = _run(capsys, "keygen", "--n", 16,
                          "--output-dir", tmp_path)
    assert (code, out) == (3, "")
    assert err == "error: [Errno 28] No space left on device\n"
    # neither the report nor its temp file is left behind
    assert list(tmp_path.iterdir()) == []


def test_no_command_is_a_one_line_error(capsys):
    code, out, err = _run(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_leftover_temp_name_does_not_block_reports(tmp_path, capsys):
    (tmp_path / "key.json.tmp").mkdir()
    code, out, err = _run(capsys, "keygen", "--n", 16,
                          "--output-dir", tmp_path)
    assert (code, err) == (0, "")
    report = _read_json(tmp_path / "key.json")
    assert report["digest"] == out.strip()
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["key.json", "key.json.tmp"]


@pytest.mark.parametrize("argv, flag, value, report", [
    (["keygen", "--n", "20"], "--x0", "-1,0", "key.json"),
    (["avalanche", "--n", "40", "--positions", "10", "--trials", "1",
      "--algs", "sha3-512"], "--nudge", "-1,0", "summary.json"),
])
def test_dash_value_in_space_form(argv, flag, value, report, tmp_path,
                                  capsys):
    runs = []
    for name, form in (("space", [flag, value]), ("eq", [f"{flag}={value}"])):
        code, out, err = _run(capsys, *argv, *form,
                              "--output-dir", tmp_path / name)
        assert (code, err) == (0, ""), err
        runs.append((out, (tmp_path / name / report).read_bytes()))
    assert runs[0] == runs[1]


# Small runs each fuzzed flag is appended to.
_FUZZ_BASE = {
    "keygen": ["--n", "16"],
    "walk": ["--n", "16"],
    "fractal": ["--n-list", "8", "--num-seeds", "1"],
    "avalanche": ["--n", "16", "--positions", "8", "--trials", "1",
                  "--algs", "sha3-512"],
}
# No large positive integers: a valid --n, --trials or --map-count that
# size would run for hours, which is not a crash.
_FUZZ_VALUES = ["", ",", "x", "nan", "-inf", "1e999", "0", "-1", "-1,0",
                "1,2,3"]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, rows in OPTIONS.items()
    for flag in ["--config", *(f"--{o.key}" for o in rows)]])
def test_fuzzed_option_exits_0_2_or_3(command, flag, tmp_path, monkeypatch,
                                      capsys):
    monkeypatch.chdir(tmp_path)  # --output-dir "" writes here
    for value in _FUZZ_VALUES:
        argv = [command, *_FUZZ_BASE[command], flag, value]
        code, _, err = _run(capsys, *argv)
        assert code in (0, 2, 3), argv
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, \
                (argv, err)


def test_help_shows_each_default(capsys):
    for command, rows in OPTIONS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for o in rows:
            want = o.help if o.default is None \
                else f"{o.help} (default: {o.default})"
            assert f"--{o.key} " in text and want in text, (command, o.key)


def test_readme_documents_every_option():
    readme = (SRC.parent / "README.md").read_text()
    flags = {f"--{o.key}" for rows in OPTIONS.values() for o in rows}
    # a flag counts only as a whole word: --n-list does not document --n
    missing = [f for f in sorted(flags)
               if not re.search(re.escape(f) + r"(?![\w-])", readme)]
    assert missing == []


# ------------------------------------------------------------ config file

def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "seed = 7\n"
        "n = 50\n"
        "rho_max = 0.9\n"  # underscore form is accepted
        "\n")
    code, _, _ = _run(capsys, "keygen", "--config", cfg, "--seed", 9,
                      "--output-dir", tmp_path)
    assert code == 0
    echoed = _read_json(tmp_path / "key.json")["config"]
    assert echoed["seed"] == 9  # flag wins
    assert echoed["n"] == 50
    assert echoed["rho_max"] == 0.9


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = _run(capsys, "keygen", "--config", cfg,
                        "--output-dir", tmp_path)
    assert code == 2
    assert "frobnicate" in err
    cfg.write_text("just a line without equals\n")
    code, _, err = _run(capsys, "keygen", "--config", cfg,
                        "--output-dir", tmp_path)
    assert code == 2 and "key = value" in err


def test_config_file_value_is_parsed_even_when_unused(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = x\n")  # synthetic mode builds no walk
    code, out, err = _run(capsys, "fractal", "--config", cfg,
                          "--synthetic", "point", "--output-dir", tmp_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: n: ") and err.count("\n") == 1


def test_config_file_missing(tmp_path, capsys):
    code, _, err = _run(capsys, "keygen", "--config", tmp_path / "nope.cfg",
                        "--output-dir", tmp_path)
    assert code == 2
    assert "cannot read" in err


def test_command_scoped_keys(tmp_path, capsys):
    cfg = tmp_path / "walkonly.cfg"
    cfg.write_text("trials = 3\n")  # avalanche key, invalid for walk
    code, _, err = _run(capsys, "walk", "--config", cfg,
                        "--output-dir", tmp_path)
    assert code == 2 and "trials" in err
    code, *_ = _run(capsys, "avalanche", "--config", cfg, "--n", 60,
                    "--positions", "20", "--algs", "blake3-256",
                    "--output-dir", tmp_path)
    assert code == 0


# ----------------------------------------------------------------- wiring

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "walkhash" in capsys.readouterr().out


# An interleaved sequence of calls on one parser: every command, a config
# file then none, flags given then left out, each kind of failure followed
# by a valid call, --help and --version. Paths are relative to the run's
# directory, so two runs print the same text.
_REUSE_CALLS = [
    ["keygen", "--n", "64", "--seed", "3", "--alg", "shake256",
     "--out-len", "32", "--x0", "-1,0"],
    ["keygen", "--n", "64"],
    ["walk", "--config", "run.cfg"],
    ["walk", "--format", "json"],
    ["fractal", "--n-list", "8,16", "--num-seeds", "2",
     "--box-sizes", "1,2,4"],
    ["fractal", "--n-list", "16", "--num-seeds", "1"],
    ["avalanche", "--n", "40", "--positions", "10,20", "--trials", "2",
     "--algs", "sha3-512,shake256-512", "--mode", "re-evolve",
     "--nudge", "2,-1"],
    ["avalanche", "--n", "40", "--positions", "10", "--trials", "1",
     "--algs", "blake3-256"],
    ["keygen", "--n", "16", "--bogus", "1"],        # usage error
    ["keygen", "--n", "16"],
    ["walk", "--n", "0"],                           # ConfigError
    ["walk", "--n", "16", "--seed", "4"],
    ["keygen", "--n", "16", "--output-dir", "blocker/sub"],  # OSError
    ["keygen", "--n", "16", "--alg", "blake3-256"],
    ["--version"],
    ["fractal", "--synthetic", "square:8"],
    ["keygen", "--help"],
    ["fractal", "--config", "run.cfg", "--n-list", "32", "--num-seeds", "1"],
    ["fractal", "--n-list", "32", "--num-seeds", "1"],
    [],                                             # no command
    ["avalanche", "--config", "run.cfg", "--positions", "20", "--trials", "1",
     "--algs", "sha3-512"],
    ["avalanche", "--n", "30", "--positions", "20", "--trials", "1",
     "--algs", "sha3-512"],
    ["walk", "--n", "16", "--seed", "4", "--map-mode", "fixed-set",
     "--map-count", "3"],
    ["walk", "--n", "16", "--seed", "4"],
]


def _reuse_run(root, monkeypatch, capsys):
    """Each _REUSE_CALLS call's exit code, stdout, stderr and report bytes,
    run in order with the reports of call i under root/i."""
    root.mkdir()
    monkeypatch.chdir(root)
    Path("run.cfg").write_text("seed = 9\nn = 40\nrho_max = 0.9\n")
    Path("blocker").write_text("")
    seen = []
    for i, argv in enumerate(_REUSE_CALLS):
        outdir = Path(str(i))
        if "--output-dir" not in argv:
            argv = [*argv, "--output-dir", str(outdir)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in outdir.glob("*")}
        seen.append((argv, code, out, err, files))
    return seen


def test_reused_parser_leaks_nothing_between_calls(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.setenv("COLUMNS", "100")
    cached = _reuse_run(tmp_path / "cached", monkeypatch, capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _reuse_run(tmp_path / "fresh", monkeypatch, capsys)
    assert cached == fresh
    assert sorted({c[1] for c in cached}) == [0, 2, 3]
    # each flag given once took effect, and the call without it did not
    # keep it
    keys = [c[2].strip() for c in cached[:2]]
    assert len(keys[0]) == 64 and len(keys[1]) == 128
    assert json.loads(cached[2][4]["geometry.json"])["config"]["n"] == 40
    assert json.loads(cached[3][4]["geometry.json"])["config"]["n"] == 2000


def test_parser_is_built_once_and_help_follows_columns(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    for columns in ("50", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["keygen", "--help"])
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(["keygen", "--help"])
        assert cached == capsys.readouterr().out
        widest = max(map(len, cached.splitlines()))
        assert (widest <= 50) is (columns == "50"), (columns, widest)


# The src/ directory the package under test was imported from.
SRC = Path(walkhash.__file__).resolve().parents[1]


def _pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (SRC.parent / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_installed():
    """The declared `walkhash` console script prints the package version.

    The entry point is read from pyproject.toml and run the way pip's
    generated wrapper runs it, so this holds in an uninstalled checkout.
    Where a walkhash distribution is installed, its script on PATH must
    match the declaration too.
    """
    project = _pyproject()["project"]
    value = project["scripts"]["walkhash"]
    want = f"walkhash {project['version']}\n"
    ep = importlib.metadata.EntryPoint(
        name="walkhash", value=value, group="console_scripts")
    assert ep.load() is main

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    wrapper = (f"import sys; from {ep.module} import {ep.attr}; "
               f"sys.exit({ep.attr}())")
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, want), proc.stderr

    try:
        dist = importlib.metadata.distribution("walkhash")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts",
                                         name="walkhash")
    assert [e.value for e in installed] == [value]
    exe = shutil.which("walkhash")
    assert exe, "walkhash is installed but its script is not on PATH"
    proc = subprocess.run([exe, "--version"], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, want), proc.stderr
