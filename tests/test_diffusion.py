"""Perturbation mechanics, entropy, flip matrices, and trial batches."""

import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from walkhash import (
    BitMatrix,
    ConfigError,
    DegenerateInput,
    HashAlg,
    InvalidPosition,
    PerturbMode,
    PerturbationSpec,
    TrialRecord,
    WalkConfig,
    affine_step_for,
    default_positions,
    derive_key,
    digest_bytes,
    generate_walk,
    lattice_bound,
    map_templates,
    perturb,
    run_avalanche,
    run_trials,
    serialize_trajectory,
    shannon_entropy,
    step,
    trial_seed,
    trial_summary,
)
from walkhash import diffusion
from walkhash.rng import stream_key

_ALG = HashAlg.sha3_512()


# ---------------------------------------------------------------- perturb

def test_zero_nudge_point_mode_is_identity():
    t = generate_walk(WalkConfig(seed=1, n=20))
    out = perturb(t, PerturbationSpec(7, nudge=(0, 0)))
    assert out.points == t.points


def test_point_nudge_moves_exactly_one_point():
    t = generate_walk(WalkConfig(seed=2, n=20))
    out = perturb(t, PerturbationSpec(5))
    for i, (a, b) in enumerate(zip(t.points, out.points)):
        if i == 5:
            assert (b.x - a.x, b.y - a.y) == (1, 0)
        else:
            assert a == b


def test_re_evolve_matches_replay_oracle():
    config = WalkConfig(seed=9, n=30)
    t = generate_walk(config)
    pos, nudge = 11, (2, -3)
    out = perturb(t, PerturbationSpec(pos, PerturbMode.RE_EVOLVE, nudge))
    assert out.points[:pos] == t.points[:pos]
    # replay the tail independently from the shifted point
    bound = lattice_bound(config)
    templates = map_templates(config)
    x = t.points[pos].shifted(*nudge)
    assert out.points[pos] == x
    for i in range(pos + 1, config.n + 1):
        x = step(x, affine_step_for(config, i, templates), bound=bound)
        assert out.points[i] == x


def test_re_evolve_zero_nudge_reproduces_walk():
    t = generate_walk(WalkConfig(seed=4, n=25))
    out = perturb(t, PerturbationSpec(10, PerturbMode.RE_EVOLVE, (0, 0)))
    assert out.points == t.points


def test_positions_must_be_interior():
    t = generate_walk(WalkConfig(seed=1, n=10))
    for bad in (0, 10, -1, 11):
        with pytest.raises(InvalidPosition):
            perturb(t, PerturbationSpec(bad))


def test_nudge_beyond_two_to_the_53_is_a_config_error():
    t = generate_walk(WalkConfig(seed=1, n=10))
    for nudge in ((2**53 + 1, 0), (0, -2**53 - 1)):
        for mode in PerturbMode:
            with pytest.raises(ConfigError, match="nudge"):
                perturb(t, PerturbationSpec(5, mode, nudge))
        with pytest.raises(ConfigError, match="nudge"):
            run_avalanche(t.config, [_ALG], (5,), 1, nudge=nudge)
    out = perturb(t, PerturbationSpec(5, nudge=(2**53, -2**53)))
    assert out.xy[5].tolist() == [t.xy[5, 0] + 2**53, t.xy[5, 1] - 2**53]


# ---------------------------------------------------------------- entropy

def test_entropy_constant_and_distinct():
    assert shannon_entropy(b"\xab" * 64) == 0.0
    assert shannon_entropy(bytes(range(64))) == 6.0  # log2(64) exactly


def test_entropy_matches_counter_oracle():
    rng = random.Random(13)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(1, 200))
        counts = Counter(data)
        want = -sum((c / len(data)) * math.log2(c / len(data))
                    for c in counts.values())
        assert shannon_entropy(data) == pytest.approx(want, abs=1e-12)


def test_entropy_accepts_digest_and_rejects_empty():
    t = generate_walk(WalkConfig(seed=1, n=10))
    d = derive_key(t, _ALG)
    assert shannon_entropy(d) == shannon_entropy(d.data)
    with pytest.raises(DegenerateInput):
        shannon_entropy(b"")


# -------------------------------------------------------------- BitMatrix

def test_bitmatrix_serialized_layout():
    bits = np.array([[1, 0] * 6], dtype=np.uint8)  # 1 row, 12 cols
    blob = BitMatrix(bits).to_bytes()
    assert blob == bytes([1, 0, 0, 0, 12, 0, 0, 0, 0xAA, 0xA0])


def test_bitmatrix_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 70))
        bits = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        m = BitMatrix(bits)
        back = BitMatrix.from_bytes(m.to_bytes())
        assert back.rows == rows and back.cols == cols
        assert np.array_equal(back.bits, bits)
        assert np.array_equal(back.column_sums(), bits.sum(axis=0))


def test_bitmatrix_from_flip_vectors_bit_order():
    # byte 0x80 must set column 0, not column 7 (MSB-first)
    m = BitMatrix.from_flip_vectors([b"\x80", b"\x01"])
    assert m.bits[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert m.bits[1].tolist() == [0, 0, 0, 0, 0, 0, 0, 1]


def test_bitmatrix_validation():
    with pytest.raises(ValueError):
        BitMatrix(np.array([0, 1], dtype=np.uint8))  # 1-D
    with pytest.raises(ValueError):
        BitMatrix(np.array([[0, 2]], dtype=np.uint8))  # entry > 1
    with pytest.raises(ValueError):
        BitMatrix.from_flip_vectors([])
    with pytest.raises(ValueError):
        BitMatrix.from_flip_vectors([b"\x00\x00", b"\x00"])
    good = BitMatrix(np.ones((2, 3), dtype=np.uint8)).to_bytes()
    with pytest.raises(ValueError):
        BitMatrix.from_bytes(good[:-1])
    with pytest.raises(ValueError):
        BitMatrix.from_bytes(b"\x01\x00")


# ---------------------------------------------------------------- batches

def test_default_positions():
    assert default_positions(2000) == (334, 668, 1002, 1336, 1670)
    assert default_positions(6) == (1, 2, 3, 4, 5)
    with pytest.raises(ConfigError):
        default_positions(5)


def test_trial_seed_is_the_documented_stream():
    assert trial_seed(0, 11, 4) == stream_key(0, 3, 11, 4)
    assert trial_seed(7, 1, 0) != trial_seed(7, 1, 1)
    assert trial_seed(7, 1, 0) != trial_seed(7, 2, 0)


def test_record_invariants_and_shapes():
    config = WalkConfig(seed=5, n=12)
    positions = (3, 7)
    records, matrix = run_trials(config, _ALG, positions, 4)
    assert len(records) == 8
    assert matrix.rows == 8 and matrix.cols == 512
    for row, r in enumerate(records):
        assert r.trial_id == row
        assert r.position == positions[row // 4]
        assert r.alg == _ALG
        assert r.hamming == int.from_bytes(r.flip_vector, "big").bit_count()
        assert r.bitflip_rate == r.hamming / 512
        assert len(r.flip_vector) == 64
        assert matrix.bits[row].sum() == r.hamming


def test_trials_replay_in_isolation():
    config = WalkConfig(seed=8, n=12)
    batch, _ = run_trials(config, _ALG, (3, 7), 3)
    alone, _ = run_trials(config, _ALG, (7,), 3)
    strip = lambda r: (r.position, r.hamming, r.bitflip_rate,
                       r.delta_entropy, r.flip_vector)
    assert [strip(r) for r in batch[3:]] == [strip(r) for r in alone]


def test_zero_nudge_trials_score_zero():
    records, matrix = run_trials(
        WalkConfig(seed=1, n=12), _ALG, (5,), 3, nudge=(0, 0))
    for r in records:
        assert r.hamming == 0
        assert r.bitflip_rate == 0.0
        assert r.delta_entropy == 0.0
        assert r.flip_vector == b"\x00" * 64
    assert int(matrix.bits.sum()) == 0


def test_run_trials_equals_run_avalanche_single():
    config = WalkConfig(seed=3, n=12)
    records, matrix = run_trials(config, _ALG, (4,), 3)
    full = run_avalanche(config, [_ALG], (4,), 3)
    assert set(full) == {_ALG.label}
    other_records, other_matrix = full[_ALG.label]
    assert records == other_records
    assert np.array_equal(matrix.bits, other_matrix.bits)


def test_run_avalanche_shares_walks_across_algs():
    config = WalkConfig(seed=6, n=12)
    algs = [_ALG, HashAlg.shake256(64)]
    out = run_avalanche(config, algs, (5,), 2)
    sha_records = out["sha3-512"][0]
    shake_records = out["shake256-512"][0]
    # same walk pair per trial, so per-trial metadata lines up exactly
    for a, b in zip(sha_records, shake_records):
        assert (a.trial_id, a.position) == (b.trial_id, b.position)
        assert a.flip_vector != b.flip_vector  # digests differ by alg


@pytest.mark.parametrize("mode", list(PerturbMode))
def test_avalanche_batches_equal_per_trial_rebuild(monkeypatch, mode):
    # 9 trials at 4 a batch: batches of 4, 4 and 1, each digested once per
    # alg, must give the records and matrices of one trial at a time.
    config = WalkConfig(seed=21, n=20)
    algs = [HashAlg.sha3_512(), HashAlg.shake256(64), HashAlg.blake3(32)]
    positions, trials, nudge = (4, 11, 17), 3, (1, -2)
    monkeypatch.setattr(diffusion, "_BATCH_BYTES", 4 * 32 * (config.n + 1))
    calls = []
    real_digest_many = diffusion.digest_many

    def counted(messages, alg):
        calls.append(len(messages))
        return real_digest_many(messages, alg)

    monkeypatch.setattr(diffusion, "digest_many", counted)
    out = run_avalanche(config, algs, positions, trials, mode, nudge)
    assert calls == [8] * 6 + [2] * 3
    for alg in algs:
        expected = []
        row = 0
        for position in positions:
            for trial in range(trials):
                base = generate_walk(replace(
                    config, seed=trial_seed(config.seed, position, trial)))
                disturbed = perturb(
                    base, PerturbationSpec(position, mode, nudge))
                d0 = digest_bytes(serialize_trajectory(base), alg)
                d1 = digest_bytes(serialize_trajectory(disturbed), alg)
                flipped = bytes(x ^ y for x, y in zip(d0.data, d1.data))
                hamming = int.from_bytes(flipped, "big").bit_count()
                expected.append(TrialRecord(
                    row, position, alg, hamming, hamming / alg.bits,
                    shannon_entropy(d1) - shannon_entropy(d0), flipped))
                row += 1
        records, matrix = out[alg.label]
        assert records == expected
        assert np.array_equal(
            matrix.bits,
            BitMatrix.from_flip_vectors([r.flip_vector for r in expected]).bits)


def test_run_avalanche_validation():
    config = WalkConfig(seed=1, n=12)
    with pytest.raises(ConfigError):
        run_avalanche(config, [], (5,), 1)
    with pytest.raises(ConfigError):
        run_avalanche(config, [_ALG, HashAlg.sha3_512()], (5,), 1)
    with pytest.raises(ConfigError):
        run_avalanche(config, [_ALG], (5,), 0)
    with pytest.raises(InvalidPosition):
        run_avalanche(config, [_ALG], (12,), 1)


# ---------------------------------------------------------------- summary

def test_trial_summary_exact_means():
    def rec(trial_id, hamming, delta):
        return TrialRecord(trial_id, 5, _ALG, hamming, hamming / 512,
                           delta, b"\x00" * 64)

    summary = trial_summary([rec(0, 256, 0.5), rec(1, 128, -0.25)])
    assert summary["trials"] == 2
    assert summary["digest_bits"] == 512
    assert summary["mean_hamming"] == pytest.approx(192.0, abs=1e-12)
    assert summary["mean_bitflip_rate"] == pytest.approx(0.375, abs=1e-12)
    assert summary["mean_delta_entropy"] == pytest.approx(0.125, abs=1e-12)
    assert summary["mean_abs_delta_entropy"] \
        == pytest.approx(0.375, abs=1e-12)


def test_trial_summary_rejects_empty():
    with pytest.raises(DegenerateInput):
        trial_summary([])
