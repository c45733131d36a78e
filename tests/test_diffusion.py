"""Perturbation mechanics, entropy, flip matrices, and trial batches."""

import copy
import math
import pickle
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from walkhash import (
    BitMatrix,
    BoundsExceeded,
    ConfigError,
    DegenerateInput,
    HashAlg,
    InvalidPosition,
    LatticePoint,
    MapMode,
    PerturbMode,
    PerturbationSpec,
    TrialRecord,
    Trajectory,
    WalkConfig,
    affine_step_for,
    default_positions,
    derive_key,
    digest_bytes,
    generate_walk,
    lattice_bound,
    perturb,
    run_avalanche,
    serialize_trajectory,
    shannon_entropy,
    step,
    trial_seed,
    trial_summary,
)
from walkhash import diffusion, walk
from walkhash.errors import WalkhashError
from walkhash.rng import stream_key

_ALG = HashAlg.parse("sha3-512")


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
    x = LatticePoint(t.points[pos].x + nudge[0], t.points[pos].y + nudge[1])
    assert out.points[pos] == x
    for i in range(pos + 1, config.n + 1):
        x = step(x, affine_step_for(config, i), bound=bound)
        assert out.points[i] == x


def test_re_evolve_zero_nudge_reproduces_walk():
    t = generate_walk(WalkConfig(seed=4, n=25))
    out = perturb(t, PerturbationSpec(10, PerturbMode.RE_EVOLVE, (0, 0)))
    assert out.points == t.points


def _full_replay(t, spec):
    """RE_EVOLVE as one replay of the whole tail: the reference."""
    xy = t.xy.copy()
    xy[spec.position] += spec.nudge
    (exc,) = walk._evolve([t.config], xy[None, spec.position:],
                          spec.position + 1)
    if exc:
        raise exc
    return xy


@pytest.mark.parametrize("mode", list(MapMode))
def test_re_evolve_equals_full_replay(mode):
    rng = random.Random(f"rejoin-{mode.value}")
    # 60 short walks, then 12 whose tails reach or cross the boundary of a
    # lone walk's block, as _evolve draws them
    block = walk._block(1)
    for n in [None] * 60 + [block + 1, 2 * block + 17, 2 * block + 904] * 4:
        b = rng.choice([1.0, 100.0, 1e6])  # wide maps rejoin late
        config = WalkConfig(
            seed=rng.randrange(2**64),
            n=n or rng.choice([2, 3, 40, 300, 1100]),
            b_min=-b, b_max=b, epsilon=rng.choice([0.0, 0.5, 3.0]),
            map_mode=mode,
            map_count=rng.randint(1, 6) if mode is MapMode.FIXED_SET
            else None)
        t = generate_walk(config)
        high = config.n - 1 if n is None else max(1, config.n - 1 - block)
        spec = PerturbationSpec(
            rng.randint(1, high), PerturbMode.RE_EVOLVE,
            (rng.randint(-4, 4), rng.randint(-4, 4)))
        assert np.array_equal(perturb(t, spec).xy, _full_replay(t, spec))


def test_re_evolve_replays_a_trajectory_that_is_not_its_walk():
    spec = PerturbationSpec(50, PerturbMode.RE_EVOLVE, (1, 0))
    # the last row of the replay's first block of steps, the row after it,
    # a row inside the second block, and the last row, which ends it
    block = walk._block(1)
    edge = spec.position + block
    for n, rows in ((200, (60, 120, 200)),
                    (edge + block, (edge, edge + 1, edge + block // 2,
                                    edge + block))):
        config = WalkConfig(seed=21, n=n)
        t = generate_walk(config)
        for row in rows:
            xy = t.xy.copy()
            xy[row] += (0, 1)
            hand = Trajectory(xy, config)
            out = perturb(hand, spec)
            assert np.array_equal(out.xy, _full_replay(hand, spec))
            assert out.xy[row].tolist() == t.xy[row].tolist()


def test_re_evolve_ends_at_the_trajectory_not_at_config_n():
    config = WalkConfig(seed=21, n=200)
    spec = PerturbationSpec(50, PerturbMode.RE_EVOLVE, (1, 0))
    for rows in (101, 301):
        # a walk's rows do not depend on n, so these follow config's steps
        walk_xy = generate_walk(replace(config, n=rows - 1)).xy
        for shift in (0, 5):
            xy = walk_xy.copy()
            xy[90] += (0, shift)
            hand = Trajectory(xy, config)
            out = perturb(hand, spec)
            assert out.n == rows - 1
            assert np.array_equal(out.xy, _full_replay(hand, spec))


def test_re_evolve_memory_stays_near_the_walk_size():
    # the replay keeps the walk's rows from where it rejoins them, so it
    # never holds a step table of the whole tail (64 bytes a step), and it
    # writes the tail into the copy that the result keeps
    t = generate_walk(WalkConfig(seed=3, n=200_000))
    spec = PerturbationSpec(10, PerturbMode.RE_EVOLVE)
    tracemalloc.start()
    try:
        out = perturb(t, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.xy, _full_replay(t, spec))
    assert peak < 1.5 * t.xy.nbytes


@pytest.mark.parametrize("mode", list(MapMode))
def test_re_evolve_holds_one_block_table_at_a_time(mode):
    # _evolve, which replays rows that are not a walk's, drops its first
    # block's table before it draws the next one: 1.29x the walk's bytes,
    # against 1.43x with two tables alive; a walk's own rows draw none
    config = WalkConfig(seed=3, n=200_000, map_mode=mode,
                        map_count=5 if mode is MapMode.FIXED_SET else None)
    t = generate_walk(config)
    spec = PerturbationSpec(10, PerturbMode.RE_EVOLVE)
    for disturbed in (Trajectory(t.xy, config), t):
        tracemalloc.start()
        try:
            perturb(disturbed, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * t.xy.nbytes


def test_re_evolve_raises_the_replay_bounds_error(monkeypatch):
    # t's rows follow the steps, but with the bound lowered a row far past
    # the point where the replay meets t leaves the region. A walk's own
    # rows met the real bound when they were made and are kept unchecked,
    # so the rows are built by hand, and _evolve's replay of them finds it.
    spec = PerturbationSpec(5, PerturbMode.RE_EVOLVE, (1, 0))
    for seed in range(50):
        config = WalkConfig(seed=seed, n=300)
        t = Trajectory(generate_walk(config).xy, config)
        early = np.abs(_full_replay(t, spec)[:spec.position + 20]).max()
        if np.abs(t.xy).max() > early:
            break
    else:
        pytest.fail("no walk reaches past its early rows")
    monkeypatch.setattr(walk, "lattice_bound", lambda config: int(early))
    with pytest.raises(BoundsExceeded) as replayed:
        _full_replay(t, spec)
    with pytest.raises(BoundsExceeded, match=re.escape(str(replayed.value))):
        perturb(t, spec)


def test_point_nudge_past_int64_is_a_config_error():
    for x, dx in ((2**63 - 1, 1), (-2**63, -1), (2**63 - 2**53, 2**53)):
        t = Trajectory([[0, 0], [x, 0], [0, 0]], WalkConfig(n=2))
        for mode in PerturbMode:
            with pytest.raises(ConfigError, match=r"^nudged point .* int64$"):
                perturb(t, PerturbationSpec(1, mode, (dx, 0)))
    t = Trajectory([[0, 0], [2**63 - 2, -2**63 + 1], [0, 0]],
                   WalkConfig(n=2))
    out = perturb(t, PerturbationSpec(1, nudge=(1, -1)))
    assert out.xy[1].tolist() == [2**63 - 1, -2**63]


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


@pytest.mark.parametrize("args, field", [
    ((5.0,), "position"),  # once numpy's IndexError
    ((True,), "position"),
    # numpy's assignment truncated these: 79 stayed 79, or became 78
    ((5, PerturbMode.POINT_NUDGE, (0.5, 0)), "nudge"),
    ((5, PerturbMode.RE_EVOLVE, (-0.5, 0)), "nudge"),
    ((5, PerturbMode.POINT_NUDGE, (0, True)), "nudge"),
    ((5, PerturbMode.POINT_NUDGE, (1,)), "nudge"),
])
def test_spec_refuses_non_integers(args, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        PerturbationSpec(*args)


def test_spec_holds_python_ints():
    spec = PerturbationSpec(np.int64(5), nudge=np.array([1, -2]))
    assert spec == PerturbationSpec(5, nudge=(1, -2))
    assert [type(v) for v in (spec.position, *spec.nudge)] == [int] * 3


def test_spec_mode_takes_a_member_or_its_value():
    # "re-evolve" once ran point-nudge: perturb tested the mode by identity
    t = generate_walk(WalkConfig(seed=5, n=30))
    spec = PerturbationSpec(5, "re-evolve", (3, 0))
    assert spec == PerturbationSpec(5, PerturbMode.RE_EVOLVE, (3, 0))
    assert spec.mode is PerturbMode.RE_EVOLVE
    assert perturb(t, spec) == perturb(
        t, PerturbationSpec(5, PerturbMode.RE_EVOLVE, (3, 0)))
    assert PerturbationSpec(5, "point-nudge") == PerturbationSpec(5)
    for bad in ("bogus", "RE_EVOLVE", None, MapMode.FIXED_SET):
        with pytest.raises(ConfigError, match=(
                "^mode must be one of: point-nudge, re-evolve; got ")):
            PerturbationSpec(5, bad)
    # run_avalanche makes its specs, so it takes a value string too
    config = WalkConfig(seed=1, n=12)
    (records, _), = run_avalanche(config, [_ALG], (5,), 2,
                                  "re-evolve").values()
    (want, _), = run_avalanche(config, [_ALG], (5,), 2,
                               PerturbMode.RE_EVOLVE).values()
    assert records == want


def test_run_avalanche_takes_algs_or_their_labels():
    # a label once ended in AttributeError: 'str' object has no attribute
    config = WalkConfig(seed=1, n=12)
    got = run_avalanche(config, ["sha3-512", "blake3"], (5,), 2)
    want = run_avalanche(config, [_ALG, HashAlg.parse("blake3")], (5,), 2)
    assert list(got) == ["sha3-512", "blake3-256"]
    for label in want:
        assert got[label][0] == want[label][0]
        assert got[label][1].to_bytes() == want[label][1].to_bytes()
    with pytest.raises(TypeError, match=(
            "^algs must be a HashAlg or its label, got None")):
        run_avalanche(config, [_ALG, None], (5,), 1)


@pytest.mark.parametrize("positions, trials, nudge, field", [
    ([5.9], 1, (1, 0), "position"),  # once ran position 5
    ([5], 1, (0.4, 0), "nudge"),  # once scored Hamming 0 on every trial
    ([5], 2.5, (1, 0), "trials_per_position"),  # once a TypeError
])
def test_run_avalanche_refuses_non_integers(positions, trials, nudge, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        run_avalanche(WalkConfig(seed=1, n=12), [_ALG], positions, trials,
                      nudge=nudge)


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
    d = derive_key(t, _ALG)  # a key is bytes
    assert shannon_entropy(d) == shannon_entropy(bytearray(d)) > 0
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
    # each once an OverflowError, or a row of 0 for the 0.5
    for entry in (-1, 0.5, 256, np.inf):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            BitMatrix([[0, entry]])
    with pytest.raises(TypeError, match="^bits must be numbers"):
        BitMatrix([[0, 10**400]])
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
    # 2.5 was once "too short", True read as 1 and "7" a bare TypeError
    for bad in (2.5, True, "7"):
        with pytest.raises(ConfigError, match="^n must be an integer, got "):
            default_positions(bad)


def test_trial_seed_is_the_documented_stream():
    assert trial_seed(0, 11, 4) == stream_key(0, 3, 11, 4)
    assert trial_seed(7, 1, 0) != trial_seed(7, 1, 1)
    assert trial_seed(7, 1, 0) != trial_seed(7, 2, 0)


def test_trial_seed_refuses_non_integers():
    # once a bare TypeError from &
    for args, field in (((1.5, 1, 1), "seed"), ((1, None, 1), "position"),
                        ((1, 1, "2"), "trial"), ((True, 1, 1), "seed")):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            trial_seed(*args)


@pytest.mark.parametrize("args, field, got", [
    ((2**64, 5, 0), "seed", 2**64), ((-1, 1, 1), "seed", -1),
    ((7, -1, 1), "position", -1), ((7, 1, -1), "trial", -1),
], ids=["seed-2**64", "seed--1", "position--1", "trial--1"])
def test_trial_seed_refuses_integers_that_would_alias(args, field, got):
    # a key part is reduced modulo 2**64, so each once aliased an in-range
    # value: 2**64 the seed 0, and -1 the seed, position or trial 2**64 - 1
    with pytest.raises(ConfigError, match=re.escape(
            f"{field} must satisfy 0 <= {field} < 2**64, got {got}")):
        trial_seed(*args)
    assert trial_seed(2**64 - 1, 2**64 - 1, 2**64 - 1) \
        == stream_key(2**64 - 1, 3, 2**64 - 1, 2**64 - 1)


def test_perturb_refuses_other_objects():
    # perturb(t, 5) once ended in AttributeError on position
    t = generate_walk(WalkConfig(seed=1, n=12))
    with pytest.raises(TypeError, match="^spec must be a PerturbationSpec, "
                                        "got int$"):
        perturb(t, 5)
    with pytest.raises(TypeError, match="^t must be a Trajectory, got"):
        perturb(t.xy, PerturbationSpec(5))


def test_messages_render_huge_ints():
    # Python renders no int of more than 4,300 digits, so these once ended
    # in a raw ValueError
    huge = 10**5000
    t = generate_walk(WalkConfig(seed=1, n=12))
    with pytest.raises(InvalidPosition, match="got an int of 16610 bits$"):
        perturb(t, PerturbationSpec(huge))
    # the component out of range, where the pair once read "a tuple"
    for nudge in ((huge, 0), (1, -huge)):
        with pytest.raises(ConfigError, match=r"^nudge components must be "
                           r"in \[-2\*\*53, 2\*\*53\], got an int of "
                           r"16610 bits$"):
            PerturbationSpec(5, nudge=nudge)
    with pytest.raises(ConfigError, match=r"got 9007199254740993$"):
        PerturbationSpec(5, nudge=(0, 2**53 + 1))
    with pytest.raises(ConfigError, match="x an int of 16610 bits$"):
        run_avalanche(WalkConfig(seed=1, n=12), [_ALG], (5,), huge)
    with pytest.raises(ConfigError, match="^trial must be an integer"):
        trial_seed(1, 1, float(2**1000))


def test_record_invariants_and_shapes():
    config = WalkConfig(seed=5, n=12)
    positions = (3, 7)
    records, matrix = run_avalanche(config, [_ALG], positions, 4)[
        _ALG.label]
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
    batch, _ = run_avalanche(config, [_ALG], (3, 7), 3)[_ALG.label]
    alone, _ = run_avalanche(config, [_ALG], (7,), 3)[_ALG.label]
    strip = lambda r: (r.position, r.hamming, r.bitflip_rate,
                       r.delta_entropy, r.flip_vector)
    assert [strip(r) for r in batch[3:]] == [strip(r) for r in alone]


def test_zero_nudge_trials_score_zero():
    records, matrix = run_avalanche(
        WalkConfig(seed=1, n=12), [_ALG], (5,), 3, nudge=(0, 0))[_ALG.label]
    for r in records:
        assert r.hamming == 0
        assert r.bitflip_rate == 0.0
        assert r.delta_entropy == 0.0
        assert r.flip_vector == b"\x00" * 64
    assert int(matrix.bits.sum()) == 0


def test_run_avalanche_shares_walks_across_algs():
    config = WalkConfig(seed=6, n=12)
    algs = [_ALG, HashAlg.parse("shake256-512")]
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
    algs = [HashAlg.parse(a)
            for a in ("sha3-512", "shake256-512", "blake3-256")]
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
    _assert_per_trial_rebuild(out, config, algs, positions, trials, mode,
                              nudge)


def _assert_per_trial_rebuild(out, config, algs, positions, trials, mode,
                              nudge):
    """out, a run_avalanche result, holds the records and matrices of one
    trial at a time: generate_walk, perturb and digest_bytes per trial."""
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
                flipped = bytes(x ^ y for x, y in zip(d0, d1))
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


def _group_sizes(monkeypatch):
    """The size of every group of walks walk._walks steps from here on: its
    _evolve calls from step 1 (a re-evolve replay starts later)."""
    sizes = []
    inner = walk._evolve

    def counted(configs, xy, first):
        if first == 1:
            sizes.append(len(configs))
        return inner(configs, xy, first)

    monkeypatch.setattr(walk, "_evolve", counted)
    return sizes


@pytest.mark.parametrize("mode", list(PerturbMode))
def test_avalanche_steps_its_trials_in_groups(monkeypatch, mode):
    # 2 x 10 trials are 20 walks: groups of _GROUP, then the rest; a batch
    # of 6 trials starts its own groups
    groups = _group_sizes(monkeypatch)
    config = WalkConfig(seed=4, n=600)
    records, matrix = run_avalanche(config, [_ALG], (100, 300), 10,
                                    mode)[_ALG.label]
    assert groups == [walk._GROUP, walk._GROUP, 4]
    del groups[:]
    monkeypatch.setattr(diffusion, "_BATCH_BYTES", 6 * 32 * (config.n + 1))
    batched, batched_matrix = run_avalanche(config, [_ALG], (100, 300), 10,
                                            mode)[_ALG.label]
    assert groups == [6, 6, 6, 2]
    assert batched == records
    assert np.array_equal(batched_matrix.bits, matrix.bits)


@pytest.mark.parametrize("mode", list(PerturbMode))
@pytest.mark.parametrize("map_mode", list(MapMode))
def test_grouped_avalanche_equals_per_trial_rebuild(monkeypatch, mode,
                                                    map_mode):
    # lane-size walks in groups of 4: 9 trials make groups of 4, 4 and 1,
    # and re-evolve tails keep their group walk's rows from the rejoin
    config = WalkConfig(seed=23, n=walk._LANE_MIN + 88, map_mode=map_mode,
                        map_count=5 if map_mode is MapMode.FIXED_SET
                        else None)
    monkeypatch.setattr(walk, "_GROUP", 4)
    groups = _group_sizes(monkeypatch)
    positions, trials, nudge = (3, 300, config.n - 1), 3, (2, -1)
    algs = [HashAlg.parse("sha3-512"), HashAlg.parse("blake3-256")]
    out = run_avalanche(config, algs, positions, trials, mode, nudge)
    assert groups == [4, 4, 1]
    _assert_per_trial_rebuild(out, config, algs, positions, trials, mode,
                              nudge)


@pytest.mark.parametrize("n", [1, 15, 16, 80, walk._LANE_MIN - 1])
def test_avalanche_groups_walks_of_every_length(monkeypatch, n):
    # walks shorter than _LANE_MIN share their group's step table too: a
    # group of 8 runs lanes from 64 steps a walk (n=80 and 511 here) and
    # the scalar loop below, a lone walk the scalar loop. A run in groups
    # of _GROUP equals a run of one trial at a time, its results and its
    # errors
    groups = _group_sizes(monkeypatch)
    config = WalkConfig(seed=31, n=n)
    if n == 1:  # positions lie in [1, n - 1], so no trial can run
        configs = [replace(config, seed=s) for s in range(walk._GROUP)]
        assert list(walk._walks(configs)) \
            == [generate_walk(c) for c in configs]
        with pytest.raises(InvalidPosition):
            run_avalanche(config, [_ALG], (1,), 3)
        return
    # far-start trials (see test_grouped_avalanche_raises_the_first_trials
    # _error): at seed 17, trials (5, 1), (10, 1), (10, 2) and (10, 5) leave
    # the bound on their first step, and the first group of 8 holds the
    # first two, after a walk that does not
    far = WalkConfig(x0=LatticePoint(-825, -680),
                     rho_min=0.8340528309020399, rho_max=0.95, b_min=0.0,
                     b_max=0.0, epsilon=0.0, n=n, seed=17)
    positions = tuple(sorted({1, n // 2, n - 1}))
    for mode in PerturbMode:
        _, message = _first_trial_error(far, (5, 10), 6, mode, (1, 0))
        assert "position=5 trial=1 " in message
        outs = []
        for size in (walk._GROUP, 1):
            monkeypatch.setattr(walk, "_GROUP", size)
            del groups[:]
            outs.append(run_avalanche(config, [_ALG], positions, 3, mode,
                                      (1, -1)))
            assert groups == ([8, 1] if size > 1 else [1] * 9)
            with pytest.raises(BoundsExceeded) as raised:
                run_avalanche(far, [_ALG], (5, 10), 6, mode)
            assert str(raised.value) == message
        (records, matrix), (one_records, one_matrix) = (
            out[_ALG.label] for out in outs)
        assert records == one_records
        assert np.array_equal(matrix.bits, one_matrix.bits)


def _first_trial_error(config, positions, trials, mode, nudge):
    """The message run_avalanche gives the first WalkhashError of its
    (position, trial) loop, walking and disturbing one trial at a time."""
    for position in positions:
        for trial in range(trials):
            tseed = trial_seed(config.seed, position, trial)
            try:
                base = generate_walk(replace(config, seed=tseed))
                perturb(base, PerturbationSpec(position, mode, nudge))
            except WalkhashError as exc:
                return type(exc), (f"{exc} (seed={config.seed} "
                                   f"position={position} trial={trial} "
                                   f"trial_seed={tseed})")
    raise AssertionError("no trial failed")


@pytest.mark.parametrize("mode", list(PerturbMode))
def test_grouped_avalanche_raises_the_first_trials_error(mode):
    # a far start leaves lattice_bound's false bound on some seeds (see
    # ROADMAP item 2): at this seed trials 3, 4 and 5 of the first group
    # fail, and trial 3's error is the one a run of one trial at a time
    # reports
    config = WalkConfig(x0=LatticePoint(-825, -680),
                        rho_min=0.8340528309020399, rho_max=0.95,
                        b_min=0.0, b_max=0.0, epsilon=0.0, n=600, seed=12)
    positions, trials, nudge = (100, 300), 6, (1, 0)
    failed = []
    for position in positions:
        for trial in range(trials):
            try:
                generate_walk(replace(
                    config, seed=trial_seed(config.seed, position, trial)))
            except BoundsExceeded:
                failed.append((position, trial))
    assert failed[:3] == [(100, 3), (100, 4), (100, 5)]
    cls, message = _first_trial_error(config, positions, trials, mode,
                                      nudge)
    with pytest.raises(cls) as raised:
        run_avalanche(config, [_ALG], positions, trials, mode, nudge)
    assert type(raised.value) is cls and str(raised.value) == message


def _rejoins(t, spec, want):
    """Whether a re-evolve replay of the walk t, whose result is want, ends
    in its scalar head: the tail is at most walk._REJOIN steps, or the
    replay lands on a row of t within them. Otherwise _evolve replays the
    whole tail."""
    i, n = spec.position, t.n
    return n - i <= walk._REJOIN or any(
        want[k].tolist() == t.xy[k].tolist()
        for k in range(i + 1, i + walk._REJOIN + 1))


@pytest.mark.parametrize("mode", list(MapMode))
def test_re_evolve_with_the_group_table_equals_a_full_replay(mode,
                                                             monkeypatch):
    # walks stepped in a group of 3, which once held their group's last
    # table and now hold their rows alone: a replay that rejoins its walk
    # keeps the walk's rows and draws no table, and every replay equals the
    # full one and that of the same rows built by hand, also for tails
    # that end inside the replay's first _REJOIN steps
    rng = random.Random(f"group-tail-{mode.value}")
    rejoin = walk._REJOIN
    for n in (walk._LANE_MIN, 2000, walk._block(3) + 700):
        config = WalkConfig(n=n, seed=rng.randrange(2**64), map_mode=mode,
                            map_count=6 if mode is MapMode.FIXED_SET
                            else None)
        configs = [replace(config, seed=rng.randrange(2**64))
                   for _ in range(3)]
        for t in walk._walks(configs):
            assert t._walked
            for position in (1, rng.randint(2, n - 2), n - rejoin - 1,
                             n - rejoin, n - rejoin + 1, n - 1):
                spec = PerturbationSpec(position, PerturbMode.RE_EVOLVE,
                                        (rng.randint(-3, 3), 1))
                want = _full_replay(t, spec)
                with monkeypatch.context() as patch:
                    drawn = _step_tables(patch)
                    got = perturb(t, spec)
                assert np.array_equal(got.xy, want)
                assert np.array_equal(
                    got.xy, perturb(Trajectory(t.xy, t.config), spec).xy)
                if _rejoins(t, spec, want):
                    assert drawn == []
                else:
                    assert drawn[0][0] == position + 1  # _evolve's


def _scalar_replay(t, spec):
    """RE_EVOLVE one step(x, affine_step_for(config, i), bound) at a time,
    with no table: the scalar reference."""
    xy = t.xy.copy()
    xy[spec.position] += spec.nudge
    x, bound = LatticePoint(*xy[spec.position].tolist()), lattice_bound(
        t.config)
    for i in range(spec.position + 1, t.n + 1):
        x = step(x, affine_step_for(t.config, i), bound)
        xy[i] = x
    return xy


def _step_tables(monkeypatch):
    """The (lo, hi) of every walk._step_table call from here on."""
    calls = []
    inner = walk._step_table
    monkeypatch.setattr(walk, "_step_table", lambda configs, lo, hi:
                        calls.append((lo, hi)) or inner(configs, lo, hi))
    return calls


def _evolve_calls(monkeypatch):
    """The first row of every walk._evolve call from here on."""
    calls = []
    inner = walk._evolve
    monkeypatch.setattr(walk, "_evolve", lambda configs, xy, first:
                        calls.append(first) or inner(configs, xy, first))
    return calls


@pytest.mark.parametrize("mode", list(MapMode))
def test_re_evolve_of_a_walk_equals_a_hand_built_and_a_scalar_replay(
        mode, monkeypatch):
    # walks at every edge of a lone walk's blocks and lanes, tails around
    # _REJOIN steps: a walk's replay keeps its rows from where it rejoins
    # them and draws no table, the same rows built by hand are one _evolve
    # call from the row after the nudge, and every replay equals the
    # scalar one (a long tail the table one, which other tests hold to
    # the scalar one)
    rng = random.Random(f"walk-tail-{mode.value}")
    edges = (walk._SEGMENT, walk._LANE_MIN, walk._BLOCK_MIN, walk._BLOCK,
             walk._BLOCK + walk._SEGMENT, walk._BLOCK + walk._LANE_MIN)
    rejoin = walk._REJOIN
    for n in sorted({e + d for e in edges for d in (-1, 0, 1)}):
        config = WalkConfig(n=n, seed=rng.randrange(2**64), map_mode=mode,
                            map_count=4 if mode is MapMode.FIXED_SET
                            else None)
        t = generate_walk(config)
        hand = Trajectory(t.xy, config)
        assert t._walked and not hand._walked
        for position in {1, rng.randint(1, n - 1), n - rejoin - 1,
                         n - rejoin, n - rejoin + 1, n - 1}:
            if not 1 <= position < n:
                continue
            spec = PerturbationSpec(position, PerturbMode.RE_EVOLVE,
                                    (rng.randint(-3, 3), rng.randint(-3, 3)))
            replay = _scalar_replay if n - position <= walk._LANE_MIN \
                else _full_replay
            want = replay(t, spec)
            with monkeypatch.context() as patch:
                drawn = _step_tables(patch)
                evolved = _evolve_calls(patch)
                got = perturb(t, spec)
                walk_drew, walk_evolved = drawn[:], evolved[:]
                del evolved[:]
                hand_got = perturb(hand, spec)
            assert np.array_equal(got.xy, hand_got.xy)
            assert np.array_equal(got.xy, want)
            assert evolved == [position + 1]
            if _rejoins(t, spec, want):
                assert walk_drew == [] and walk_evolved == []
            else:  # both replay the whole tail
                assert walk_evolved == [position + 1]


def test_re_evolve_reads_the_walks_own_maps(monkeypatch):
    # once perturb(t, spec, steps=tail) took any table, and a wrong one
    # changed every row from 1501 on; then the walk carried its last maps,
    # 64 bytes a step. Now a walk's replay keeps the walk's rows from the
    # row where it rejoins them, here 1502, and draws no maps, and the
    # constructor's copy of it draws the maps of its whole tail, 500 steps
    # that run in the scalar loop
    t = generate_walk(WalkConfig(n=2000, seed=5))
    spec = PerturbationSpec(1500, "re-evolve", (3, 1))
    want = _scalar_replay(t, spec)
    assert want[1502].tolist() == t.xy[1502].tolist() != want[1501].tolist()
    for walk_t, tables in ((t, []), (Trajectory(t.xy, t.config),
                                     [(1501, 2001)])):
        with monkeypatch.context() as patch:
            drawn = _step_tables(patch)
            assert np.array_equal(perturb(walk_t, spec).xy, want)
        assert drawn == tables
    with pytest.raises(TypeError):
        perturb(t, spec, steps=None)
    # replace builds through the constructor, so it is not marked
    assert t._walked and not replace(t)._walked
    assert replace(t) == t and hash(replace(t)) == hash(t)


def test_copies_of_a_walk_are_checked_like_hand_built_ones():
    # deepcopy and pickle once kept a walk's mark on a writeable copy of its
    # rows, so a replay kept a row edited after the rejoin; every copy is
    # now unmarked, and its whole tail is replayed
    t = generate_walk(WalkConfig(n=2000, seed=5))
    spec = PerturbationSpec(100, PerturbMode.RE_EVOLVE, (3, 1))
    row = 1500
    edited = t.xy.copy()
    edited[row] += (0, 1)
    copies = [copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
    for c in copies:
        c.xy[row] += (0, 1)
    copies.append(replace(t, xy=edited))
    assert not copy.copy(t)._walked
    want = perturb(t, spec).xy
    for c in copies:
        assert not c._walked and c == Trajectory(edited, t.config)
        out = perturb(c, spec).xy
        assert np.array_equal(out, _full_replay(c, spec))
        assert np.array_equal(out, want)


@pytest.mark.parametrize("n", [2000, 20000])
def test_a_walks_replay_draws_no_table_once_it_rejoins(monkeypatch, n):
    # the replay's head draws its steps one at a time, and from the rejoin
    # a walk's rows are kept as they are, with no _evolve call; the same
    # rows built by hand are one _evolve call from the row after the nudge
    t = generate_walk(WalkConfig(n=n, seed=5))
    spec = PerturbationSpec(100, PerturbMode.RE_EVOLVE, (3, 1))
    want = _full_replay(t, spec)
    assert _rejoins(t, spec, want)
    for trajectory, calls in ((t, []), (Trajectory(t.xy, t.config), [101])):
        with monkeypatch.context() as patch:
            drawn = _step_tables(patch)
            evolved = _evolve_calls(patch)
            assert np.array_equal(perturb(trajectory, spec).xy, want)
        assert evolved == calls
        assert [lo for lo, _ in drawn[:1]] == calls


def test_run_avalanche_validation():
    config = WalkConfig(seed=1, n=12)
    with pytest.raises(ConfigError):
        run_avalanche(config, [], (5,), 1)
    with pytest.raises(ConfigError):
        run_avalanche(config, [_ALG, HashAlg.parse("sha3-512")], (5,), 1)
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


def test_trial_summary_takes_only_trial_records():
    # once an AttributeError
    with pytest.raises(TypeError,
                       match=r"^records\[0\] must be a TrialRecord"):
        trial_summary(["x"])
