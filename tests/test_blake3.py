"""Vendored BLAKE3 against reference vectors and XOF self-consistency.

The vectors file was generated with the reference Rust implementation over
the byte pattern i % 251 at lengths chosen to hit every structural case:
empty input, sub-block, block boundaries, chunk boundaries, power-of-two
and odd chunk counts (unbalanced trees), and multi-output-block extension.
"""

import json
import random
from functools import cache
from pathlib import Path

import blake3_ref
import numpy as np
import pytest
from neighbour_cases import neighbour_cases

from walkhash import (
    PerturbationSpec,
    WalkConfig,
    generate_walk,
    perturb,
    serialize_trajectory,
)
from walkhash import _blake3
from walkhash._blake3 import blake3_many

_VECTORS = json.loads(
    (Path(__file__).parent / "data" / "blake3_vectors.json").read_text())


def _pattern(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


@pytest.mark.parametrize("length", sorted(_VECTORS, key=int))
def test_reference_vectors(length):
    data = _pattern(int(length))
    for out_len, expected in _VECTORS[length].items():
        assert blake3_many([data], int(out_len))[0].hex() == expected


def test_empty_input_known_digest():
    assert blake3_many([b""], 32)[0].hex() == \
        "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262"


def test_xof_prefix_property():
    rng = random.Random(20318)
    for _ in range(60):
        data = rng.randbytes(rng.randrange(0, 5000))
        long_out = blake3_many([data], 131)[0]
        assert blake3_many([data], 64)[0] == long_out[:64]
        assert blake3_many([data], 32)[0] == long_out[:32]
        odd = rng.randrange(1, 131)
        assert blake3_many([data], odd)[0] == long_out[:odd]


def test_determinism():
    data = _pattern(3072)
    assert blake3_many([data], 64)[0] == blake3_many([data], 64)[0]


def test_out_len_validation():
    with pytest.raises(ValueError):
        blake3_many([b"x"], 0)


@pytest.mark.parametrize("out_len", [32, 64, 131])
def test_many_matches_vectors_in_input_order(out_len):
    # Every vector length in one shuffled call, some lengths repeated, so
    # equal-length groups, one-chunk and many-chunk trees share the call.
    lengths = [int(n) for n in _VECTORS] + [0, 1024, 1025, 32016, 32016]
    random.Random(out_len).shuffle(lengths)
    digests = blake3_many([_pattern(n) for n in lengths], out_len)
    assert [d.hex() for d in digests] == \
        [_VECTORS[str(n)][str(out_len)] for n in lengths]


def test_many_of_nothing_is_empty():
    assert blake3_many([], 32) == []


def test_many_out_len_validation():
    for messages in ([], [b"x"]):
        with pytest.raises(ValueError):
            blake3_many(messages, 0)


def test_out_len_must_be_an_int():
    # as HashAlg: a bool, float or str length is an error, not a digest
    for bad in (True, False, 32.0, "32", None):
        for messages in ([], [b"x"]):
            with pytest.raises(ValueError, match="out_len must be an int"):
                blake3_many(messages, bad)


def test_many_accepts_any_byte_buffer():
    messages = [_pattern(n) for n in (0, 65, 2049)]
    expected = blake3_many(messages, 48)
    assert blake3_many([bytearray(m) for m in messages], 48) == expected
    assert blake3_many([memoryview(m) for m in messages], 48) == expected


# ------------------------------------------------- int and numpy kernels

_C = _blake3._CROSSOVER


# Carry edges: every state, message and counter word 0xFFFFFFFF, and lanes
# alternating all-ones and zero, so a carry or spill into the next lane
# shows.
_EDGES = ("all-ones", "alternating")


def _lane_inputs(lanes, counters, per_lane_len_flags, seed):
    """Compression inputs for lanes lanes: random words for an int seed,
    or the words of one of _EDGES. The random words of fewer lanes are the
    first lanes of more, so the oracle checks each lane's inputs once."""
    if seed in _EDGES:
        ones = np.full(lanes, 0xFFFFFFFF, dtype=np.uint32)
        if seed == "alternating":
            ones[1::2] = 0
        counter = ones.astype(np.uint64) * np.uint64(0x100000001)
        if counters != "per-lane":
            counter = int(counter[0])
        word = ones if per_lane_len_flags else int(ones[0])
        return (np.tile(ones, (8, 1)), np.tile(ones, (16, 1)), counter,
                word, word)
    rng = np.random.default_rng(seed)
    width = max(lanes, 320)
    h = rng.integers(0, 2**32, (8, width), dtype=np.uint32)[:, :lanes].copy()
    m = rng.integers(0, 2**32, (16, width), dtype=np.uint32)[:, :lanes].copy()
    per_lane = rng.integers(0, 2**64, width, dtype=np.uint64)[:lanes]
    per_lane[::2] &= np.uint64(0xFFFFFFFF)  # some high words zero
    lens = rng.integers(0, 65, width).astype(np.uint32)[:lanes]
    if counters == "scalar":
        counter = 0
    elif counters == "scalar-high":
        counter = 2**40 + 12345  # nonzero high word
    else:
        counter = per_lane
    if per_lane_len_flags:
        block_len = lens
        # Every flag bit, alone and combined, BLAKE3's seven and beyond.
        flags = (np.arange(lanes) % 256).astype(np.uint32)
    else:
        block_len, flags = 64, 0x7F
    return h, m, counter, block_len, flags


# 87-89 and 119-121 are where earlier versions of the kernels crossed.
@pytest.mark.parametrize("lanes", [1, 2, 31, 32, 33, 87, 88, 89, 119, 120,
                                   121, _C - 1, _C, _C + 1, 320])
@pytest.mark.parametrize("counters", ["scalar", "scalar-high", "per-lane"])
@pytest.mark.parametrize("per_lane_len_flags", [False, True])
def test_int_kernel_equals_numpy_kernel(monkeypatch, lanes, counters,
                                       per_lane_len_flags):
    for seed in (0, 1, 2, *_EDGES):
        h, m, counter, block_len, flags = _lane_inputs(
            lanes, counters, per_lane_len_flags, seed)
        ints = _blake3._compress_ints(h, m, counter, block_len, flags)
        assert ints.dtype == np.uint32
        assert ints.shape == (16, lanes)
        _assert_oracle_compressions(ints, h, m, counter, block_len, flags)
        # One shared (8, 1) chaining value, as a root of parent nodes.
        iv = _blake3._IV[:, None]
        np.testing.assert_array_equal(
            _blake3._compress_ints(iv, m, counter, block_len, flags),
            _blake3._compress_ints(np.repeat(iv, lanes, axis=1), m, counter,
                                   block_len, flags))
        # A parent level on either kernel: the numpy rounds on the (28, L)
        # state, or the int rounds with only the message words packed.
        parent = _blake3._compress_ints(iv, m, 0, _blake3._BLOCK_LEN,
                                        _blake3._PARENT)[0:8]
        for crossover in (0, 2**62):
            with monkeypatch.context() as patch:
                patch.setattr(_blake3, "_CROSSOVER", crossover)
                cvs = _blake3._parent_cvs(m)
            assert cvs.dtype == np.uint32
            np.testing.assert_array_equal(cvs, parent)


def _assert_oracle_compressions(out, h, m, counter, block_len, flags):
    """Every lane of out, all 16 words, equals the scalar oracle's
    compression of that lane's inputs."""
    lanes = m.shape[1]
    h = np.broadcast_to(h, (8, lanes))
    counter, block_len, flags = (np.broadcast_to(np.asarray(x, np.uint64),
                                                 (lanes,)).tolist()
                                 for x in (counter, block_len, flags))
    for j in range(lanes):
        assert out[:, j].tolist() == _oracle_compress(
            tuple(h[:, j].tolist()), m[:, j].astype("<u4").tobytes(),
            counter[j], block_len[j], flags[j]), j


@cache
def _oracle_compress(h, block, counter, block_len, flags):
    # the carry-edge inputs repeat one or two lanes across the whole width
    return blake3_ref.compress(list(h), block, counter, block_len, flags)


@pytest.mark.parametrize("crossover", [0, 2**62], ids=["numpy", "ints"])
@pytest.mark.parametrize("length", sorted(_VECTORS, key=int))
def test_reference_vectors_with_one_kernel(monkeypatch, crossover, length):
    monkeypatch.setattr(_blake3, "_CROSSOVER", crossover)
    data = _pattern(int(length))
    for out_len, expected in _VECTORS[length].items():
        assert blake3_many([data], int(out_len))[0].hex() == expected


def test_avalanche_shaped_batch_runs_both_kernels(monkeypatch):
    # Ten 32,016-byte messages: a chunk stage of 320 lanes (numpy), then
    # parent levels of 160 down to 20 lanes and a root of 10 (numpy at or
    # above the crossover, ints below it), as one avalanche call per
    # algorithm makes.
    rng = random.Random(32016)
    messages = [rng.randbytes(32016) for _ in range(10)]
    expected = [blake3_many([msg])[0] for msg in messages]
    seen = {name: [] for name in ("_chunks_rows", "_chunks_ints",
                                  "_rounds_rows", "_rounds")}
    widths = {"_chunks_rows": lambda m, *rest: m.shape[2],
              "_chunks_ints": lambda m, *rest: m.shape[2],
              "_rounds_rows": lambda s, words, tmp: s.shape[1],
              # the mask holds 32 ones in each lane's 64-bit slot
              "_rounds": lambda v, w, M: (M.bit_length() + 32) // 64}
    for name, width in widths.items():
        def spy(*args, f=getattr(_blake3, name), width=width,
                seen=seen[name]):
            seen.append(width(*args))
            return f(*args)
        monkeypatch.setattr(_blake3, name, spy)
    assert blake3_many(messages) == expected
    assert seen["_chunks_rows"] == [320] and seen["_chunks_ints"] == []
    # All 16 blocks of the chunk stage and the wide parent levels run on
    # numpy, once each.
    levels = [160, 80, 40, 20, 10]
    assert sorted(seen["_rounds_rows"]) == \
        sorted([320] * 16 + [w for w in levels if w >= _C])
    assert sorted(set(seen["_rounds"])) == sorted(w for w in levels if w < _C)
    assert 10 in seen["_rounds"] and 320 not in seen["_rounds"]


def test_a_keygen_sized_message_runs_no_numpy_compression(monkeypatch):
    # one 32,016-byte message, a keygen --n 2000 key: 32 chunk lanes, then
    # 16 down to 1, all under the crossover, so the numpy kernel's cost
    # never reaches keygen
    assert 32 < _C
    msg = random.Random(2000).randbytes(32016)
    calls = []
    for name in ("_chunks_rows", "_rounds_rows"):
        def spy(*args, f=getattr(_blake3, name), name=name):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(_blake3, name, spy)
    assert blake3_many([msg], 32) == [_oracle(msg)[:32]]
    assert calls == []


@pytest.mark.parametrize("lanes", [1, 33, _C, 165, 320])
def test_numpy_kernel_leaves_its_inputs_untouched(monkeypatch, lanes):
    # The inputs their callers pass: to a root compression on ints, an
    # (8, 1) or a strided (8, L) h, message words viewed one 1 KB chunk
    # apart per lane (as _root_nodes and the chunk stage see them) or
    # contiguous, per-lane counters with nonzero high words, lens and
    # flags. Nothing may be written through them, and no output may share
    # their memory.
    rng = np.random.default_rng(lanes)
    padded = rng.integers(0, 256, (lanes, 1024), dtype=np.uint8)
    words = padded.view("<u4").reshape(lanes, 16, 16).transpose(1, 2, 0)
    counter = rng.integers(0, 2**64, lanes, dtype=np.uint64)
    block_len = rng.integers(0, 65, lanes).astype(np.uint32)
    flags = (np.arange(lanes) % 256).astype(np.uint32)
    wide = rng.integers(0, 2**32, (8, 2 * lanes), dtype=np.uint32)
    for h in (_blake3._IV[:, None], wide[:, ::2]):
        for m in (words[3], words[3].copy()):
            inputs = (h, m, counter, block_len, flags)
            before = [x.copy() for x in inputs]
            out = _blake3._compress_ints(*inputs)
            _assert_oracle_compressions(out, *before)
            for x, y in zip(inputs, before):
                np.testing.assert_array_equal(x, y)
                assert not np.shares_memory(out, x)
    # The chunk stage, and a parent level on numpy.
    final = np.arange(lanes) % 3 == 2
    inputs = (words, counter, final)
    before = [x.copy() for x in inputs]
    cvs = _blake3._chunks_rows(*inputs, 700)
    np.testing.assert_array_equal(cvs, _blake3._chunks_ints(*before, 700))
    for x, y in zip(inputs, before):
        np.testing.assert_array_equal(x, y)
        assert not np.shares_memory(cvs, x)
    m, before = words[0], words[0].copy()
    monkeypatch.setattr(_blake3, "_CROSSOVER", 0)
    cvs = _blake3._parent_cvs(m)
    np.testing.assert_array_equal(cvs, _blake3._compress_ints(
        _blake3._IV[:, None], before, 0, _blake3._BLOCK_LEN,
        _blake3._PARENT)[0:8])
    np.testing.assert_array_equal(m, before)
    assert not np.shares_memory(cvs, m)


@pytest.mark.parametrize("count, out_len", [(60, 32), (4, 1024)])
def test_a_root_of_many_lanes_equals_the_oracle(monkeypatch, count,
                                                out_len):
    # 60 one-chunk messages, or 4 messages of 16 output blocks each: root
    # outputs of at least _CROSSOVER lanes, which run on ints as well
    rng = random.Random(count)
    messages = [rng.randbytes(rng.randrange(0, 1025)) for _ in range(count)]
    messages += [b"", bytes(1024)]
    widths = []

    def spy(h, m, *rest, f=_blake3._compress_ints):
        widths.append(m.shape[1])
        return f(h, m, *rest)

    monkeypatch.setattr(_blake3, "_compress_ints", spy)
    assert blake3_many(messages, out_len) == \
        [blake3_ref.blake3(msg, out_len) for msg in messages]
    assert widths == [len(messages) * -(-out_len // 64)]
    assert widths[0] >= _C


@pytest.mark.parametrize("messages, nchunks, tail", [
    (1, 1, 1), (1, 1, 1024), (1, 3, 65), (1, 32, 272), (3, 11, 640),
    (8, 5, 64), (12, 1, 700), (7, 17, 1000), (11, 11, 129),
])
def test_chunk_stage_equals_numpy_after_every_block(messages, nchunks, tail):
    # Per-lane counters, some with a nonzero high word, and final chunks
    # whose last block is the first, a middle or the sixteenth, stopped
    # after every block count: the int stage's packed chaining values must
    # equal the numpy stage's at each one.
    lanes = messages * nchunks
    for seed in range(2):
        rng = np.random.default_rng([lanes, nchunks, tail, seed])
        m = rng.integers(0, 2**32, (16, 16, lanes), dtype=np.uint32)
        counter = rng.integers(0, 2**64, lanes, dtype=np.uint64)
        counter[::2] &= np.uint64(0xFFFFFFFF)  # some high words zero
        final = np.arange(lanes) % nchunks == nchunks - 1
        for blocks in range(17):
            ints = _blake3._chunks_ints(m[:blocks], counter, final, tail)
            rows = _blake3._chunks_rows(m[:blocks], counter, final, tail)
            assert ints.dtype == rows.dtype == np.uint32
            assert ints.shape == rows.shape == (8, lanes)
            np.testing.assert_array_equal(ints, rows)


# ------------------------------------- the independent scalar oracle


def test_oracle_matches_reference_vectors():
    for length, outputs in _VECTORS.items():
        if int(length) <= 32016:
            long_out = blake3_ref.blake3(_pattern(int(length)), 131)
            for out_len, expected in outputs.items():
                assert long_out[:int(out_len)].hex() == expected


@cache
def _differential_cases():
    """Seeded random messages with their oracle digests (131 bytes)."""
    rng = random.Random(20201)
    lengths = [0, 1, 63, 64, 65, 1023, 1024, 1025, 32016]
    for blocks in range(1, 17):  # a final chunk of each block count
        tail = 64 * (blocks - 1) + rng.randrange(1, 65)
        lengths += [tail, 1024 * rng.randrange(1, 4) + tail]
    lengths += [1024 * (c - 1) + rng.randrange(1, 1025) for c in (31, 32, 33)]
    single = [rng.randbytes(n) for n in lengths]
    # Groups of 132 and 130 lanes beside narrow ones of every shape.
    wide = [rng.randbytes(n) for n in [32 * 1024 + 100] * 4 + [700] * 130]
    wide += rng.sample(single, 12)
    rng.shuffle(wide)
    narrow = single + [rng.randbytes(n) for n in rng.sample(lengths, 20)]
    rng.shuffle(narrow)
    oracle = {msg: blake3_ref.blake3(msg, 131)
              for msg in set(single + narrow + wide)}
    return single, narrow, wide, oracle


@pytest.mark.parametrize("crossover", [0, 2**62], ids=["numpy", "ints"])
def test_differential_against_oracle(monkeypatch, crossover):
    single, narrow, wide, oracle = _differential_cases()
    monkeypatch.setattr(_blake3, "_CROSSOVER", crossover)
    for i, msg in enumerate(single):
        out_len = (32, 64, 131)[i % 3]
        assert blake3_many([msg], out_len) == [oracle[msg][:out_len]], \
            len(msg)
    assert blake3_many(narrow, 131) == [oracle[msg] for msg in narrow]
    assert blake3_many(wide, 32) == [oracle[msg][:32] for msg in wide]


# ------------------------------------------- chunks repeated by neighbours

_NEIGHBOURS = neighbour_cases()


@cache
def _oracle(msg: bytes) -> bytes:
    return blake3_ref.blake3(msg, 131)


@pytest.mark.parametrize("crossover", [0, 2**62], ids=["numpy", "ints"])
@pytest.mark.parametrize("case", sorted(_NEIGHBOURS))
def test_neighbours_match_the_oracle_with_one_kernel(monkeypatch, crossover,
                                                     case):
    monkeypatch.setattr(_blake3, "_CROSSOVER", crossover)
    messages = _NEIGHBOURS[case]
    for out_len in (1, 32, 131):
        assert blake3_many(messages, out_len) == \
            [_oracle(m)[:out_len] for m in messages]


def _chunk_lanes(monkeypatch) -> list[int]:
    """The lane count of every chunk stage run from now on."""
    lanes = []
    for name in ("_chunks_rows", "_chunks_ints"):
        def spy(m, *rest, f=getattr(_blake3, name)):
            lanes.append(m.shape[2])
            return f(m, *rest)
        monkeypatch.setattr(_blake3, name, spy)
    return lanes


def test_a_point_nudge_runs_one_chunk_lane(monkeypatch):
    # a trial's disturbed walk differs from its base in one 16-byte point,
    # so the chunk stage runs its one changed chunk, not all 32
    t = generate_walk(WalkConfig(seed=3, n=2000))
    base = serialize_trajectory(t)
    nudged = serialize_trajectory(perturb(t, PerturbationSpec(700)))
    lanes = _chunk_lanes(monkeypatch)
    assert blake3_many([base, nudged]) == \
        [blake3_many([base])[0], blake3_many([nudged])[0]]
    assert lanes == [32 + 1, 32, 32]
    # an avalanche batch of five trials: 5 x 32 base lanes, 5 nudged ones
    lanes.clear()
    messages = []
    for seed in range(5):
        t = generate_walk(WalkConfig(seed=seed, n=2000))
        messages += [serialize_trajectory(t), serialize_trajectory(
            perturb(t, PerturbationSpec(334 * (seed + 1))))]
    digests = blake3_many(messages)
    assert lanes == [5 * 32 + 5]
    assert digests == [blake3_many([m])[0] for m in messages]


def test_repeated_chunks_take_the_nearest_earlier_lane(monkeypatch):
    # three messages of three chunks: the second repeats chunks 0 and 2 of
    # the first, the third chunk 1 of the second (which is new there) and
    # chunk 2 of the first (through the second)
    rng = random.Random(3)
    a = rng.randbytes(3000)
    b = a[:1024] + rng.randbytes(1024) + a[2048:]
    c = rng.randbytes(1024) + b[1024:]
    lanes = _chunk_lanes(monkeypatch)
    assert blake3_many([a, b, c], 64) == [_oracle(m)[:64] for m in (a, b, c)]
    assert lanes == [3 + 1 + 1]
