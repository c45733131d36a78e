"""Serialization layout, hash KATs, algorithm parsing, XOF behavior."""

import hashlib
import random
import struct

import numpy as np
import pytest

import keccak_ref
from neighbour_cases import neighbour_cases
from walkhash import (
    ConfigError,
    HashAlg,
    LatticePoint,
    Trajectory,
    WalkConfig,
    derive_key,
    digest_bytes,
    generate_walk,
    serialize_trajectory,
)
from walkhash import keygen
from walkhash._blake3 import blake3_many
from walkhash.keygen import _MAX_OUT, _MIN_SHARED, digest_many

# known-answer: SHA3-512 of 16 zero bytes, confirmed by the from-scratch
# Keccak oracle below
_SHA3_ZERO16 = (
    "f0140e314ee38d4472393680e7a72a81abb36b134b467d90ea943b7aa1ea03bf"
    "2323bc1a2df91f7230a225952e162f6629cf435e53404e9cdd727a2d94e4f909"
)


def _fixed(points) -> Trajectory:
    return Trajectory(tuple(points), WalkConfig())


def _parse(blob: bytes):
    """Independent inverse of serialize_trajectory."""
    assert len(blob) % 16 == 0
    return [LatticePoint(x, y) for x, y in struct.iter_unpack("<qq", blob)]


# ------------------------------------------------------------ serialization

def test_zero_point_serializes_to_zero_bytes():
    assert serialize_trajectory(_fixed([LatticePoint(0, 0)])) == b"\x00" * 16


def test_twos_complement_little_endian_layout():
    blob = serialize_trajectory(_fixed([LatticePoint(1, -1)]))
    assert blob == b"\x01" + b"\x00" * 7 + b"\xff" * 8


def test_concatenation_order_and_roundtrip():
    points = [LatticePoint(2, 3), LatticePoint(-40, 7),
              LatticePoint(900, -900)]
    blob = serialize_trajectory(_fixed(points))
    assert len(blob) == 48
    assert blob == b"".join(
        serialize_trajectory(_fixed([p])) for p in points)
    assert _parse(blob) == points


def test_roundtrip_random_trajectories():
    rng = random.Random(15)
    for _ in range(200):
        points = [LatticePoint(rng.randrange(-10**9, 10**9),
                               rng.randrange(-10**9, 10**9))
                  for _ in range(rng.randrange(1, 30))]
        t = _fixed(points)
        blob = serialize_trajectory(t)
        assert len(blob) == 16 * len(points)
        assert _parse(blob) == points


# ------------------------------------------------------------------- KATs

def test_sha3_kat_single_zero_point():
    t = _fixed([LatticePoint(0, 0)])
    assert derive_key(t, HashAlg.parse("sha3-512")).hex() == _SHA3_ZERO16
    assert keccak_ref.sha3_512(b"\x00" * 16).hex() == _SHA3_ZERO16


def test_hashlib_agrees_with_independent_keccak():
    rng = random.Random(99)
    for _ in range(30):
        msg = rng.randbytes(rng.randrange(0, 400))
        assert hashlib.sha3_512(msg).digest() == keccak_ref.sha3_512(msg)
        assert hashlib.shake_256(msg).digest(64) \
            == keccak_ref.shake256(msg, 64)


def test_derive_key_shake_matches_oracle():
    t = generate_walk(WalkConfig(seed=6, n=40))
    blob = serialize_trajectory(t)
    assert derive_key(t, HashAlg("shake256", 48)) \
        == keccak_ref.shake256(blob, 48)


def test_derive_key_blake3_matches_module():
    t = generate_walk(WalkConfig(seed=6, n=40))
    assert derive_key(t, HashAlg.parse("blake3")) \
        == blake3_many([serialize_trajectory(t)], 32)[0]


# -------------------------------------------------------------- behavior

def test_derive_key_deterministic_and_default_alg():
    t = generate_walk(WalkConfig(seed=2, n=30))
    a = derive_key(t)
    b = derive_key(t)
    assert a == b == derive_key(t, HashAlg.parse("sha3-512"))
    assert isinstance(a, bytes) and len(a) == 64


def test_alg_takes_a_hash_alg_or_its_label():
    # a label once ended in AttributeError: 'str' object has no attribute
    t = generate_walk(WalkConfig(seed=2, n=30))
    for label in ("sha3-512", "shake256-384", "blake3"):
        assert derive_key(t, label) == derive_key(t, HashAlg.parse(label))
        assert digest_bytes(b"x", label) \
            == digest_bytes(b"x", HashAlg.parse(label))
    with pytest.raises(ConfigError, match="unknown alg"):
        derive_key(t, "md5")
    for bad in (None, 64, b"sha3-512", ("sha3-512", 64)):
        with pytest.raises(TypeError, match=(
                "^alg must be a HashAlg or its label, got ")):
            derive_key(t, bad)


def test_xof_prefix_property_both_xofs():
    t = generate_walk(WalkConfig(seed=4, n=25))
    for name in ("shake256", "blake3"):
        short = derive_key(t, HashAlg(name, 32))
        long = derive_key(t, HashAlg(name, 64))
        assert long[:32] == short


def test_one_bit_sensitivity_no_collisions():
    rng = random.Random(31337)
    alg = HashAlg.parse("sha3-512")
    t = generate_walk(WalkConfig(seed=10, n=4))
    blob = bytearray(serialize_trajectory(t))
    base = digest_bytes(bytes(blob), alg)
    seen_bits = set()
    for _ in range(1000):
        bit = rng.randrange(len(blob) * 8)
        seen_bits.add(bit)
        blob[bit // 8] ^= 1 << (bit % 8)
        assert digest_bytes(bytes(blob), alg) != base
        blob[bit // 8] ^= 1 << (bit % 8)
    assert len(seen_bits) > 300  # flips genuinely spread over the message


# ---------------------------------------------------------------- HashAlg

def test_alg_labels_and_constructors():
    assert HashAlg("sha3-512", 64).label == "sha3-512"
    assert HashAlg("shake256", 64).label == "shake256-512"
    assert HashAlg("shake256", 32).label == "shake256-256"
    assert HashAlg("blake3", 32).label == "blake3-256"
    assert HashAlg("blake3", 64).label == "blake3-512"
    # the two spellings of one algorithm are equal
    assert HashAlg.parse("shake256-384") == HashAlg("shake256", 48)
    for name in ("sha3_512", "shake256", "blake3"):
        assert not hasattr(HashAlg, name)


@pytest.mark.parametrize("text, name, out_len", [
    ("sha3-512", "sha3-512", 64),
    ("shake256", "shake256", 64),
    ("blake3", "blake3", 32),
    ("shake256-512", "shake256", 64),
    ("shake256-256", "shake256", 32),
    ("blake3-512", "blake3", 64),
    ("BLAKE3-256", "blake3", 32),
])
def test_alg_parse(text, name, out_len):
    alg = HashAlg.parse(text)
    assert (alg.name, alg.out_len) == (name, out_len)


def test_alg_parse_roundtrips_labels():
    for alg in (HashAlg("sha3-512", 64), HashAlg("shake256", 32),
                HashAlg("blake3", 32), HashAlg("blake3", 1024)):
        assert HashAlg.parse(alg.label) == alg


def test_alg_validation_errors():
    with pytest.raises(ConfigError):
        HashAlg.parse("md5")
    with pytest.raises(ConfigError, match="alg must be one of"):
        HashAlg("md5", 16)  # parse rejects the name before the constructor
    with pytest.raises(ConfigError):
        HashAlg("sha3-512", 32)
    with pytest.raises(ConfigError):
        HashAlg("shake256", 8)  # below the 16-byte floor
    with pytest.raises(ConfigError):
        HashAlg.parse("shake256-120")
    with pytest.raises(ConfigError):
        HashAlg("shake256", _MAX_OUT + 1)
    with pytest.raises(ConfigError):
        HashAlg.parse(f"blake3-{8 * _MAX_OUT + 8}")
    with pytest.raises(ConfigError):
        HashAlg.parse("shake256-20")  # bits not a multiple of 8
    with pytest.raises(ConfigError, match="unknown alg"):
        HashAlg.parse("blake3-²")  # a digit, but not a decimal one


@pytest.mark.parametrize("name", ["sha3-512", "shake256", "blake3"])
@pytest.mark.parametrize("out_len", [32.0, 64.0, True, "32", None])
def test_alg_out_len_must_be_an_int(name, out_len):
    # A float would otherwise label itself "shake256-256.0" and then fail
    # in derive_key with a bare TypeError from hashlib or a slice.
    with pytest.raises(ConfigError, match="out_len must be an int") as err:
        HashAlg(name, out_len)
    assert "\n" not in str(err.value)


def test_alg_parse_refuses_a_non_string():
    # once an AttributeError on strip
    for bad in (5, None, b"sha3-512", 10**5000):
        with pytest.raises(TypeError, match="^text must be an alg label str"):
            HashAlg.parse(bad)


# ------------------------------------------------- neighbours in one call

_CASES = neighbour_cases()
_ALGS = [HashAlg("sha3-512", 64), HashAlg("shake256", 16),
         HashAlg("shake256", 64), HashAlg("shake256", _MAX_OUT),
         HashAlg("blake3", 16), HashAlg("blake3", 32),
         HashAlg("blake3", _MAX_OUT)]


@pytest.mark.parametrize("alg", _ALGS, ids=lambda alg: alg.label)
@pytest.mark.parametrize("case", sorted(_CASES))
def test_digest_many_of_neighbours_equals_one_at_a_time(alg, case):
    messages = _CASES[case]
    assert digest_many(messages, alg) == \
        [digest_bytes(m, alg) for m in messages]


def test_one_at_a_time_is_plain_hashlib():
    # the reference the neighbour tests compare against
    for msg in _CASES["run of five"]:
        assert digest_bytes(msg, "sha3-512") == hashlib.sha3_512(msg).digest()
        assert digest_bytes(msg, "shake256-128") \
            == hashlib.shake_256(msg).digest(16)


def test_neighbours_match_the_keccak_oracle():
    messages = _CASES["run of five"] + _CASES["identical pair"]
    assert digest_many(messages, "sha3-512") == \
        [keccak_ref.sha3_512(m) for m in messages]
    assert digest_many(messages, "shake256-256") == \
        [keccak_ref.shake256(m, 32) for m in messages]


def test_sponges_absorb_each_shared_prefix_once(monkeypatch):
    # every byte a message shares with the next is absorbed once; the
    # shared prefix is rounded down to whole 8-byte words
    absorbed = []
    real = hashlib.sha3_512

    class Counted:
        def __init__(self, data=b""):
            self.h = real()
            self.update(data)

        def update(self, data):
            absorbed.append(len(memoryview(data)))
            self.h.update(data)

        def copy(self):
            twin = Counted()
            twin.h = self.h.copy()
            return twin

        def digest(self):
            return self.h.digest()

    monkeypatch.setattr(keygen.hashlib, "sha3_512", Counted)
    messages = _CASES["run of five"]
    assert digest_many(messages, "sha3-512") == \
        [real(m).digest() for m in messages]
    # base/a share 3000 bytes and a/a' 4000; a'/a'' share 2496, fewer than
    # the 4000 that a' starts from, so a'' starts afresh; then no
    # neighbours share 2048 bytes or more
    n = len(messages[0])
    assert sum(absorbed) == 6 * n - 3000 - 4000
    # the cases put a difference on each side of the threshold
    assert _MIN_SHARED == 2048
    absorbed.clear()
    assert digest_many(_CASES["differ at 2047"], "sha3-512")
    assert sum(absorbed) == 2 * n  # 2040 shared bytes: below the threshold
    absorbed.clear()
    assert digest_many(_CASES["differ at 2048"], "sha3-512")
    assert sum(absorbed) == 2 * n - 2048


def test_neighbours_may_be_any_byte_buffer():
    # lengths, slices and compares count bytes, whatever the buffer's items
    # 5,220 four-byte items each, more than _MIN_SHARED
    messages = [(m * 4)[:20880] for m in _CASES["run of five"]]
    for alg in ("sha3-512", "shake256-256"):
        want = [digest_bytes(m, alg) for m in messages]
        for wrap in (bytearray, lambda m: memoryview(m).cast("I"),
                     lambda m: np.frombuffer(m, dtype="<u4")):
            assert digest_many([wrap(m) for m in messages], alg) == want


def test_one_message_takes_the_plain_path(monkeypatch):
    # a single message, keygen's path, has no neighbour to compare with,
    # and a batch with no message of _MIN_SHARED bytes shares no prefix:
    # each message starts from a fresh state
    def no_compare(*args):
        raise AssertionError("compared a lone message")

    t = generate_walk(WalkConfig(seed=2, n=30))
    blob = serialize_trajectory(t)
    with monkeypatch.context() as patch:
        patch.setattr(keygen, "_shared", no_compare)
        assert derive_key(t, "sha3-512") == hashlib.sha3_512(blob).digest()
        assert digest_bytes(blob, "shake256-384") \
            == hashlib.shake_256(blob).digest(48)
        assert digest_many([], "sha3-512") == []
    short = [blob, blob, blob[:-16], b"", bytes(_MIN_SHARED - 1)]
    assert len(blob) < _MIN_SHARED
    assert digest_many(short, "sha3-512") \
        == [hashlib.sha3_512(m).digest() for m in short]
    assert digest_many(short, "shake256-256") \
        == [hashlib.shake_256(m).digest(32) for m in short]
