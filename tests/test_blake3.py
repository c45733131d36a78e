"""Vendored BLAKE3 against reference vectors and XOF self-consistency.

The vectors file was generated with the reference Rust implementation over
the byte pattern i % 251 at lengths chosen to hit every structural case:
empty input, sub-block, block boundaries, chunk boundaries, power-of-two
and odd chunk counts (unbalanced trees), and multi-output-block extension.
"""

import json
import random
from pathlib import Path

import pytest

from walkhash._blake3 import blake3_digest, blake3_many

_VECTORS = json.loads(
    (Path(__file__).parent / "data" / "blake3_vectors.json").read_text())


def _pattern(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


@pytest.mark.parametrize("length", sorted(_VECTORS, key=int))
def test_reference_vectors(length):
    data = _pattern(int(length))
    for out_len, expected in _VECTORS[length].items():
        assert blake3_digest(data, int(out_len)).hex() == expected


def test_empty_input_known_digest():
    assert blake3_digest(b"", 32).hex() == \
        "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262"


def test_xof_prefix_property():
    rng = random.Random(20318)
    for _ in range(60):
        data = rng.randbytes(rng.randrange(0, 5000))
        long_out = blake3_digest(data, 131)
        assert blake3_digest(data, 64) == long_out[:64]
        assert blake3_digest(data, 32) == long_out[:32]
        odd = rng.randrange(1, 131)
        assert blake3_digest(data, odd) == long_out[:odd]


def test_determinism():
    data = _pattern(3072)
    assert blake3_digest(data, 64) == blake3_digest(data, 64)


def test_out_len_validation():
    with pytest.raises(ValueError):
        blake3_digest(b"x", 0)


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


def test_many_accepts_any_byte_buffer():
    messages = [_pattern(n) for n in (0, 65, 2049)]
    expected = blake3_many(messages, 48)
    assert blake3_many([bytearray(m) for m in messages], 48) == expected
    assert blake3_many([memoryview(m) for m in messages], 48) == expected
