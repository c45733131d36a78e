"""Message lists whose neighbours share bytes, for digest_many's sharing.

digest_many absorbs a prefix that a message shares with the next one
once (sha3-512, shake256) and skips BLAKE3 chunks that repeat the previous
message's. Each case below is a list of messages to hash in one call; the
expected digests are those of the same messages hashed one at a time.
"""

import random

CHUNK, BLOCK = 1024, 64


def _flip(msg: bytes, *at: int) -> bytes:
    out = bytearray(msg)
    for i in at:
        out[i] ^= 0x5A
    return bytes(out)


def neighbour_cases() -> dict[str, list[bytes]]:
    """Named lists of messages; see the module docstring."""
    rng = random.Random(2201)
    # six chunks, the last one partial, and a length that is not a whole
    # number of 8-byte words
    base = rng.randbytes(5 * CHUNK + 101)
    n = len(base)
    cases = {}
    # one byte changed in the first, a middle or the last chunk, at chunk
    # and block edges, and at the word edges around keygen._MIN_SHARED
    # (2048 bytes)
    for at in (0, 1, 7, 8, 63, 64, 65, 1023, 1024, 1025, 1087, 1088,
               2039, 2040, 2047, 2048, 2049, 2500, 4 * CHUNK + BLOCK - 1,
               5 * CHUNK - 1, 5 * CHUNK, n - 9, n - 8, n - 1):
        cases[f"differ at {at}"] = [base, _flip(base, at)]
    # a 16-byte point rewritten, as a point-nudge trial does
    cases["point nudge"] = [base, base[:3200] + bytes(16) + base[3216:]]
    cases["identical pair"] = [base, base]
    cases["identical run"] = [base] * 4
    # each message shares a longer, then a shorter, prefix with the next
    a = _flip(base, 3000)
    cases["run of five"] = [base, a, _flip(a, 4000), _flip(a, 2500),
                            _flip(a, 10), base]
    cases["two trials"] = [base, _flip(base, 2600), rng.randbytes(n),
                           _flip(base, 4100)]
    # neighbours of other lengths, most with 2048 bytes or more in common
    cases["unequal lengths"] = [base, base[:-1], base[:-1] + b"\0",
                                base + b"\0", base[:3000], base,
                                base[:CHUNK], base[:CHUNK + 1]]
    one = base[:700]
    cases["one chunk"] = [one, _flip(one, 650), _flip(one, 5), one]
    cases["whole chunk"] = [base[:CHUNK], _flip(base[:CHUNK], CHUNK - 1)]
    cases["empty"] = [b"", b"", b"x", b""]
    return cases
