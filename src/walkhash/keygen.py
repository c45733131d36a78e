"""Canonical trajectory serialization and hash-based key derivation.

The serialized form is normative: every lattice point contributes x then y,
each as an 8-byte two's-complement little-endian integer, concatenated with
no delimiters. A trajectory of n steps therefore serializes to exactly
16 * (n + 1) bytes, and equal trajectories always produce equal bytes.

Keys are fixed-length digests of that byte string. SHA3-512 and SHAKE256
come from hashlib; BLAKE3 uses the vendored implementation in _blake3.
digest_many hashes independent messages as one batch, which BLAKE3 runs
as shared lanes (lane-packed ints when narrow, numpy rows when wide);
digest_bytes is its one-message case.

digest_many also does once what neighbouring messages share, as an
avalanche trial's walk and its disturbed copy do. A sponge absorbs the
prefix that a message shares with the next one once, then finishes each
from a copy() of that state (FIPS 202; hashlib documents copy()). The
prefix is taken only when the two have the same length and it spans at
least _MIN_SHARED bytes: the first _MIN_SHARED bytes are compared as
bytes, and only if they agree is the rest found with one compare of the
two messages as uint64 words. A batch with no such prefix takes the
plain path, and so do one message and a batch with no message of
_MIN_SHARED bytes, without a neighbour check. BLAKE3 skips the
chunks that repeat the previous message's (see _blake3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, Sequence

import numpy as np

from ._blake3 import blake3_many
from .errors import ConfigError
from .walk import Trajectory, _integer, _shown

_SHA3_512 = "sha3-512"
_SHAKE256 = "shake256"
_BLAKE3 = "blake3"
_DEFAULT_OUT = {_SHA3_512: 64, _SHAKE256: 64, _BLAKE3: 32}
_MIN_OUT = 16
_MAX_OUT = 1024  # 8192 bits, ample for a key
# Bytes a sponge's neighbours must share before digest_many absorbs them
# once. Finding the prefix and copying the state cost about 5 us, which
# shake256 spends on about 1.7 KB at 2.9 ns a byte and sha3-512 on about
# 1 KB at 5.5 ns (in-process CPU time, 2-core Xeon VM, Python 3.11, numpy
# 2.4). Neighbours whose first _MIN_SHARED bytes differ cost one bytes
# compare, about 0.5 us.
_MIN_SHARED = 2048


@dataclass(frozen=True)
class HashAlg:
    """A hash algorithm choice plus its output length in bytes.

    out_len is an integer (not a bool), held as a Python int. sha3-512 is
    fixed at 64 bytes; shake256 and blake3 are extendable and accept any
    out_len from 16 to 1024 bytes. Labels render the digest size in bits,
    e.g. "shake256-512" or "blake3-256", except sha3-512 whose name
    already carries it. parse reads a label back.
    """

    name: str
    out_len: int

    def __post_init__(self) -> None:
        if self.name not in _DEFAULT_OUT:
            raise ConfigError(
                f"alg must be one of {sorted(_DEFAULT_OUT)}, "
                f"got {_shown(self.name)}")
        object.__setattr__(self, "out_len", _integer(
            "out_len", self.out_len, _MIN_OUT, _MAX_OUT + 1))
        if self.name == _SHA3_512 and self.out_len != 64:
            raise ConfigError("sha3-512 output length is fixed at 64 bytes")

    @property
    def bits(self) -> int:
        return self.out_len * 8

    @property
    def label(self) -> str:
        if self.name == _SHA3_512:
            return self.name
        return f"{self.name}-{self.bits}"

    @classmethod
    def parse(cls, text: str) -> "HashAlg":
        """Parse "sha3-512", "blake3", "shake256-384" style names.

        A -BITS suffix, a multiple of 8, gives the output length; without
        one, sha3-512 and shake256 give 64 bytes and blake3 32. TypeError
        if text is not a str.
        """
        if not isinstance(text, str):
            raise TypeError(f"text must be an alg label str, such as "
                            f"'shake256-384', got {_shown(text)}")
        name = text.strip().lower()
        if name in _DEFAULT_OUT:
            return cls(name, _DEFAULT_OUT[name])
        base, _, bits = name.rpartition("-")
        if base not in _DEFAULT_OUT or not bits.isdecimal():  # int('²') fails
            raise ConfigError(
                f"unknown alg {text!r}; expected one of {sorted(_DEFAULT_OUT)}")
        if int(bits) % 8:
            raise ConfigError(
                f"alg {text!r}: bit count must be a multiple of 8")
        return cls(base, int(bits) // 8)


def _alg(name: str, value) -> HashAlg:
    """value, a HashAlg or a label HashAlg.parse reads, as a HashAlg;
    TypeError naming name for any other object."""
    if isinstance(value, HashAlg):
        return value
    if isinstance(value, str):
        return HashAlg.parse(value)
    raise TypeError(
        f"{name} must be a HashAlg or its label, got {_shown(value)}")


def serialize_trajectory(t: Trajectory) -> bytes:
    """The normative byte form described in the module docstring."""
    return t.xy.astype("<i8").tobytes()


def _shared(a: bytes, b: bytes) -> int:
    """Bytes of the prefix that a and b share, rounded down to whole 8-byte
    words; 0 if their lengths differ or it is shorter than _MIN_SHARED."""
    if len(a) != len(b) or len(a) < _MIN_SHARED \
            or a[:_MIN_SHARED] != b[:_MIN_SHARED]:
        return 0
    words = len(a) // 8
    differ = np.frombuffer(a, np.uint64, words) \
        != np.frombuffer(b, np.uint64, words)
    first = int(differ.argmax())
    return 8 * (first if differ[first] else words)


def _sponges(messages: Sequence[bytes], new: Callable,
             finish: Callable) -> list[bytes]:
    """finish(new(m)) for each message m, with each prefix that a message
    shares with the next absorbed once (see the module docstring)."""
    # byte strings, so that lengths, slices and compares count bytes
    data = [m if isinstance(m, (bytes, bytearray))
            else memoryview(m).tobytes() for m in messages]
    shares = [_shared(a, b) for a, b in zip(data, data[1:])]
    if not any(shares):
        return [finish(new(m)) for m in data]
    out = []
    # head has absorbed the current message's first `start` bytes
    head, start = new(), 0
    for msg, shared in zip(data, shares + [0]):
        view = memoryview(msg)
        if shared and shared >= start:
            head.update(view[start:shared])
            start = shared
            following = head.copy()
        else:
            # no prefix to share, or one shorter than the start bytes head
            # holds: the next message starts afresh, which costs what
            # absorbing that prefix again here would
            following, shared = new(), 0
        head.update(view[start:])
        out.append(finish(head))
        head, start = following, shared
    return out


def digest_many(messages: Sequence[bytes],
                alg: HashAlg | str) -> list[bytes]:
    """Hash each message under alg (a HashAlg or its label), in order."""
    alg = _alg("alg", alg)
    if alg.name == _BLAKE3:
        return blake3_many(messages, alg.out_len)
    if alg.name == _SHA3_512:
        new, finish = hashlib.sha3_512, methodcaller("digest")
    else:
        new, finish = hashlib.shake_256, methodcaller("digest", alg.out_len)
    if len(messages) < 2 or max(map(len, messages)) < _MIN_SHARED:
        return [finish(new(m)) for m in messages]
    return _sponges(messages, new, finish)


def digest_bytes(data: bytes, alg: HashAlg | str) -> bytes:
    """Hash raw bytes under alg. Building block for derive_key and tests."""
    return digest_many([data], alg)[0]


def derive_key(t: Trajectory,
               alg: HashAlg | str = HashAlg(_SHA3_512, 64)) -> bytes:
    """Serialize the trajectory and hash it into a fixed-length key of
    alg.out_len bytes (sha3-512 by default)."""
    return digest_bytes(serialize_trajectory(t), alg)
