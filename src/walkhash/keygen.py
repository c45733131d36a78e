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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from ._blake3 import blake3_many
from .errors import ConfigError
from .walk import Trajectory, _integer

_SHA3_512 = "sha3-512"
_SHAKE256 = "shake256"
_BLAKE3 = "blake3"
_DEFAULT_OUT = {_SHA3_512: 64, _SHAKE256: 64, _BLAKE3: 32}
_MIN_OUT = 16
_MAX_OUT = 1024  # 8192 bits, ample for a key


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
                f"got {self.name!r}")
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
        one, sha3-512 and shake256 give 64 bytes and blake3 32.
        """
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


def serialize_trajectory(t: Trajectory) -> bytes:
    """The normative byte form described in the module docstring."""
    return t.xy.astype("<i8").tobytes()


def digest_many(messages: Sequence[bytes], alg: HashAlg) -> list[bytes]:
    """Hash each message under alg, in order."""
    if alg.name == _SHA3_512:
        return [hashlib.sha3_512(m).digest() for m in messages]
    if alg.name == _SHAKE256:
        return [hashlib.shake_256(m).digest(alg.out_len) for m in messages]
    return blake3_many(messages, alg.out_len)


def digest_bytes(data: bytes, alg: HashAlg) -> bytes:
    """Hash raw bytes under alg. Building block for derive_key and tests."""
    return digest_many([data], alg)[0]


def derive_key(t: Trajectory,
               alg: HashAlg = HashAlg(_SHA3_512, 64)) -> bytes:
    """Serialize the trajectory and hash it into a fixed-length key of
    alg.out_len bytes (sha3-512 by default)."""
    return digest_bytes(serialize_trajectory(t), alg)
