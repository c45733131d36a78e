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
from .walk import Trajectory

_SHA3_512 = "sha3-512"
_SHAKE256 = "shake256"
_BLAKE3 = "blake3"
_DEFAULT_OUT = {_SHA3_512: 64, _SHAKE256: 64, _BLAKE3: 32}
_MIN_OUT = 16
_MAX_OUT = 1024  # 8192 bits, ample for a key


@dataclass(frozen=True)
class HashAlg:
    """A hash algorithm choice plus its output length in bytes.

    out_len is an int (not a bool). sha3-512 is fixed at 64 bytes;
    shake256 and blake3 are extendable and accept any out_len from 16 to
    1024 bytes. Labels render the digest size in bits, e.g. "shake256-512"
    or "blake3-256", except sha3-512 whose name already carries it.
    """

    name: str
    out_len: int

    def __post_init__(self) -> None:
        if self.name not in _DEFAULT_OUT:
            raise ConfigError(
                f"alg must be one of {sorted(_DEFAULT_OUT)}, "
                f"got {self.name!r}")
        if not isinstance(self.out_len, int) \
                or isinstance(self.out_len, bool):
            raise ConfigError(
                f"out_len must be an int number of bytes, "
                f"got {self.out_len!r}")
        if self.name == _SHA3_512 and self.out_len != 64:
            raise ConfigError("sha3-512 output length is fixed at 64 bytes")
        if not _MIN_OUT <= self.out_len <= _MAX_OUT:
            raise ConfigError(
                f"out_len must be in [{_MIN_OUT}, {_MAX_OUT}] bytes, "
                f"got {self.out_len!r}")

    @property
    def bits(self) -> int:
        return self.out_len * 8

    @property
    def label(self) -> str:
        if self.name == _SHA3_512:
            return self.name
        return f"{self.name}-{self.bits}"

    @classmethod
    def sha3_512(cls) -> "HashAlg":
        return cls(_SHA3_512, 64)

    @classmethod
    def shake256(cls, out_len: int = 64) -> "HashAlg":
        return cls(_SHAKE256, out_len)

    @classmethod
    def blake3(cls, out_len: int = 32) -> "HashAlg":
        return cls(_BLAKE3, out_len)

    @classmethod
    def parse(cls, text: str, out_len: int | None = None) -> "HashAlg":
        """Parse "sha3-512", "blake3", "shake256-512" style names.

        A bit-count suffix must be a multiple of 8; an explicit out_len
        argument (bytes) may not contradict it.
        """
        name = text.strip().lower()
        suffix_len = None
        if name not in _DEFAULT_OUT and "-" in name:
            base, _, bits = name.rpartition("-")
            if base in _DEFAULT_OUT and bits.isdecimal():  # int('²') fails
                if int(bits) % 8:
                    raise ConfigError(
                        f"alg {text!r}: bit count must be a multiple of 8")
                name = base
                suffix_len = int(bits) // 8
        if name not in _DEFAULT_OUT:
            raise ConfigError(
                f"unknown alg {text!r}; expected one of {sorted(_DEFAULT_OUT)}")
        if out_len is not None and suffix_len is not None \
                and out_len != suffix_len:
            raise ConfigError(
                f"alg {text!r} conflicts with out_len={out_len}")
        chosen = out_len if out_len is not None else suffix_len
        if chosen is None:
            chosen = _DEFAULT_OUT[name]
        return cls(name, chosen)


@dataclass(frozen=True)
class Digest:
    """A derived key: algorithm plus raw digest bytes."""

    alg: HashAlg
    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != self.alg.out_len:
            raise ValueError(
                f"digest length {len(self.data)} does not match "
                f"{self.alg.label}")

    @property
    def hex(self) -> str:
        return self.data.hex()


def serialize_trajectory(t: Trajectory) -> bytes:
    """The normative byte form described in the module docstring."""
    return t.xy.astype("<i8").tobytes()


def digest_many(messages: Sequence[bytes], alg: HashAlg) -> list[Digest]:
    """Hash each message under alg, in order."""
    if alg.name == _SHA3_512:
        outs = [hashlib.sha3_512(m).digest() for m in messages]
    elif alg.name == _SHAKE256:
        outs = [hashlib.shake_256(m).digest(alg.out_len) for m in messages]
    else:
        outs = blake3_many(messages, alg.out_len)
    return [Digest(alg, out) for out in outs]


def digest_bytes(data: bytes, alg: HashAlg) -> Digest:
    """Hash raw bytes under alg. Building block for derive_key and tests."""
    return digest_many([data], alg)[0]


def derive_key(t: Trajectory, alg: HashAlg | None = None) -> Digest:
    """Serialize the trajectory and hash it into a fixed-length key."""
    if alg is None:
        alg = HashAlg.sha3_512()
    return digest_bytes(serialize_trajectory(t), alg)
