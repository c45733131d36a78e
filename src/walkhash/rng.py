"""Deterministic keyed random streams built on SplitMix64.

Every random draw in this package comes from a Stream keyed by a 64-bit
seed plus a path of small integers (substream id, step index, trial id...).
A stream's output depends only on its key, never on what other streams have
done, so any single step of any experiment can be regenerated in isolation.
That property is what makes re-evolved perturbations and per-trial replay
cheap and exactly reproducible across platforms.

SplitMix64 is the fixed-increment mixing generator of Steele, Lea and Flood
(the one used to seed the xoshiro family). It is not cryptographic; it only
drives map sampling, which is fine because all security-relevant mixing
happens in the hash stage.

Because a stream is counter-based (draw k of the stream with key K is
mix64(K + k * golden)), draw k of many streams can be computed at once:
stream_keys, mix64_array, u64_draws and uniform_draws are the uint64
numpy counterparts of stream_key, mix64, Stream.next_u64 and
Stream.uniform and give the same values bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Map one uniform double into [0, 1) from the top 53 bits of a u64.
_INV53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, *path: int) -> int:
    """Collapse a seed and a path of integers into one 64-bit stream key.

    Each path element is spread across the word by a golden-ratio multiply
    before being folded in, so nearby ids (step 41 vs 42) land in unrelated
    states. Distinct paths give independent streams for all practical
    purposes.
    """
    key = seed & _MASK64
    for part in path:
        key = mix64(key ^ ((part * _GOLDEN) & _MASK64))
    return key


class Stream:
    """A forward-only random stream identified by (seed, *path)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, *path: int) -> None:
        self._state = stream_key(seed, *path)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform double in [lo, hi), from the top 53 bits of one u64."""
        return lo + (hi - lo) * ((self.next_u64() >> 11) * _INV53)

    def below(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is < n / 2**64, irrelevant here."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)


def mix64_array(z: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
    """mix64 of each word of a uint64 array (arithmetic wraps mod 2**64),
    written into out if given (out may be z itself)."""
    spare = z >> np.uint64(30)
    out = np.bitwise_xor(z, spare, out=out)
    out *= _MIX_A_U64
    out ^= np.right_shift(out, np.uint64(27), out=spare)
    out *= _MIX_B_U64
    out ^= np.right_shift(out, np.uint64(31), out=spare)
    return out


def stream_keys(seeds: Sequence[int], path: tuple[int, ...],
                index: np.ndarray) -> np.ndarray:
    """stream_key(seed, *path, i) for each seed of seeds and each i of a
    non-negative int array: index is (m,), shared by every seed, or
    (len(seeds), m), one row a seed; the keys are (len(seeds), m)."""
    base = np.array([stream_key(seed, *path) for seed in seeds],
                    dtype=np.uint64)
    keys = np.empty((len(seeds), index.shape[-1]), dtype=np.uint64)
    keys[...] = index
    keys *= _GOLDEN_U64
    keys ^= base[:, None]
    return mix64_array(keys, keys)


def u64_draws(keys: np.ndarray, k: int, out: np.ndarray | None = None
              ) -> np.ndarray:
    """Draw k (1-based) of the streams with these keys: next_u64 called k
    times on each; written into out if given."""
    z = np.add(keys, np.uint64(k * _GOLDEN & _MASK64), out=out)
    return mix64_array(z, z)


def uniform_draws(keys: np.ndarray, k: int, lo: float, hi: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Draw k of each stream as Stream.uniform(lo, hi) would make it;
    written into out, a float64 array, if given. The draw's words and
    its doubles share out's memory, so it needs no (keys.shape) temporary
    beyond the one mix64_array takes."""
    bits = u64_draws(keys, k, None if out is None else out.view(np.uint64))
    bits >>= np.uint64(11)
    u = np.multiply(bits, _INV53, out=out)
    u *= hi - lo
    u += lo
    return u
