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
mix64(K + k * golden)), draws of many streams can be computed at once:
stream_keys, mix64_array, u64_draws and uniform_draws are the uint64
numpy counterparts of stream_key, mix64, Stream.next_u64 and
Stream.uniform and give the same values bit for bit. u64_draws and
uniform_draws make a run of consecutive draws k..k+D-1 of every stream in
one numpy pass, as D rows of one array, so a step table's nine draws take
four passes (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011).
"""

from __future__ import annotations

import math
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


# The numpy functions' constant operands, as 0-d arrays: numpy would
# convert a numpy scalar or a Python float on every call. A draw's bounds
# stay Python floats, which wrapping in an array each call does not speed.
_GOLDEN_U64, _MIX_A_U64, _MIX_B_U64 = (
    np.array(c, dtype=np.uint64) for c in (_GOLDEN, _MIX_A, _MIX_B))
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (
    np.array(c, dtype=np.uint64) for c in (11, 27, 30, 31))
_INV53_F64 = np.array(_INV53)


def mix64_array(z: np.ndarray, spare: np.ndarray | None = None
                ) -> np.ndarray:
    """mix64 of each word of a uint64 array, in place (arithmetic wraps
    mod 2**64), with spare, a uint64 array of z's shape, as its scratch
    (a new one if not given); returns z."""
    spare = np.right_shift(z, _SHIFT_30, out=spare)
    z ^= spare
    z *= _MIX_A_U64
    z ^= np.right_shift(z, _SHIFT_27, out=spare)
    z *= _MIX_B_U64
    z ^= np.right_shift(z, _SHIFT_31, out=spare)
    return z


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
    return mix64_array(keys)


def u64_draws(keys: np.ndarray, k: int, out: np.ndarray,
              spare: np.ndarray | None = None) -> np.ndarray:
    """Draw k (1-based) of the streams with these keys, next_u64 called k
    times on each, written into out, a uint64 array of keys' shape; an out
    with one more leading axis of D rows holds draws k..k+D-1, row d draw
    k + d, all made in one pass. spare is mix64_array's scratch."""
    lead = out.shape[:out.ndim - keys.ndim]
    steps = np.arange(k, k + math.prod(lead), dtype=np.uint64) * _GOLDEN_U64
    z = np.add(keys, steps.reshape(lead + (1,) * keys.ndim), out=out)
    return mix64_array(z, spare)


def uniform_draws(keys: np.ndarray, k: int, lo: float, hi: float,
                  out: np.ndarray, spare: np.ndarray | None = None
                  ) -> np.ndarray:
    """Draw k of each stream as Stream.uniform(lo, hi) would make it,
    written into out, a float64 array of keys' shape; an out with one more
    leading axis of D rows holds draws k..k+D-1, as u64_draws makes them.
    The draws' words are made in out's memory and their top 53 bits in
    spare, mix64_array's scratch (uint64, out's shape; a new array if not
    given), which the doubles are then written from: numpy ran the
    multiply over the words' own memory up to twice as slowly."""
    if spare is None:
        spare = np.empty(out.shape, dtype=np.uint64)
    words = u64_draws(keys, k, out.view(np.uint64), spare)
    bits = np.right_shift(words, _SHIFT_11, out=spare)
    u = np.multiply(bits, _INV53_F64, out=out)
    u *= hi - lo
    u += lo
    return u
