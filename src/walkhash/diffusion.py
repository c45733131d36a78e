"""Perturbation trials: how much a key changes when its walk barely does.

A trial regenerates a walk from a per-trial seed, disturbs it at one
interior position, and compares the digests of the original and disturbed
trajectories bit by bit. POINT_NUDGE shifts a single point and leaves the
rest alone, isolating the hash's diffusion; RE_EVOLVE re-runs the dynamics
from the disturbed point using the same per-step randomness, measuring the
walk's own sensitivity as well.

Per-trial seeds are derived from (seed, position, trial), so a single trial
can be replayed in isolation and batch order never matters. Flip vectors
are collected into a BitMatrix whose column sums feed the chi-square
uniformity tests in stats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from statistics import fmean
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInput,
    InvalidPosition,
    WalkhashError,
)
from .keygen import HashAlg, _alg, digest_many, serialize_trajectory
# Not called here, but bound by name: perfbench's traced pass wraps
# diffusion.digest_bytes and diffusion.generate_walk.
from .keygen import digest_bytes  # noqa: F401
from .rng import stream_key
from .walk import (
    MAX_COORD,
    _SUB_TRIAL,
    LatticePoint,
    Trajectory,
    WalkConfig,
    _instance,
    _int_pair,
    _integer,
    _member,
    _replay,
    _shown,
    _walks,
    generate_walk,  # noqa: F401
)

# Rows (trials over all positions) a run may have: the serialized BitMatrix
# stores its row count as an unsigned 32-bit integer.
_MAX_ROWS = 2**32

# Serialized-walk bytes per digest batch in run_avalanche (a trial holds
# two walks of 16 * (n + 1) bytes), so memory does not grow with trials.
_BATCH_BYTES = 1 << 24


class PerturbMode(Enum):
    POINT_NUDGE = "point-nudge"
    RE_EVOLVE = "re-evolve"


@dataclass(frozen=True)
class PerturbationSpec:
    """Where and how to disturb a trajectory.

    position indexes the point to shift and must be interior: 1..n-1.
    nudge is the integer offset applied to that point. Both are checked
    when made and held as Python ints (ConfigError if not integers), and
    mode as a PerturbMode (its value string is taken too).
    """

    position: int
    mode: PerturbMode = PerturbMode.POINT_NUDGE
    nudge: tuple[int, int] = (1, 0)

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # the dataclass is frozen
        set_(self, "position", _integer("position", self.position))
        set_(self, "nudge", _int_pair("nudge", self.nudge))
        set_(self, "mode", _member("mode", PerturbMode, self.mode))
        for d in self.nudge:
            if abs(d) > MAX_COORD:
                raise ConfigError(f"nudge components must be in "
                                  f"[-2**53, 2**53], got {_shown(d)}")


def _check_position(position: int, n: int) -> None:
    if not 1 <= position <= n - 1:
        raise InvalidPosition(
            f"positions must be in [1, {n - 1}] for an n={n} walk, "
            f"got {_shown(position)}")


def perturb(t: Trajectory, spec: PerturbationSpec) -> Trajectory:
    """Return the disturbed copy of t; the input is never modified.

    RE_EVOLVE replays the tail after the nudged point to t's last row with
    walk._replay: up to 16 scalar steps until the replay lands on a row of
    t, then t's own rows. A walk's rows (from generate_walk or
    walk._walks) are kept as they are; any other trajectory's, also a copy
    of a walk, are kept once they are confirmed to follow t.config's
    steps, a block at a time, and a trajectory whose rows do not follow is
    replayed to the end. TypeError if t is not a Trajectory or spec not a
    PerturbationSpec.
    """
    _instance("t", Trajectory, t)
    _instance("spec", PerturbationSpec, spec)
    _check_position(spec.position, t.n)
    x, y = t.xy[spec.position].tolist()
    moved = LatticePoint(x + spec.nudge[0], y + spec.nudge[1])
    if not all(-2**63 <= c < 2**63 for c in moved):
        raise ConfigError(
            f"nudged point {tuple(moved)} at position {spec.position} "
            f"does not fit int64")
    xy = t.xy.copy()
    xy[spec.position] = moved
    if spec.mode is PerturbMode.RE_EVOLVE:
        _replay(t.config, xy, spec.position, t._walked)
    return Trajectory._adopt(xy, t.config)


def shannon_entropy(digest: bytes) -> float:
    """Shannon entropy of the digest's byte histogram, in bits per byte.

    Note the estimator is capped by the sample size: an L-byte digest can
    score at most log2(L) even if the underlying source is ideal, so
    64-byte digests top out near 6, not 8. Comparisons between digests of
    equal length are unaffected.
    """
    if not digest:
        raise DegenerateInput("cannot take the entropy of an empty digest")
    counts = np.bincount(np.frombuffer(digest, dtype=np.uint8), minlength=256)
    probs = counts[counts > 0] / len(digest)
    return float(-(probs * np.log2(probs)).sum())


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one perturbation trial under one hash algorithm."""

    trial_id: int
    position: int
    alg: HashAlg
    hamming: int
    bitflip_rate: float
    delta_entropy: float
    flip_vector: bytes


class BitMatrix:
    """A rows x cols matrix of bits, one row per trial flip vector.

    Column j is digest bit j, numbered MSB-first within each byte. The
    serialized form is an 8-byte header (rows then cols, u32 little-endian)
    followed by row-major packed bits, each row padded to a whole byte.
    """

    __slots__ = ("bits",)

    _HEADER = struct.Struct("<II")

    def __init__(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"bits must be 2-D, got shape {bits.shape}")
        if bits.dtype.kind not in "biuf":
            raise TypeError(f"bits must be numbers, got dtype {bits.dtype}")
        # checked before the cast, which would wrap -1 or truncate 0.5
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("bit matrix entries must be 0 or 1")
        self.bits = np.ascontiguousarray(bits, dtype=np.uint8)

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @classmethod
    def from_flip_vectors(cls, vectors: Sequence[bytes]) -> "BitMatrix":
        if not vectors:
            raise ValueError("need at least one flip vector")
        width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise ValueError("flip vectors differ in length")
        packed = np.frombuffer(b"".join(vectors), dtype=np.uint8)
        packed = packed.reshape(len(vectors), width)
        return cls(np.unpackbits(packed, axis=1))

    def column_sums(self) -> np.ndarray:
        return self.bits.sum(axis=0, dtype=np.int64)

    def to_bytes(self) -> bytes:
        header = self._HEADER.pack(self.rows, self.cols)
        return header + np.packbits(self.bits, axis=1).tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BitMatrix":
        if len(blob) < cls._HEADER.size:
            raise ValueError("bit matrix blob shorter than its header")
        rows, cols = cls._HEADER.unpack_from(blob, 0)
        row_bytes = (cols + 7) // 8
        expected = cls._HEADER.size + rows * row_bytes
        if len(blob) != expected:
            raise ValueError(
                f"bit matrix blob has {len(blob)} bytes, expected {expected}")
        packed = np.frombuffer(blob, dtype=np.uint8, offset=cls._HEADER.size)
        packed = packed.reshape(rows, row_bytes)
        return cls(np.unpackbits(packed, axis=1)[:, :cols])


def default_positions(n: int) -> tuple[int, ...]:
    """Five evenly spaced interior positions: ceil(n/6) * k for k in 1..5;
    n is an integer (ConfigError if not)."""
    stride = -(-_integer("n", n) // 6)
    positions = tuple(stride * k for k in range(1, 6))
    if positions[-1] > n - 1:
        raise ConfigError(
            f"n={n} is too short for the default perturbation positions; "
            f"pass explicit positions instead")
    return positions


def trial_seed(seed: int, position: int, trial: int) -> int:
    """Walk seed for one trial; independent of every other trial's. Each
    argument is an integer (ConfigError naming it if not)."""
    return stream_key(_integer("seed", seed), _SUB_TRIAL,
                      _integer("position", position), _integer("trial", trial))


def run_avalanche(
    config: WalkConfig,
    algs: Sequence[HashAlg | str],
    positions: Sequence[int] | None = None,
    trials_per_position: int = 50,
    mode: PerturbMode = PerturbMode.POINT_NUDGE,
    nudge: tuple[int, int] = (1, 0),
) -> dict[str, tuple[list[TrialRecord], BitMatrix]]:
    """Run the full experiment once, hashing every walk under every alg.

    Each (position, trial) pair generates one walk and one disturbed copy;
    every algorithm digests that same pair, so per-algorithm statistics are
    directly comparable. Each alg is a HashAlg or its label. Returns
    {alg label: (records, flip matrix)} with rows ordered by position then
    trial.

    Trials run in batches of about _BATCH_BYTES of serialized walks: the
    batch's walks come from walk._walks in (position, trial) order, which
    steps them in groups that share a step table and lane passes, then
    each algorithm digests all of them in one digest_many call. A
    re-evolve tail keeps its walk's rows from where it rejoins them.

    A WalkhashError raised while a trial builds or disturbs its walk keeps
    its class; its message gains the seed, position, trial and trial_seed
    of that trial. Errors are raised in (position, trial) order, so a run
    reports the trial that a run of one trial at a time would.
    """
    _instance("config", WalkConfig, config)
    algs = [_alg("algs", alg) for alg in algs]
    if not algs:
        raise ConfigError("need at least one hash algorithm")
    labels = [alg.label for alg in algs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate algorithms in {labels}")
    trials_per_position = _integer("trials_per_position",
                                   trials_per_position, 1)
    positions = default_positions(config.n) if positions is None \
        else tuple(_integer("position", p) for p in positions)
    if not positions:
        raise ConfigError("positions must not be empty")
    for p in positions:
        _check_position(p, config.n)
    if len(positions) * trials_per_position >= _MAX_ROWS:
        raise ConfigError(
            f"positions x trials must be < 2**32 rows, got "
            f"{len(positions)} x {_shown(trials_per_position)}")
    # checks the nudge before any walk runs
    specs = {p: PerturbationSpec(p, mode, nudge) for p in positions}
    records: dict[str, list[TrialRecord]] = {lb: [] for lb in labels}
    batch = max(1, _BATCH_BYTES // (32 * (config.n + 1)))
    # lazy: itertools.product would first copy range(trials) into a tuple
    pending = ((p, t) for p in positions for t in range(trials_per_position))
    row = 0
    while chunk := list(islice(pending, batch)):
        messages: list[bytes] = []
        walks = _walks(replace(config, seed=trial_seed(config.seed, *pair))
                       for pair in chunk)
        for (position, trial), base in zip(chunk, walks):
            try:
                if isinstance(base, WalkhashError):
                    raise base
                disturbed = perturb(base, specs[position])
            except WalkhashError as exc:
                # `keygen --seed trial_seed` with the same walk options
                # replays the base walk
                raise type(exc)(
                    f"{exc} (seed={config.seed} position={position} "
                    f"trial={trial} trial_seed="
                    f"{trial_seed(config.seed, position, trial)})") from exc
            messages += (serialize_trajectory(base),
                         serialize_trajectory(disturbed))
        for alg, label in zip(algs, labels):
            digests = digest_many(messages, alg)
            for j, (position, _) in enumerate(chunk):
                d0, d1 = digests[2 * j], digests[2 * j + 1]
                flipped = int.from_bytes(d0, "big") ^ int.from_bytes(d1, "big")
                hamming = flipped.bit_count()
                records[label].append(TrialRecord(
                    trial_id=row + j,
                    position=position,
                    alg=alg,
                    hamming=hamming,
                    bitflip_rate=hamming / alg.bits,
                    delta_entropy=shannon_entropy(d1) - shannon_entropy(d0),
                    flip_vector=flipped.to_bytes(alg.out_len, "big"),
                ))
        row += len(chunk)
    return {
        label: (records[label], BitMatrix.from_flip_vectors(
            [r.flip_vector for r in records[label]]))
        for label in labels
    }


def trial_summary(records: Iterable[TrialRecord]) -> dict:
    """Mean avalanche metrics over a batch of trial records."""
    records = list(records)
    if not records:
        raise DegenerateInput("no trial records to summarize")
    for i, r in enumerate(records):
        _instance(f"records[{i}]", TrialRecord, r)
    return {
        "trials": len(records),
        "digest_bits": records[0].alg.bits,
        "mean_hamming": fmean(r.hamming for r in records),
        "mean_bitflip_rate": fmean(r.bitflip_rate for r in records),
        "mean_delta_entropy": fmean(r.delta_entropy for r in records),
        "mean_abs_delta_entropy": fmean(
            abs(r.delta_entropy) for r in records),
    }
