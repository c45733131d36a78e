"""Symbolic walks on the integer lattice driven by contractive affine maps.

Each step applies a freshly sampled 2x2 affine map plus bounded noise to the
current point and floors the result back onto the lattice. Maps are rescaled
so their spectral norm lands in [rho_min, rho_max] with rho_max < 1, which
keeps every trajectory inside a region whose radius has a closed form; see
lattice_bound. A walk that somehow leaves that region aborts with
BoundsExceeded rather than wrapping or clamping, so downstream key
derivation only ever sees faithful trajectories.

All randomness is drawn from keyed streams (see rng): step i of a walk uses
the stream (seed, 0, i), so any step can be regenerated without replaying
the others. Draw order within a step is fixed and documented in
sample_affine_step; it is part of the reproducibility contract.

Because the streams are counter-based, walks draw their steps as columns:
_step_table computes every step of a block at once, for a group of walks
that differ only in seed, with numpy uint64 arithmetic (rng.stream_keys
and friends) and gives the same values as the per-step streams. The floor
recurrence then runs the block's segments as numpy lanes, the lanes of
every walk of the group in one pass, iterated to the fixed point where
each lane starts where the one before it ends (see _lane_rows). A walk
whose lanes reach it keeps its lane rows if they lie within its bound;
otherwise, and for blocks of fewer than _LANE_MIN steps over the group,
the scalar loop runs that walk's block alone and raises that walk's
BoundsExceeded. _walks yields walks stepped _GROUP at a time, over rows
it then freezes and marks as its own (Trajectory._walked): generate_walk
takes the first of one, and diffusion.run_avalanche walks its trials
through it. A re-evolve tail (_replay) of a marked walk runs the scalar
steps until it rejoins the walk and keeps the walk's rows from there;
_evolve replays any other tail whole. The output bytes depend neither on
the grouping nor on the block size, which shrinks as a group grows
(_block). The scalar functions (Stream, sample_affine_step,
affine_step_for, map_templates, step) are the reference the tables and
lanes are tested against, and they fill in the rare steps whose matrix
draw is rejected.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BoundsExceeded, ConfigError, GeneratorFailure
from .rng import Stream, stream_keys, u64_draws, uniform_draws

_SQRT2 = math.sqrt(2.0)

# Substream ids under one seed, for walks and for diffusion.trial_seed.
_SUB_STEP = 0
_SUB_TEMPLATE = 1
_SUB_CHOICE = 2
_SUB_TRIAL = 3

# A uniform draw of matrix entries is rejected when its spectral norm is
# this small (probability ~0, but rescaling would divide by it).
_SIGMA_FLOOR = 1e-12
_RESAMPLE_LIMIT = 64

# Largest lattice_bound a config may have: every integer up to 2^53 is exact
# in float64, so step evaluates and floors coordinates without rounding.
MAX_COORD = 2**53

# Most points a walk (n + 1 of them) or a synthetic point set may have. At
# 16 bytes a point their arrays stay below numpy's 2**63-byte limit, so one
# too big for the host fails as out of memory, not as a size error.
MAX_POINTS = 2**58

# _evolve's blocks and lanes, set by measurement: the steps a block holds
# over all its walks (its table is 512 KB, 64 bytes a step), the fewest
# steps a walk's block takes (see _block), steps per lane, the fewest
# steps over all its walks at which a block runs faster as lanes than as
# the scalar loop, and the passes after which a block falls back to the
# scalar loop (bounding the cost when lanes do not coalesce).
_BLOCK = 8192
_BLOCK_MIN = 2048
_SEGMENT = 16
_LANE_MIN = 512
_PASSES = 4

# Walks that _walks steps together. At n=2000 a walk took 0.63-0.68 ms in
# groups of 6 to 12, 1.6-1.7 ms alone and 0.72-0.76 ms in groups of 16,
# whose lanes fall out of cache; a group's table holds 64 bytes a step a
# walk.
_GROUP = 8

# Steps in which a re-evolve replay (_replay) must rejoin its walk; at the
# default config it does after a median of 2, at most 10 and 14 in the
# first 200 avalanche-reevolve benchmark trials at seeds 1 and 7877, and at
# most 15 in the first 2,000 at seed 1.
_REJOIN = 16


class LatticePoint(NamedTuple):
    """A point of the integer lattice Z^2."""

    x: int
    y: int


def _shown(value) -> str:
    """repr(value) for an error message, or what value is where repr
    fails, as it does for an int of more than 4,300 digits."""
    try:
        return repr(value)
    except Exception:  # a message about a bad value must still be made
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__}"


def _instance(name: str, cls: type, value) -> None:
    """TypeError naming name unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got "
                        f"{type(value).__name__}")


def _integer(name: str, value, lo: int | None = None,
             hi: int | None = None) -> int:
    """value as a Python int, with lo <= value (< hi if hi is given) if lo
    is given; ConfigError naming name otherwise, also for a bool or a float."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
    value = operator.index(value)
    if hi is None and lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {_shown(value)}")
    if hi is not None and not lo <= value < hi:
        top = f"2**{hi.bit_length() - 1}" if hi & (hi - 1) == 0 else hi
        raise ConfigError(
            f"{name} must satisfy {lo} <= {name} < {top}, got {_shown(value)}")
    return value


def _int_pair(name: str, value) -> tuple[int, int]:
    """value, a pair of integers, as two Python ints."""
    try:
        x, y = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair of integers, got "
                          f"{_shown(value)}") from None
    return _integer(name, x), _integer(name, y)


def _real(name: str, value) -> float:
    """value, a finite real number, as a Python float; ConfigError naming
    name otherwise, also for a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {_shown(value)}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int or a Fraction past the float range
        pass
    raise ConfigError(f"{name} must be finite, got {_shown(value)}")


def _member(name: str, enum: type[Enum], value) -> Enum:
    """value, a member of enum or its value, as the member; ConfigError
    naming name and the choices otherwise."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(m.value for m in enum)
        raise ConfigError(
            f"{name} must be one of: {choices}; got {_shown(value)}") from None


def _checked_xy(points) -> np.ndarray:
    """Integer (x, y) pairs as an (m, 2) int64 array, points itself if it
    is one: TypeError for floats, bools or integers past int64, ValueError
    for another shape; an empty input is (0, 2)."""
    xy = np.asarray(points)
    if not xy.size:
        return np.empty((0, 2), dtype=np.int64)
    if xy.dtype == np.bool_ or not np.can_cast(xy.dtype, np.int64):
        raise TypeError(f"points must be int64 integers, got {xy.dtype}")
    if xy.shape[1:] != (2,):
        raise ValueError(f"points must have shape (m, 2), got {xy.shape}")
    return xy.astype(np.int64, copy=False)


class AffineStep(NamedTuple):
    """One realized step: matrix entries, translation, and noise offsets."""

    a11: float
    a12: float
    a21: float
    a22: float
    b1: float
    b2: float
    d1: float
    d2: float


class MapMode(Enum):
    """How step maps are chosen along a walk.

    PER_STEP_FRESH samples a brand new map every step. FIXED_SET pre-draws
    map_count (matrix, translation) templates from the seed and picks one
    uniformly per step; only the noise offsets stay per-step fresh. The
    second mode realizes a finite-alphabet walk: its n steps spell one of
    map_count ** n template sequences.
    """

    PER_STEP_FRESH = "per-step-fresh"
    FIXED_SET = "fixed-set"


@dataclass(frozen=True)
class WalkConfig:
    """Everything needed to regenerate a walk exactly.

    rho_min/rho_max bound the spectral norm of each step's matrix,
    b_min/b_max bound both translation components, epsilon bounds each
    noise component, n is the number of steps, and seed, in [0, 2**64),
    keys every random stream. map_count is required in FIXED_SET mode and
    must be absent otherwise. A config is checked when it is made, also by
    dataclasses.replace, so one that exists is valid (ConfigError if not),
    its integer fields Python ints, its real fields Python floats, x0 a
    LatticePoint and map_mode a MapMode (its value string is taken too).
    """

    x0: LatticePoint = LatticePoint(0, 0)
    rho_min: float = 0.5
    rho_max: float = 0.95
    b_min: float = -100.0
    b_max: float = 100.0
    epsilon: float = 0.5
    n: int = 2000
    seed: int = 0
    map_mode: MapMode = MapMode.PER_STEP_FRESH
    map_count: int | None = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # the dataclass is frozen
        set_(self, "x0", LatticePoint(*_int_pair("x0", self.x0)))
        set_(self, "n", _integer("n", self.n, 1, MAX_POINTS))
        # streams reduce the seed modulo 2**64, so a wider one would alias
        set_(self, "seed", _integer("seed", self.seed, 0, 2**64))
        for name in ("rho_min", "rho_max", "b_min", "b_max", "epsilon"):
            set_(self, name, _real(name, getattr(self, name)))
        set_(self, "map_mode", _member("map_mode", MapMode, self.map_mode))
        if not 0.0 < self.rho_min <= self.rho_max:
            raise ConfigError(
                f"rho_min must satisfy 0 < rho_min <= rho_max, got "
                f"rho_min={self.rho_min!r} rho_max={self.rho_max!r}")
        if not self.rho_max < 1.0:
            raise ConfigError(
                f"rho_max must be < 1 for the boundedness guarantee, "
                f"got {self.rho_max!r}")
        if not self.b_min <= self.b_max:
            raise ConfigError(
                f"b_min must be <= b_max, got b_min={self.b_min!r} "
                f"b_max={self.b_max!r}")
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.map_mode is MapMode.FIXED_SET:
            # a step chooses its template with one 64-bit draw, so a
            # template past 2**64 could never be chosen
            set_(self, "map_count",
                 _integer("map_count", self.map_count, 1, 2**64))
        elif self.map_count is not None:
            raise ConfigError("map_count only applies to fixed-set mode")
        try:
            bound = lattice_bound(self)
        except OverflowError:  # x0 or the reach is too large for a float
            bound = math.inf
        if bound > MAX_COORD:
            raise ConfigError(
                f"lattice_bound {bound} exceeds 2**53 (coordinates would not "
                f"be exact in float64); shrink x0, b_min, b_max, epsilon or "
                f"1 / (1 - rho_max)")


@dataclass(frozen=True)
class Trajectory:
    """An ordered walk x_0..x_n together with the config that produced it.

    xy is a read-only (n+1, 2) int64 array, row i holding x_i. The
    constructor takes any sequence of integer points or an (m, 2) integer
    array and copies it, so a trajectory never shares memory with its input;
    it holds x_0 at least (ValueError if xy is empty), and config must be a
    WalkConfig (TypeError if not).
    """

    xy: np.ndarray
    config: WalkConfig
    # whether _walks made it, so its rows follow config's steps; unannotated:
    # no field, so replace() never copies it, and __getstate__ drops it
    _walked = False

    def __post_init__(self) -> None:
        _instance("config", WalkConfig, self.config)
        xy = _checked_xy(self.xy).copy()
        if not len(xy):
            raise ValueError("xy must hold x_0 at least, got no points")
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    @classmethod
    def _adopt(cls, xy: np.ndarray, config: WalkConfig,
               walked: bool = False) -> Trajectory:
        """A trajectory over xy itself, an (n+1, 2) int64 array its caller
        made and no longer writes: unlike the constructor, no copy."""
        xy.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "xy", xy)
        object.__setattr__(t, "config", config)
        object.__setattr__(t, "_walked", walked)
        return t

    def __getstate__(self) -> dict:
        # copy and pickle: a copy's rows may be written, so it is unmarked
        return {"xy": self.xy, "config": self.config}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.config == other.config \
            and np.array_equal(self.xy, other.xy)

    def __hash__(self) -> int:
        return hash((self.xy.tobytes(), self.config))

    @property
    def n(self) -> int:
        return len(self.xy) - 1

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        """The points as LatticePoint objects; builds a tuple on each call."""
        return tuple(map(LatticePoint._make, self.xy.tolist()))


def _spectral_norm(a11: float, a12: float, a21: float, a22: float) -> float:
    # Largest singular value, closed form: with T the sum of squared
    # entries and D the determinant, sigma = (sqrt(T+2|D|)+sqrt(T-2|D|))/2.
    t = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    d2 = 2.0 * abs(a11 * a22 - a12 * a21)
    return 0.5 * (math.sqrt(t + d2) + math.sqrt(max(t - d2, 0.0)))


# _spectral_norms' constant operands, as 0-d arrays: numpy would convert a
# Python float on every call.
_ZERO, _HALF, _TWO = np.array(0.0), np.array(0.5), np.array(2.0)


def _spectral_norms(a11: np.ndarray, a12: np.ndarray, a21: np.ndarray,
                    a22: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """_spectral_norm of each lane, in the same expression order, written
    into scratch[0] of a (3, *a11.shape) float64 scratch."""
    sigma, d2, low = scratch
    np.multiply(a11, a11, out=sigma)
    sigma += np.multiply(a12, a12, out=d2)
    sigma += np.multiply(a21, a21, out=d2)
    sigma += np.multiply(a22, a22, out=d2)
    np.multiply(a11, a22, out=d2)
    d2 -= np.multiply(a12, a21, out=low)
    np.abs(d2, out=d2)
    d2 *= _TWO
    np.subtract(sigma, d2, out=low)
    np.sqrt(np.maximum(low, _ZERO, out=low), out=low)
    np.sqrt(np.add(sigma, d2, out=sigma), out=sigma)
    sigma += low
    sigma *= _HALF
    return sigma


def _draw_map(stream: Stream, config: WalkConfig) -> tuple[float, ...]:
    """Draw (a11, a12, a21, a22, b1, b2) in the normative order.

    Matrix entries come first (uniform in [-1, 1], redrawn as a block while
    nearly singular in norm), then the contraction target rho, then the two
    translation components.
    """
    for _ in range(_RESAMPLE_LIMIT):
        e11 = stream.uniform(-1.0, 1.0)
        e12 = stream.uniform(-1.0, 1.0)
        e21 = stream.uniform(-1.0, 1.0)
        e22 = stream.uniform(-1.0, 1.0)
        sigma = _spectral_norm(e11, e12, e21, e22)
        if sigma > _SIGMA_FLOOR:
            break
    else:
        raise GeneratorFailure(
            f"{_RESAMPLE_LIMIT} degenerate matrix draws in a row")
    scale = stream.uniform(config.rho_min, config.rho_max) / sigma
    return (
        e11 * scale, e12 * scale, e21 * scale, e22 * scale,
        stream.uniform(config.b_min, config.b_max),
        stream.uniform(config.b_min, config.b_max),
    )


def sample_affine_step(stream: Stream, config: WalkConfig) -> AffineStep:
    """Sample a full step from the given stream.

    Draw order: matrix entries, rho, b1, b2, d1, d2. The noise draws are
    consumed even when epsilon is 0 so stream positions never depend on
    config values.
    """
    _instance("stream", Stream, stream)
    _instance("config", WalkConfig, config)
    return _with_noise(_draw_map(stream, config), stream, config)


def _with_noise(maps: tuple[float, ...], stream: Stream,
                config: WalkConfig) -> AffineStep:
    """maps, a _draw_map result, with noise d1 then d2 drawn from stream."""
    eps = config.epsilon
    d1 = stream.uniform(-eps, eps)
    d2 = stream.uniform(-eps, eps)
    return AffineStep(*maps, d1, d2)


def map_templates(config: WalkConfig) -> tuple[tuple[float, ...], ...] | None:
    """The pre-drawn (matrix, translation) templates for FIXED_SET mode.

    Template j comes from the stream (seed, 1, j) using the same draw order
    as sample_affine_step minus the noise. Returns None in PER_STEP_FRESH
    mode.
    """
    _instance("config", WalkConfig, config)
    if config.map_mode is not MapMode.FIXED_SET:
        return None
    return tuple(
        _draw_map(Stream(config.seed, _SUB_TEMPLATE, j), config)
        for j in range(config.map_count))


def affine_step_for(config: WalkConfig, i: int) -> AffineStep:
    """The step taken at index i (1-based), regenerated from the seed alone.

    In FIXED_SET mode only the chosen template is drawn.
    """
    _instance("config", WalkConfig, config)
    i = _integer("i", i)
    if config.map_mode is MapMode.PER_STEP_FRESH:
        return sample_affine_step(Stream(config.seed, _SUB_STEP, i), config)
    stream = Stream(config.seed, _SUB_CHOICE, i)
    j = stream.below(config.map_count)
    maps = _draw_map(Stream(config.seed, _SUB_TEMPLATE, j), config)
    return _with_noise(maps, stream, config)


def step(x: LatticePoint, s: AffineStep,
         bound: int | None = None) -> LatticePoint:
    """Apply one affine step and floor back onto the lattice.

    The float expression is evaluated in this fixed order (products left to
    right, then translation, then noise); together with the fixed draw
    order this makes trajectories bit-reproducible across platforms. When
    bound is given, a coordinate outside [-bound, bound] aborts the walk.
    """
    _instance("x", LatticePoint, x)
    _instance("s", AffineStep, s)
    fx = s.a11 * x.x + s.a12 * x.y + s.b1 + s.d1
    fy = s.a21 * x.x + s.a22 * x.y + s.b2 + s.d2
    nx = math.floor(fx)
    ny = math.floor(fy)
    if bound is not None and (nx > bound or nx < -bound
                              or ny > bound or ny < -bound):
        raise _outside(nx, ny, bound)
    return LatticePoint(nx, ny)


def _outside(nx: int, ny: int, bound: int) -> BoundsExceeded:
    return BoundsExceeded(
        f"walk reached ({nx}, {ny}), outside the safe region "
        f"[-{bound}, {bound}]^2")


def lattice_bound(config: WalkConfig) -> int:
    """Radius of the square region a walk under config may not leave.

    A contraction with norm rho <= rho_max moves any point toward a ball
    whose radius, the reach, is the max step offset over (1 - rho_max):
    translation up to |b|*sqrt(2), noise up to epsilon*sqrt(2), plus sqrt(2)
    for the floor. The start point's sup norm plus the reach, rounded up, is
    proven only where hypot(x0) <= that sum, as for x0 = (0, 0) and every
    golden case (ROADMAP item 2). Crossing it raises BoundsExceeded.
    TypeError if config is not a WalkConfig.
    """
    _instance("config", WalkConfig, config)
    b_abs = max(abs(config.b_min), abs(config.b_max))
    reach = (b_abs * _SQRT2 + config.epsilon * _SQRT2 + _SQRT2) \
        / (1.0 - config.rho_max)
    start = max(abs(config.x0.x), abs(config.x0.y))
    return math.ceil(start + reach)


def _map_columns(config: WalkConfig, keys: np.ndarray,
                 table: np.ndarray) -> np.ndarray:
    """_draw_map on every stream key at once.

    Writes a11 a12 a21 a22 b1 b2 into table[:6] of an (8, *keys.shape)
    table and returns the mask of lanes whose first matrix draw is
    rejected; _draw_map redraws those, which moves every later draw, so
    the caller refills their steps. Each run of draws with the same bounds
    is one uniform_draws pass, whose scratch words are columns not yet
    drawn: draws 1-4 go into columns 0-3 (scratch 4-7), the norms into
    column 4 (scratch 5-6), draw 5 (rho) into column 7 (scratch 5), and
    draws 6-7 into columns 4-5 (scratch 6-7). So the only temporaries are
    each pass's D offsets and the mask.
    """
    words = table.view(np.uint64)
    uniform_draws(keys, 1, -1.0, 1.0, table[:4], words[4:])
    sigma = _spectral_norms(*table[:4], table[4:7])
    rejected = sigma <= _SIGMA_FLOOR
    scale = uniform_draws(keys, 5, config.rho_min, config.rho_max, table[7],
                          words[5])
    table[:4] *= np.divide(scale, sigma, scale)
    uniform_draws(keys, 6, config.b_min, config.b_max, table[4:6], words[6:])
    return rejected


def _step_table(configs: Sequence[WalkConfig], lo: int,
                hi: int) -> np.ndarray:
    """The steps lo <= i < hi of walks whose configs differ only in seed,
    as (8, len(configs), hi - lo) float64 columns a11 a12 a21 a22 b1 b2 d1
    d2: column [:, g, k] equals affine_step_for(configs[g], lo + k).

    In FIXED_SET mode each step draws only the template it chooses, so the
    cost follows the steps, not map_count. Each run of draws is made in
    place, in one pass over its columns (four passes in either mode), and
    the steps of a walk's column are one contiguous run. Beside the table
    and the keys, the noise pass's scratch (two words a step) is its
    largest temporary.
    """
    config = configs[0]
    seeds = [c.seed for c in configs]
    table = np.empty((8, len(seeds), hi - lo))
    if config.map_mode is MapMode.PER_STEP_FRESH:
        keys = stream_keys(seeds, (_SUB_STEP,), np.arange(lo, hi))
        rejected = _map_columns(config, keys, table)
        d1_draw = 8
    else:
        keys = stream_keys(seeds, (_SUB_CHOICE,), np.arange(lo, hi))
        # the choices and their scratch in columns _map_columns draws later
        words = table.view(np.uint64)
        choice = u64_draws(keys, 1, words[7], words[6])
        choice %= np.uint64(config.map_count)
        rejected = _map_columns(
            config, stream_keys(seeds, (_SUB_TEMPLATE,), choice), table)
        d1_draw = 2
    uniform_draws(keys, d1_draw, -config.epsilon, config.epsilon, table[6:8])
    for g, k in zip(*np.nonzero(rejected)):
        table[:, g, k] = affine_step_for(configs[g], lo + k)
    return table


def _floor_step(ax: np.ndarray, ay: np.ndarray, b: np.ndarray,
                d: np.ndarray, px: np.ndarray, py: np.ndarray,
                out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """np.floor(ax * px + ay * py + b + d) into out: step's expression with
    one float64 ufunc per operation and no fused multiply-add, so it rounds
    exactly as step does (integer coordinates up to 2^53 convert exactly).
    """
    np.multiply(ax, px, out)
    np.multiply(ay, py, tmp)
    np.add(out, tmp, out)
    np.add(out, b, out)
    np.add(out, d, out)
    return np.floor(out, out)


def _lane_rows(table: np.ndarray,
               x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows x_1..x_m each walk g reaches by stepping from x[g] through
    the m steps of table[:, g] (m a multiple of _SEGMENT), as (G, m, 2)
    float64 for a contiguous (8, G, m) table and (G, 2) starts, and
    chained, a (G,) bool array: whether each lane j + 1 of walk g starts,
    after the last pass, exactly where lane j ends.

    Lane j of a walk holds steps j*_SEGMENT .. (j+1)*_SEGMENT - 1; a pass
    runs step t of every lane of every walk in one _floor_step call. Lane
    0 starts from its walk's x, the others from x as a guess, and each pass
    restarts lane j+1 from the end lane j reached in the pass before. The
    maps contract, so a restarted lane soon lands on a point of its
    previous pass and follows it from there. From the second pass on, the
    passes stop at the first step where every lane is back on its previous
    rows, and they stop after _PASSES passes in any case.

    A chained walk's rows are its recurrence. Lane 0 starts from the true
    x, and every lane's rows of the last pass were stepped by _floor_step
    (which rounds as step does) from that lane's own start; at an early
    break, the rows not yet rewritten are the previous pass's, stepped
    from the row the break found unchanged. Only the bound is unchecked.
    """
    walks, m = table.shape[1:]
    seg = _SEGMENT
    lanes = m // seg
    # step t of every lane as _floor_step's (2, walks, lanes) arguments:
    # the column pairs (a11, a21), (a12, a22), (b1, b2) and (d1, d2) of its
    # maps, the points it starts from (at[t]) and the points it reaches
    # (at[t + 1])
    steps = np.moveaxis(table.reshape(8, walks, lanes, seg), -1, 0)
    at = np.empty((seg + 1, 2, walks, lanes))
    at[:] = x.T[:, :, None]  # the true starts, and the guess lanes start from
    calls = list(zip(steps[:, 0:4:2], steps[:, 1:4:2], steps[:, 4:6],
                     steps[:, 6:8], at[:-1, 0], at[:-1, 1], at[1:]))
    new, tmp = np.empty((2, 2, walks, lanes))
    for k in range(_PASSES * seg):
        ax, ay, b, d, px, py, out = calls[k % seg]
        if k % seg == 0:  # a pass restarts lane j + 1 where lane j ended
            at[0, ..., 1:] = at[seg, ..., :-1]
        _floor_step(ax, ay, b, d, px, py, new, tmp)
        # equal bits: every lane is back on its previous rows
        if k >= seg and new.tobytes() == out.tobytes():
            break
        out[...] = new
    chained = (at[0, ..., 1:] == at[seg, ..., :-1]).all(axis=(0, 2))
    # row j * seg + t of walk g is at[1 + t, :, g, j]; reshape copies
    return at[1:].transpose(2, 3, 0, 1).reshape(walks, m, 2), chained


def _scalar_rows(table: np.ndarray, x: LatticePoint,
                 bound: int) -> np.ndarray:
    """The points reached by stepping from x through the m steps of an
    (8, m) table one at a time, each step(x, column, bound) with Python
    floats and ints, as an (m, 2) int64 array."""
    floor = math.floor
    px, py = x
    out: list[int] = []
    append = out.append
    for a11, a12, a21, a22, b1, b2, d1, d2 in zip(*table.tolist()):
        nx = floor(a11 * px + a12 * py + b1 + d1)
        ny = floor(a21 * px + a22 * py + b2 + d2)
        if nx > bound or nx < -bound or ny > bound or ny < -bound:
            raise _outside(nx, ny, bound)
        append(nx)
        append(ny)
        px, py = nx, ny
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _block(walks: int) -> int:
    """Steps per block of _evolve for a group of this many walks: _BLOCK
    shared among them, a multiple of _SEGMENT, but at least _BLOCK_MIN.
    A lone walk takes 8192 steps a block, so a fractal sweep's n=5000
    walk pays the fixed cost of one table and one set of lane passes; a
    group of 4 or more keeps 2048 steps a walk, the size its lanes are
    timed at (see _GROUP), and so its memory."""
    return max(_BLOCK // walks // _SEGMENT * _SEGMENT, _BLOCK_MIN)


def _evolve(configs: Sequence[WalkConfig], xy: np.ndarray,
            first: int) -> list[BoundsExceeded | None]:
    """Step walks whose configs differ only in seed on from row 0 of xy, a
    (G, k + 1, 2) int64 array holding each walk's x_(first-1): fills rows
    1..k of xy[g] with x_first..x_(first+k-1) of walk g.

    Each step is step(x, affine_step_for(config, i), bound) with the maps
    read from _step_table a block of _block(G) steps at a time, one table
    for all walks; a block's table and lane rows are dropped before the
    next block's are made. A block of _LANE_MIN steps or more over all
    its walks runs every walk's lanes in one _lane_rows call, and keeps a
    walk's rows only if its lanes chain and every row lies within
    lattice_bound; any other block, or a walk whose lanes fail, runs the
    scalar loop from the walk's exact start.
    Returns the BoundsExceeded that stopped each walk, or None; a stopped
    walk's later rows repeat its last start.
    """
    bound = lattice_bound(configs[0])
    end = first + xy.shape[1] - 1
    block = _block(len(configs))
    errors: list[BoundsExceeded | None] = [None] * len(configs)
    for lo in range(first, end, block):
        m = min(block, end - lo)
        lanes = len(configs) * m >= _LANE_MIN
        table = rows = None  # the last block's, freed before this one's
        # lanes take whole segments: a short last one runs on past the block
        table = _step_table(
            configs, lo, lo + (-(-m // _SEGMENT) * _SEGMENT if lanes else m))
        x = xy[:, lo - first]
        rows, chained = _lane_rows(table, x) if lanes else (None, None)
        table = table[..., :m]
        for g, out in enumerate(xy[:, lo - first + 1:lo - first + m + 1]):
            if errors[g]:
                out[...] = x[g]  # defined rows for the lanes that follow
            elif lanes and chained[g] \
                    and (np.abs(rows[g, :m]) <= bound).all():
                out[...] = rows[g, :m]
            else:
                try:
                    out[...] = _scalar_rows(
                        table[:, g], LatticePoint(*x[g].tolist()), bound)
                except BoundsExceeded as exc:
                    errors[g] = exc
                    out[...] = x[g]
    return errors


def _walks(configs: Iterable[WalkConfig]
           ) -> Iterator[Trajectory | BoundsExceeded]:
    """The walks x_0..x_n of configs that differ only in seed, in order,
    stepped by _evolve _GROUP at a time: each a Trajectory marked as a
    walk (Trajectory._walked), or the BoundsExceeded that stopped it. A
    group's rows are frozen once stepped, so no walk's rows can be made
    writeable again, and a group's configs and rows are made only when its
    first walk is due.
    """
    configs = iter(configs)
    while group := list(islice(configs, _GROUP)):
        xy = np.empty((len(group), group[0].n + 1, 2), dtype=np.int64)
        xy[:, 0] = group[0].x0
        errors = _evolve(group, xy, 1)
        xy.flags.writeable = False
        for exc, rows, config in zip(errors, xy, group):
            yield exc or Trajectory._adopt(rows, config, walked=True)


def _replay(config: WalkConfig, xy: np.ndarray, i: int,
            walked: bool) -> None:
    """Rewrite rows i+1.. of xy, the rows of a trajectory under config in
    all but row i, as the rows reached by stepping on from xy[i].

    If walked (the rows are a walk's from _walks, which follow config's
    steps), up to _REJOIN steps run as step(x, affine_step_for(config, k),
    bound), stopping at the first row k the replay shares with xy: step
    k + 1 depends only on the seed, k and that row, so from there the
    replay would retrace xy, and xy's rows are kept as they are. A tail of
    at most _REJOIN steps ends in the loop. Any other trajectory, and a
    walk that does not rejoin, has its whole tail replayed by _evolve.
    """
    last = len(xy) - 1
    if walked:
        bound = lattice_bound(config)
        x = LatticePoint(*xy[i].tolist())
        for k in range(i + 1, min(i + _REJOIN, last) + 1):
            x = step(x, affine_step_for(config, k), bound)
            if list(x) == xy[k].tolist():  # the replay's row k is xy's
                return
            xy[k] = x
        if last - i <= _REJOIN:
            return
    (exc,) = _evolve([config], xy[None, i:], i + 1)
    if exc:
        raise exc


def generate_walk(config: WalkConfig) -> Trajectory:
    """Generate the full trajectory x_0..x_n of config."""
    _instance("config", WalkConfig, config)
    walk = next(_walks([config]))
    if isinstance(walk, BoundsExceeded):
        raise walk
    return walk

