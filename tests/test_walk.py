"""Walk module: sampling contract, step semantics, bounds, determinism."""

import hashlib
import json
import math
import random
import re
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from walkhash import (
    AffineStep,
    BoundsExceeded,
    ConfigError,
    LatticePoint,
    MapMode,
    Trajectory,
    WalkConfig,
    affine_step_for,
    generate_walk,
    lattice_bound,
    map_templates,
    sample_affine_step,
    step,
)
from walkhash import walk
from walkhash.rng import Stream, stream_keys


def _step_oracle(x: LatticePoint, s: AffineStep) -> LatticePoint:
    """Exact rational evaluation of the step expression, then floor."""
    fx = Fraction(s.a11) * x.x + Fraction(s.a12) * x.y \
        + Fraction(s.b1) + Fraction(s.d1)
    fy = Fraction(s.a21) * x.x + Fraction(s.a22) * x.y \
        + Fraction(s.b2) + Fraction(s.d2)
    return LatticePoint(math.floor(fx), math.floor(fy))


# ----------------------------------------------------------- spectral norm

def test_spectral_norm_known_matrices():
    assert walk._spectral_norm(3, 0, 0, 1) == pytest.approx(3.0, abs=1e-12)
    c, s = math.cos(0.3), math.sin(0.3)
    assert walk._spectral_norm(c, -s, s, c) == pytest.approx(1.0, abs=1e-12)
    # rank-1 all-ones matrix has singular values (2, 0)
    assert walk._spectral_norm(1, 1, 1, 1) == pytest.approx(2.0, abs=1e-12)


def test_spectral_norms_equal_the_scalar_norm_on_rotations():
    # equal singular values: T - 2|D| rounds below 0 at some angles, where
    # both forms must clamp it before the square root
    angles = np.linspace(0.0, 3.0, 1001)
    c, s = np.cos(angles), np.sin(angles)
    assert (c * c + s * s + s * s + c * c
            < 2.0 * np.abs(c * c + s * s)).any()
    got = walk._spectral_norms(c, -s, s, c, np.empty((3, len(angles))))
    assert got.tolist() == [walk._spectral_norm(*m) for m in zip(
        c.tolist(), (-s).tolist(), s.tolist(), c.tolist())]


def test_rescaling_forces_requested_norm():
    config = WalkConfig(rho_min=0.5, rho_max=0.5)
    for seed in range(20):
        s = sample_affine_step(Stream(seed, 0, 1), config)
        assert walk._spectral_norm(*s[:4]) == pytest.approx(0.5, abs=1e-12)


def test_epsilon_zero_gives_exact_zero_noise():
    config = WalkConfig(epsilon=0.0)
    s = sample_affine_step(Stream(11, 0, 1), config)
    assert s.d1 == 0.0 and s.d2 == 0.0


def test_sample_bounds_small_batch():
    config = WalkConfig(b_min=-3.0, b_max=7.0, epsilon=0.25)
    for i in range(500):
        s = affine_step_for(config, i + 1)
        assert config.rho_min - 1e-9 <= walk._spectral_norm(*s[:4]) \
            <= config.rho_max + 1e-9
        assert -3.0 <= s.b1 <= 7.0 and -3.0 <= s.b2 <= 7.0
        assert -0.25 <= s.d1 <= 0.25 and -0.25 <= s.d2 <= 0.25


def test_rho_distribution_one_million_samples():
    # Monte-Carlo check of the sampler's documented distribution: recovered
    # spectral norms stay inside [0.5, 0.95] to 1e-9 and their empirical
    # CDF is uniform on that band (KS statistic < 0.01). The samples are
    # _step_table columns, whose steps equal affine_step_for's
    # (spot-checked here against the scalar sampler).
    config = WalkConfig(seed=999)
    count = 1_000_000
    block = 100_000
    spots = random.Random(999).sample(range(count), 1000)
    norms = np.empty(count)
    for lo in range(0, count, block):
        table = walk._step_table([config], lo, lo + block)[:, 0]
        norms[lo:lo + block] = walk._spectral_norms(*table[:4],
                                                    np.empty((3, block)))
        for i in spots:
            if lo <= i < lo + block:
                s = sample_affine_step(Stream(999, 0, i), config)
                assert tuple(table[:, i - lo].tolist()) == tuple(s)
                assert norms[i] == walk._spectral_norm(*s[:4])
    assert norms.min() >= 0.5 - 1e-9
    assert norms.max() <= 0.95 + 1e-9
    norms.sort()
    width = 0.95 - 0.5
    cdf = (norms - 0.5) / width
    ranks = np.arange(count)
    ks = max(np.abs((ranks + 1) / count - cdf).max(),
             np.abs(cdf - ranks / count).max())
    assert ks < 0.01


# ----------------------------------------------------------------- step()

def test_step_translation_floor():
    s = AffineStep(0, 0, 0, 0, 3.7, -2.2, 0, 0)
    assert step(LatticePoint(0, 0), s) == LatticePoint(3, -3)


def test_step_exact_halving():
    s = AffineStep(0.5, 0, 0, 0.5, 0, 0, 0, 0)
    assert step(LatticePoint(10, 10), s) == LatticePoint(5, 5)


def test_step_pinned_oracle_case():
    s = AffineStep(0.6, -0.2, 0.1, 0.8, 1.5, -0.5, 0.3, -0.3)
    x = LatticePoint(7, -3)
    assert step(x, s) == _step_oracle(x, s) == LatticePoint(6, -3)


def test_step_floors_toward_negative_infinity():
    s = AffineStep(0, 0, 0, 0, -0.5, -0.5, 0, 0)
    assert step(LatticePoint(0, 0), s) == LatticePoint(-1, -1)
    half = AffineStep(0.5, 0, 0, 0.5, 0, 0, 0, 0)
    assert step(LatticePoint(-7, -3), half) == LatticePoint(-4, -2)


def test_step_matches_rational_oracle_batch():
    rng = random.Random(61)
    for _ in range(1000):
        s = AffineStep(*(rng.uniform(-1, 1) for _ in range(4)),
                       rng.uniform(-50, 50), rng.uniform(-50, 50),
                       rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        x = LatticePoint(rng.randrange(-1000, 1000),
                         rng.randrange(-1000, 1000))
        assert step(x, s) == _step_oracle(x, s)


def test_step_bound_aborts_instead_of_wrapping():
    runaway = AffineStep(0, 0, 0, 0, 100.0, 0.0, 0, 0)
    with pytest.raises(BoundsExceeded):
        step(LatticePoint(0, 0), runaway, bound=10)


# --------------------------------------------------------------- walks

def test_single_step_walk_unrolls():
    config = WalkConfig(n=1, epsilon=0.0, seed=77)
    t = generate_walk(config)
    assert len(t.points) == 2
    assert t.points[0] == config.x0
    assert t.points[1] == step(config.x0, affine_step_for(config, 1))


def test_walk_determinism():
    config = WalkConfig(seed=5, n=300)
    assert generate_walk(config).points == generate_walk(config).points


def test_trajectory_is_a_read_only_int64_array():
    source = [[3, -2], [4, 5], [-7, 0]]
    t = Trajectory(source, WalkConfig())
    assert t.xy.dtype == np.int64 and t.xy.shape == (3, 2)
    assert t.n == 2
    assert t.points == (LatticePoint(3, -2), LatticePoint(4, 5),
                        LatticePoint(-7, 0))
    with pytest.raises(ValueError):
        t.xy[0, 0] = 1
    # the constructor copies, so later changes to the source do not leak in
    arr = np.array(source, dtype=np.int64)
    u = Trajectory(arr, WalkConfig())
    arr[0, 0] = 99
    assert u.xy[0, 0] == 3 and arr.flags.writeable
    # coordinates are never rounded or wrapped into int64
    for bad in ([(1.5, 2)], [(2**63, 0)], np.array([[2**63, 0]], np.uint64)):
        with pytest.raises(TypeError, match="int64"):
            Trajectory(bad, WalkConfig())


def test_trajectory_refuses_no_points():
    # an empty trajectory once had n == -1, so geometry ended in a numpy
    # reduction error, perturb asked for positions in [1, -2] and
    # derive_key hashed zero bytes; a walk holds x_0 at least
    for empty in ([], (), np.empty((0, 2))):
        with pytest.raises(ValueError, match="xy"):
            Trajectory(empty, WalkConfig())
    assert Trajectory([(0, 0)], WalkConfig()).n == 0


def test_checked_xy_reads_an_int64_array_in_place():
    xy = np.arange(20, dtype=np.int64).reshape(10, 2)
    assert walk._checked_xy(xy) is xy
    # the fractal sweep's prefix of its longest walk stays a view
    longest = generate_walk(WalkConfig(seed=1, n=50)).xy
    prefix = longest[:11]
    assert walk._checked_xy(prefix) is prefix
    assert walk._checked_xy(xy.astype(np.int32)).dtype == np.int64
    for empty in ([], (), np.empty((0, 2)), np.empty(0, dtype=bool)):
        assert walk._checked_xy(empty).shape == (0, 2)
    # a trajectory still copies
    t = Trajectory(xy, WalkConfig())
    assert not np.shares_memory(t.xy, xy)


def test_trajectory_value_equality():
    config = WalkConfig(seed=3, n=40)
    a, b = generate_walk(config), generate_walk(config)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == Trajectory(a.points, config)
    moved = a.xy.copy()
    moved[7, 1] += 1
    assert a != Trajectory(moved, config)
    assert a != Trajectory(a.xy, replace(config, seed=4))
    assert a != Trajectory(a.xy[:-1], config)
    assert a != a.points


def test_walk_shape_and_start():
    config = WalkConfig(seed=5, n=64, x0=LatticePoint(3, -2))
    t = generate_walk(config)
    assert t.n == 64
    assert len(t.points) == 65
    assert t.points[0] == LatticePoint(3, -2)


def test_bound_invariant_narrow_translations():
    # pinned parameter set with a tight translation band; the analytic
    # bound must hold at full length
    config = WalkConfig(b_min=-10.0, b_max=10.0, n=5000, seed=3)
    bound = lattice_bound(config)
    for p in generate_walk(config).points:
        assert abs(p.x) <= bound and abs(p.y) <= bound


def test_lattice_bound_formula_recomputed():
    for config in (
        WalkConfig(),
        WalkConfig(b_min=-10.0, b_max=10.0),
        WalkConfig(b_min=-2.0, b_max=30.0, epsilon=0.0, rho_max=0.8,
                   x0=LatticePoint(-40, 7)),
    ):
        b_abs = max(abs(config.b_min), abs(config.b_max))
        reach = (b_abs * math.sqrt(2) + config.epsilon * math.sqrt(2)
                 + math.sqrt(2)) / (1.0 - config.rho_max)
        start = max(abs(config.x0.x), abs(config.x0.y))
        assert lattice_bound(config) == math.ceil(start + reach)


def test_seed_sensitivity_at_first_step():
    diverged = 0
    pairs = 1000
    for i in range(pairs):
        a = generate_walk(WalkConfig(seed=2 * i, n=1))
        b = generate_walk(WalkConfig(seed=2 * i + 1, n=1))
        if a.points[1] != b.points[1]:
            diverged += 1
    assert diverged >= 0.99 * pairs


# ----------------------------------------------------------- fixed-set mode

def test_fixed_set_steps_use_templates():
    config = WalkConfig(seed=21, n=200, map_mode=MapMode.FIXED_SET,
                        map_count=4)
    templates = map_templates(config)
    assert templates is not None and len(templates) == 4
    seen = set()
    for i in range(1, config.n + 1):
        s = affine_step_for(config, i)
        body = (s.a11, s.a12, s.a21, s.a22, s.b1, s.b2)
        assert body in templates
        seen.add(templates.index(body))
        assert -config.epsilon <= s.d1 <= config.epsilon
    assert len(seen) > 1  # the seeded choice actually varies


def test_fixed_set_walk_deterministic():
    config = WalkConfig(seed=8, n=120, map_mode=MapMode.FIXED_SET,
                        map_count=3)
    assert generate_walk(config).points == generate_walk(config).points


def test_per_step_fresh_has_no_templates():
    assert map_templates(WalkConfig()) is None


# ------------------------------------------------------------ step tables

def _replay(config, x, first, bound=None):
    """The scalar reference for walk._evolve: one step at a time."""
    bound = lattice_bound(config) if bound is None else bound
    points = []
    for i in range(first, config.n + 1):
        x = step(x, affine_step_for(config, i), bound)
        points.append(x)
    return np.array(points, dtype=np.int64).reshape(-1, 2)


def _random_config(rng, mode, n=None):
    rho_max = rng.choice([0.3, 0.8, 0.95, 0.99, 0.999])
    b = rng.choice([0.0, 1.0, 100.0, 1e9, 1e12])
    b_min, b_max = sorted((rng.uniform(-b, b), rng.uniform(-b, b)))
    return WalkConfig(
        x0=LatticePoint(rng.randint(-500, 500), rng.randint(-500, 500)),
        rho_min=rng.uniform(0.01, rho_max), rho_max=rho_max,
        b_min=b_min, b_max=b_max,
        epsilon=rng.choice([0.0, 0.0, 0.5, 7.25]),
        n=n or rng.choice([1, 2, 3, rng.randint(4, 300)]),
        seed=rng.randrange(2**64), map_mode=mode,
        map_count=rng.randint(1, 12) if mode is MapMode.FIXED_SET else None)


def _columns(rows):
    """(G, m, 8) step rows as the (8, G, m) table _step_table returns."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(rows, float), -1, 0))


def _table_walk(config, x, first, last=None):
    """walk._evolve for one walk: the rows x_first..x_last (last defaults
    to n) stepped on from x = x_(first-1); raises the walk's error."""
    last = config.n if last is None else last
    xy = np.empty((1, last - first + 2, 2), dtype=np.int64)
    xy[0, 0] = x
    (exc,) = walk._evolve([config], xy, first)
    if exc:
        raise exc
    return xy[0, 1:]


def _same_as_replay(config, x, first):
    """walk._evolve equals the scalar replay, also when that raises."""
    try:
        want = _replay(config, x, first)
    except BoundsExceeded as exc:
        with pytest.raises(BoundsExceeded, match=re.escape(str(exc))):
            _table_walk(config, x, first)
        return None
    got = _table_walk(config, x, first)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    return got


def _check_evolve(config, rng):
    """The whole walk equals the scalar replay, and so does a tail started
    at a moved point, as a re-evolve perturbation does."""
    points = _same_as_replay(config, config.x0, 1)
    if points is None:
        return
    assert np.array_equal(generate_walk(config).xy[1:], points)
    first = rng.randint(1, config.n)
    x, y = config.x0 if first == 1 else points[first - 2].tolist()
    start = LatticePoint(x + rng.randint(-3, 3), y + rng.randint(-3, 3))
    _same_as_replay(config, start, first)


@pytest.mark.parametrize("mode", list(MapMode))
def test_step_table_walk_matches_scalar_replay(mode):
    rng = random.Random(f"table-{mode.value}")
    for _ in range(30):
        _check_evolve(_random_config(rng, mode), rng)
    edge = dict(rho_min=0.99, rho_max=0.999, epsilon=0.0, b_min=-1e12,
                b_max=1e12, x0=LatticePoint(-10**6, -37), n=150)
    if mode is MapMode.FIXED_SET:
        edge["map_count"] = 5
    _check_evolve(WalkConfig(map_mode=mode, **edge), rng)


@pytest.mark.parametrize("mode", list(MapMode))
def test_step_table_crosses_block_boundaries(mode):
    rng = random.Random(f"blocks-{mode.value}")
    block = walk._block(1)
    config = _random_config(rng, mode, n=2 * block + 5)
    _check_evolve(config, rng)
    t = generate_walk(config)
    for first in (block, block + 1, block + 2):
        start = LatticePoint(*(t.xy[first - 1] + (1, -1)).tolist())
        tail = _replay(config, start, first)
        assert np.array_equal(_table_walk(config, start, first), tail)
        for last in (first, block + 1, 2 * block + 1):
            assert np.array_equal(_table_walk(config, start, first, last),
                                  tail[:last - first + 1])


def test_step_table_rows_equal_affine_step_for():
    # one table for walks that differ only in seed: column [:, g, k] is
    # walk g's
    config = WalkConfig(seed=99, map_mode=MapMode.FIXED_SET, map_count=6)
    for cfg in (replace(config, map_mode=MapMode.PER_STEP_FRESH,
                        map_count=None), config):
        configs = [replace(cfg, seed=s) for s in (99, 0, 2**64 - 1, 99)]
        table = walk._step_table(configs, 40, 90)
        assert table.shape == (8, 4, 50) and table.dtype == np.float64
        assert table.flags.c_contiguous
        for g, c in enumerate(configs):
            for k, row in enumerate(zip(*table[:, g].tolist())):
                assert row == tuple(affine_step_for(c, 40 + k))


def test_recurrence_keeps_the_evaluation_order_of_step(monkeypatch):
    # from (1, 1) each row floors to 1 in step's order, while any other
    # grouping of a11*x + a12*y + b1 + d1 rounds to 1 - 2**-53 and floors
    # to 0
    below, half = 1 - 2**-53, 2**-54
    rows = [(below, half, below, 0.0, -half, half, 0.0, -half),
            (below, 0.0, below, half, half, -half, -half, 0.0)] * 3
    monkeypatch.setattr(walk, "_step_table",
                        lambda configs, lo, hi:
                        _columns([rows[lo - 1:hi - 1]] * len(configs)))
    config = WalkConfig(x0=LatticePoint(1, 1), n=len(rows))
    x, want = config.x0, []
    for row in rows:
        x = step(x, AffineStep(*row))
        want.append(list(x))
    assert want == [[1, 1]] * len(rows)
    assert _table_walk(config, config.x0, 1).tolist() == want
    # _replay steps rows that are not a walk's with _evolve; a walk's
    # scalar head rejoins at once, so it must not fall back to _evolve
    xy = np.array([[1, 1]] + [[0, 0]] * len(rows))
    walk._replay(config, xy, 0, False)
    assert xy[1:].tolist() == want
    monkeypatch.setattr(walk, "affine_step_for",
                        lambda config, i: AffineStep(*rows[i - 1]))
    monkeypatch.setattr(walk, "_evolve", None)
    walk._replay(config, xy, 0, True)
    assert xy[1:].tolist() == want


def test_fixed_set_draws_only_the_templates_it_uses():
    # map_templates would draw 2**64 - 1 templates; each step, of the table
    # or of affine_step_for, draws only the one it chooses, equal to the
    # scalar template of that index
    config = WalkConfig(seed=12, n=300, map_mode=MapMode.FIXED_SET,
                        map_count=2**64 - 1)
    x, want = config.x0, []
    for i in range(1, config.n + 1):
        s = affine_step_for(config, i)
        j = Stream(config.seed, walk._SUB_CHOICE, i).below(config.map_count)
        assert s[:6] == walk._draw_map(
            Stream(config.seed, walk._SUB_TEMPLATE, j), config)
        x = step(x, s)
        want.append(list(x))
    assert generate_walk(config).xy[1:].tolist() == want


@pytest.mark.parametrize("mode", list(MapMode))
def test_rejected_matrix_draws_fall_back_to_scalar(mode, monkeypatch):
    # a typical draw has spectral norm near 1; at this floor some lanes
    # (templates too) are redrawn, which shifts their later draws
    monkeypatch.setattr(walk, "_SIGMA_FLOOR", 0.6)
    rng = random.Random(f"fallback-{mode.value}")
    config = _random_config(rng, mode, n=400)
    if mode is MapMode.FIXED_SET:
        config = replace(config, map_count=60)
        sub, count = walk._SUB_TEMPLATE, config.map_count
    else:
        sub, count = walk._SUB_STEP, config.n
    keys = stream_keys([config.seed], (sub,), np.arange(count))
    rejected = walk._map_columns(config, keys, np.empty((8, 1, count)))
    assert 0 < rejected.sum() < count
    if mode is MapMode.FIXED_SET:
        # the walk chooses some rejected template, so its refill is checked
        chosen = {Stream(config.seed, walk._SUB_CHOICE, i).below(count)
                  for i in range(1, config.n + 1)}
        assert chosen & set(np.flatnonzero(rejected).tolist())
    _check_evolve(config, rng)


def _table_config(rng, mode):
    """A config biased to the edges of a step table's draws: rho_max up to
    1 - 1e-9, b = epsilon = 0, and map_count 1 or 2**64 - 1."""
    rho_max = rng.choice([0.5, 0.95, 1 - 1e-9])
    b = rng.choice([0.0, 0.0, 100.0])
    b_min, b_max = sorted((rng.uniform(-b, b), rng.uniform(-b, b)))
    return WalkConfig(
        rho_min=rng.choice([rho_max, rng.uniform(0.01, rho_max)]),
        rho_max=rho_max, b_min=b_min, b_max=b_max,
        epsilon=rng.choice([0.0, 0.5]), seed=rng.randrange(2**64),
        map_mode=mode, map_count=rng.choice([1, 7, 2**64 - 1])
        if mode is MapMode.FIXED_SET else None)


@pytest.mark.parametrize("mode", list(MapMode))
def test_step_table_sweep_equals_affine_step_for(mode, monkeypatch):
    # seeded tables of 1 to 9 walks at every edge of a table's draws and
    # sizes, from start indices up to 2**40, against the scalar reference:
    # every row of a short table, and in a longer one each walk's first and
    # last step and 8 more at random. At a floor of 0.6 about 6% of the
    # matrix draws are rejected, and their lanes refilled.
    rng = random.Random(f"table-sweep-{mode.value}")
    short = (1, walk._SEGMENT - 1, walk._SEGMENT, walk._SEGMENT + 1)
    for floor, sizes in ((walk._SIGMA_FLOOR,
                          short + (walk._BLOCK_MIN, walk._block(1))),
                         (0.6, short + (walk._BLOCK_MIN,))):
        monkeypatch.setattr(walk, "_SIGMA_FLOOR", floor)
        for walks in range(1, 10):
            for m in sizes:
                config = _table_config(rng, mode)
                configs = [replace(config, seed=rng.randrange(2**64))
                           for _ in range(walks - 1)] + [config]
                lo = rng.choice([1, rng.randrange(1, 2**40), 2**40 - m])
                table = walk._step_table(configs, lo, lo + m)
                assert table.shape == (8, walks, m)
                if m in short:
                    cells = [(g, k) for g in range(walks) for k in range(m)]
                else:
                    cells = [(g, k) for g in range(walks) for k in (0, m - 1)]
                    cells += [(rng.randrange(walks), rng.randrange(m))
                              for _ in range(8)]
                for g, k in cells:
                    assert tuple(table[:, g, k].tolist()) \
                        == tuple(affine_step_for(configs[g], lo + k))


# SHA-256 of six step tables, one lone walk's block and two groups' (see
# test_step_table_bytes_are_pinned), recorded over (G, m, 8) rows when a
# table took nine one-draw passes; any change to a table byte fails.
_TABLE_PINS = {
    (MapMode.PER_STEP_FRESH, 1):
        "dc9983676f82b4ab80acc968e9132a098f6e0d50e831aa6317e192ce997e602f",
    (MapMode.PER_STEP_FRESH, 3):
        "55c5facf30b245a21dda4e0b9c400c9268395a3e38f3ef78c587d845fc26ecd3",
    (MapMode.PER_STEP_FRESH, 8):
        "308f801c841c9ef33b9f95853ac7dde8f7779de71b3b15d7f0ba8401fdf7d3d1",
    (MapMode.FIXED_SET, 1):
        "1ad0e9a88c3420c19d1eaf0f373c074b8ff94a8adb414055ab386b2dd4e4ffce",
    (MapMode.FIXED_SET, 3):
        "c6a57e00ad0388010fedfb1ad8dd48cd44e1ff9f067a5d1a7f32f9ed6f90c6a3",
    (MapMode.FIXED_SET, 8):
        "7cdafe9208e0cb3f4788e1ebdb806768b9fab3f4a03781ed76d4f09f24237b13",
}


@pytest.mark.parametrize("mode, walks", list(_TABLE_PINS))
def test_step_table_bytes_are_pinned(mode, walks):
    config = WalkConfig(seed=2**64 - 1, epsilon=0.25, map_mode=mode,
                        map_count={1: 16, 3: 2**64 - 1, 8: 1}[walks]
                        if mode is MapMode.FIXED_SET else None)
    configs = [replace(config, seed=(config.seed + g * 1013) % 2**64)
               for g in range(walks)]
    lo = {1: 1, 3: 2**40, 8: 12289}[walks]
    table = walk._step_table(configs, lo, lo + walk._block(walks))
    assert hashlib.sha256(table.transpose(1, 2, 0).tobytes()).hexdigest() \
        == _TABLE_PINS[mode, walks]


@pytest.mark.parametrize("mode", list(MapMode))
def test_table_walk_raises_the_scalar_bounds_error(mode, monkeypatch):
    monkeypatch.setattr(walk, "lattice_bound", lambda config: 40)
    for n in (300, 2 * walk._block(1) + 5):  # the scalar loop, then lanes
        config = _random_config(random.Random(5), mode, n=n)
        config = replace(config, x0=LatticePoint(0, 0), b_min=-100.0,
                         b_max=100.0)
        with pytest.raises(BoundsExceeded) as table_error:
            _table_walk(config, config.x0, 1)
        with pytest.raises(BoundsExceeded) as scalar_error:
            _replay(config, config.x0, 1, bound=40)
        assert str(table_error.value) == str(scalar_error.value)
        assert "outside the safe region [-40, 40]^2" in str(table_error.value)


# ------------------------------------------------------------------ lanes

def _lane_lengths():
    """Walk lengths at every edge of _evolve's lanes for a lone walk: a
    segment, the shortest lane block, a block, and a partial last segment
    and block."""
    seg, low, block = walk._SEGMENT, walk._LANE_MIN, walk._block(1)
    return [seg - 1, seg, seg + 1, low - 1, low, low + 1, block - 1, block,
            block + 1, block + low + 1, 5000]


def _edge_config(rng, mode, n):
    """A valid config, biased to the edges of the domain."""
    while True:
        rho_max = rng.choice([0.5, 0.95, 0.999, 1 - 1e-6, 1 - 1e-9])
        b = rng.choice([0.0, 0.0, 100.0, 1e9, 1e12])
        b_min, b_max = sorted((rng.uniform(-b, b), rng.uniform(-b, b)))
        far = rng.choice([0, 500, 10**6, 10**12])
        try:
            return WalkConfig(
                x0=LatticePoint(rng.randint(-far, far),
                                rng.randint(-far, far)),
                rho_min=rng.uniform(rho_max / 2, rho_max), rho_max=rho_max,
                b_min=b_min, b_max=b_max,
                epsilon=rng.choice([0.0, 0.0, 0.5, 7.25]),
                n=n, seed=rng.randrange(2**64), map_mode=mode,
                map_count=rng.randint(1, 12) if mode is MapMode.FIXED_SET
                else None)
        except ConfigError:  # lattice_bound past 2**53
            continue


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of walk.<name> from here on."""
    calls = []
    inner = getattr(walk, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(walk, name, counted)
    return calls


@pytest.mark.parametrize("mode", list(MapMode))
def test_lane_walk_matches_scalar_replay_at_every_edge(mode):
    rng = random.Random(f"lanes-{mode.value}")
    for n in _lane_lengths():
        for _ in range(2):
            config = _edge_config(rng, mode, n)
            _same_as_replay(config, config.x0, 1)


@pytest.mark.parametrize("mode", list(MapMode))
def test_lanes_reach_their_fixed_point_on_contracting_walks(mode,
                                                            monkeypatch):
    # at the default contraction every block of _LANE_MIN steps or more is
    # kept from the lanes, never replayed by the scalar loop
    scalar = _count_calls(monkeypatch, "_scalar_rows")
    rng = random.Random(f"accepted-{mode.value}")
    for n in (walk._LANE_MIN, 2000, walk._block(1) + walk._LANE_MIN + 3,
              5000):
        config = WalkConfig(n=n, seed=rng.randrange(2**64), map_mode=mode,
                            map_count=5 if mode is MapMode.FIXED_SET
                            else None)
        assert np.array_equal(generate_walk(config).xy[1:],
                              _replay(config, config.x0, 1))
        assert all(table.shape[1] < walk._LANE_MIN
                   for table, *_ in scalar)


def test_lanes_stop_at_the_first_step_of_a_pass_at_their_fixed_point(
        monkeypatch):
    # every map sends every point to (3, -2), so the first pass is exact
    # and the second rejoins it at its first step
    steps = _count_calls(monkeypatch, "_floor_step")
    m = 4 * walk._SEGMENT
    table = np.zeros((8, 1, m))
    table[4:6] = [[[3.25]], [[-1.5]]]
    rows, chained = walk._lane_rows(table, np.array([[40, 7]]))
    assert rows.tolist() == [[[40, 7]] + [[3, -2]] * m]
    assert chained.tolist() == [True]
    assert len(steps) == walk._SEGMENT + 1


def test_lanes_run_their_first_pass_whole(monkeypatch):
    # the first step of every lane sends every point to (40, 7), where the
    # guess lanes start, and each later step moves one to the right: the
    # first step of the first pass rewrites no row, yet the rows after it
    # are still the starts, so only a second pass may stop the lanes
    steps = _count_calls(monkeypatch, "_floor_step")
    seg, m = walk._SEGMENT, 4 * walk._SEGMENT
    table = np.zeros((8, 1, m))
    table[[0, 3], 0] = 1.0
    table[4, 0] = 1.25
    table[:, 0, ::seg] = np.array([[0, 0, 0, 0, 40.25, 7.5, 0, 0]]).T
    rows, chained = walk._lane_rows(table, np.array([[40, 7]]))
    assert rows.tolist() == [[[40, 7]] + [[40 + t, 7]
                                          for t in range(seg)] * 4]
    assert rows[0, 1:].tolist() == walk._scalar_rows(
        table[:, 0], LatticePoint(40, 7), 100).tolist()
    assert chained.tolist() == [True]
    assert len(steps) == seg + 1


@pytest.mark.parametrize("bound", [60, 59])
def test_a_lane_walk_is_kept_up_to_its_bound_and_no_further(bound,
                                                             monkeypatch):
    # every step sends every point to (3, -2) but the last, which sends
    # it to (60, 0), so the lanes chain and only the last row decides: on
    # a bound of 60 the lane rows are kept, on 59 the scalar loop replays
    # the block and raises its error at that row
    n = walk._LANE_MIN
    far = (0.0, 0.0, 0.0, 0.0, 60.5, 0.5, 0.0, 0.0)
    near = (0.0, 0.0, 0.0, 0.0, 3.25, -1.5, 0.0, 0.0)
    monkeypatch.setattr(walk, "_step_table", lambda configs, lo, hi:
                        _columns([[far if i == n else near
                                   for i in range(lo, hi)]] * len(configs)))
    monkeypatch.setattr(walk, "lattice_bound", lambda config: bound)
    scalar = _count_calls(monkeypatch, "_scalar_rows")
    config = WalkConfig(x0=LatticePoint(40, 7), n=n)
    if bound == 60:
        assert _table_walk(config, config.x0, 1).tolist() \
            == [[3, -2]] * (n - 1) + [[60, 0]]
        assert scalar == []
    else:
        with pytest.raises(BoundsExceeded, match=re.escape(
                "walk reached (60, 0), outside the safe region "
                "[-59, 59]^2")):
            _table_walk(config, config.x0, 1)
        assert [table.shape[1] for table, *_ in scalar] == [n]


def test_lanes_keep_the_evaluation_order_of_step(monkeypatch):
    # the rows of test_recurrence_keeps_the_evaluation_order_of_step, long
    # enough to run as lanes, which must round them as step does
    below, half = 1 - 2**-53, 2**-54
    rows = [(below, half, below, 0.0, -half, half, 0.0, -half),
            (below, 0.0, below, half, half, -half, -half, 0.0)]
    n = walk._LANE_MIN + 3
    monkeypatch.setattr(walk, "_step_table", lambda configs, lo, hi:
                        _columns([[rows[i % 2] for i in range(lo, hi)]]
                                 * len(configs)))
    scalar = _count_calls(monkeypatch, "_scalar_rows")
    config = WalkConfig(x0=LatticePoint(1, 1), n=n)
    assert _table_walk(config, config.x0, 1).tolist() == [[1, 1]] * n
    assert scalar == []


def test_walks_that_never_coalesce_fall_back_to_the_scalar_loop(
        monkeypatch):
    # a translation keeps every lane's distance to the true walk, so the
    # lanes have no fixed point within _PASSES passes: both blocks run
    # every pass, their lanes do not chain, and the scalar loop runs;
    # the walk starts n // 2 left of the origin, so it ends as far right,
    # inside its lattice_bound of n // 2 + 2871
    block = walk._block(1)
    n = block + walk._LANE_MIN
    monkeypatch.setattr(walk, "_step_table", lambda configs, lo, hi:
                        _columns(np.tile([1.0, 0.0, 0.0, 1.0, 1.5, 0.0,
                                          -0.25, 0.0],
                                         (len(configs), hi - lo, 1))))
    steps = _count_calls(monkeypatch, "_floor_step")
    scalar = _count_calls(monkeypatch, "_scalar_rows")
    x = -(n // 2)
    config = WalkConfig(x0=LatticePoint(x, 3), n=n)
    got = _table_walk(config, config.x0, 1)
    assert got.tolist() == [[x + i, 3] for i in range(1, n + 1)]
    # per block: every step of every pass, and no other _floor_step call
    assert len(steps) == 2 * walk._PASSES * walk._SEGMENT
    assert [table.shape[1] for table, *_ in scalar] \
        == [block, walk._LANE_MIN]


def test_lanes_that_do_not_chain_fall_back_to_the_exact_walk(monkeypatch):
    # in one pass no guess lane is restarted from its true start, so no
    # walk's lanes chain: the chain flag alone sends every lane block of a
    # lone walk and of a group to the scalar loop, from each walk's exact
    # start, and every walk still equals its scalar replay
    monkeypatch.setattr(walk, "_PASSES", 1)
    scalar = _count_calls(monkeypatch, "_scalar_rows")
    config = WalkConfig(n=walk._block(1) + 700, seed=41)
    got = _table_walk(config, config.x0, 1)
    assert np.array_equal(got, _replay(config, config.x0, 1))
    assert [(table.shape[1], x) for table, x, _ in scalar] == [
        (walk._block(1), config.x0),
        (700, LatticePoint(*got[walk._block(1) - 1].tolist()))]
    block = walk._block(3)
    configs = [WalkConfig(n=block + 700, seed=s) for s in (41, 5, 9)]
    scalar.clear()
    walks = _check_group(configs)
    assert [(table.shape[1], x) for table, x, _ in scalar] == [
        (m, LatticePoint(*t.xy[row].tolist()))
        for m, row in ((block, 0), (700, block)) for t in walks]


@pytest.mark.parametrize("mode", list(MapMode))
def test_lane_walk_raises_the_scalar_bounds_error_in_a_later_block(
        mode, monkeypatch):
    # the bound holds for the first block and fails in a later one
    rng = random.Random(f"late-bound-{mode.value}")
    block = walk._block(1)
    n = 3 * block
    for _ in range(20):
        config = WalkConfig(n=n, seed=rng.randrange(2**64), map_mode=mode,
                            map_count=4 if mode is MapMode.FIXED_SET
                            else None)
        xy = generate_walk(config).xy
        early = int(np.abs(xy[:block + 1]).max())
        if np.abs(xy).max() > early:
            break
    else:
        pytest.fail("no walk leaves its first block's region")
    monkeypatch.setattr(walk, "lattice_bound", lambda config: early)
    with pytest.raises(BoundsExceeded) as scalar_error:
        _replay(config, config.x0, 1, bound=early)
    with pytest.raises(BoundsExceeded) as lane_error:
        _table_walk(config, config.x0, 1)
    assert str(lane_error.value) == str(scalar_error.value)


@pytest.mark.parametrize("n", [1, 2 * walk._block(1) + 1])
def test_far_start_raises_the_scalar_bounds_error(n):
    # lattice_bound adds the start's sup norm, so this faithful walk leaves
    # the bound on its first step (see ROADMAP item 2); lanes or not, the
    # error is the scalar one
    config = WalkConfig(x0=LatticePoint(-825, -680),
                        rho_min=0.8340528309020399, rho_max=0.95,
                        b_min=0.0, b_max=0.0, epsilon=0.0, n=n,
                        seed=9818071680104426896)
    with pytest.raises(BoundsExceeded,
                       match=re.escape("walk reached (-896, 114), outside "
                                       "the safe region [-854, 854]^2")):
        generate_walk(config)
    _same_as_replay(config, config.x0, 1)


@pytest.mark.xfail(raises=BoundsExceeded, strict=True, reason=(
    "CHANGES.md FOUND: lattice_bound adds the start point's sup norm, but "
    "a contraction only bounds the Euclidean norm, so a faithful walk from "
    "a far-off x0 can cross the bound on its first step and exit 3"))
def test_far_start_walk_is_faithful():
    # the walk of test_far_start_raises_the_scalar_bounds_error: its first
    # point lies 903 from the origin, nearer than x0 (1069), as a
    # contraction with no translation or noise keeps it up to the floor's
    # sqrt(2), but outside lattice_bound's square of 854
    config = WalkConfig(x0=LatticePoint(-825, -680),
                        rho_min=0.8340528309020399, rho_max=0.95,
                        b_min=0.0, b_max=0.0, epsilon=0.0, n=1,
                        seed=9818071680104426896)
    assert generate_walk(config).xy[1].tolist() == [-896, 114]


# ----------------------------------------------------------------- groups

def _group(config, rng, size):
    """config and size - 1 copies of it that differ only in seed."""
    return [config] + [replace(config, seed=rng.randrange(2**64))
                       for _ in range(size - 1)]


def _check_group(configs, bound=None):
    """Every walk _walks yields equals its scalar replay, or is its scalar
    BoundsExceeded, in the order of configs, and is marked as a walk over
    rows that cannot be made writeable."""
    walks = list(walk._walks(configs))
    assert len(walks) == len(configs)
    for config, got in zip(configs, walks):
        try:
            want = _replay(config, config.x0, 1, bound)
        except BoundsExceeded as exc:
            assert isinstance(got, BoundsExceeded) and str(got) == str(exc)
            continue
        assert got.config == config and got._walked
        assert not got.xy.flags.writeable and not got.xy.base.flags.writeable
        assert got.xy[0].tolist() == list(config.x0)
        assert np.array_equal(got.xy[1:], want)
    return walks


@pytest.mark.parametrize("mode", list(MapMode))
def test_group_walks_match_their_scalar_replays_at_every_edge(mode,
                                                              monkeypatch):
    # a group's first block runs lanes once it holds _LANE_MIN steps over
    # all the group's walks
    rng = random.Random(f"group-{mode.value}")
    seg, low = walk._SEGMENT, walk._LANE_MIN
    for size in (2, walk._GROUP):
        block = walk._block(size)
        edge = -(-low // size)
        for n in (1, seg - 1, seg, seg + 1, edge - 1, edge, edge + 1,
                  low - 1, low, low + 1, block + 1):
            with monkeypatch.context() as patch:
                lanes = _count_calls(patch, "_lane_rows")
                _check_group(_group(_edge_config(rng, mode, n), rng, size))
            assert bool(lanes) == (n >= edge)


def _far_config(rng, mode, n):
    """A config with b = epsilon = 0 whose walk starts within 2**20 of
    +-2**52 on one coordinate or both (the diagonal), the other anywhere
    in between: lattice_bound lies near 2**52, halfway to 2**53."""
    rho_max = rng.choice([0.5, 0.95, 1 - 1e-6, 1 - 1e-9])
    far = [s * (2**52 - rng.randrange(2**20)) for s in rng.choices((-1, 1),
                                                                   k=2)]
    near = rng.choice([0, 1, None])  # the coordinate left free, if any
    if near is not None:
        far[near] = rng.randint(-2**52, 2**52)
    return WalkConfig(
        x0=LatticePoint(*far), rho_min=rng.uniform(rho_max / 2, rho_max),
        rho_max=rho_max, b_min=0.0, b_max=0.0, epsilon=0.0, n=n,
        seed=rng.randrange(2**64), map_mode=mode,
        map_count=rng.randint(1, 12) if mode is MapMode.FIXED_SET else None)


@pytest.mark.parametrize("mode", list(MapMode))
def test_walks_near_the_coordinate_limit_match_their_scalar_replays(mode):
    # lone walks and groups, the scalar loop and lanes, from starts near
    # 2**52, where a step's products and sums still round as in step: each
    # walk equals its scalar replay, rows or BoundsExceeded. A far start's
    # first step can cross lattice_bound (ROADMAP item 2), and some do.
    rng = random.Random(f"far-{mode.value}")
    walks = []
    for size, n in ((1, 40), (1, walk._LANE_MIN + 5), (3, 200),
                    (walk._GROUP, 80)):
        for _ in range(6):
            walks += _check_group(_group(_far_config(rng, mode, n), rng,
                                         size))
    stopped = sum(isinstance(t, BoundsExceeded) for t in walks)
    assert 0 < stopped < len(walks)


@pytest.mark.parametrize("count", [1, 8, 9, 17])
def test_walks_yields_each_walk_as_generate_walk_does(count, monkeypatch):
    # 17 walks are stepped as groups of 8, 8 and 1: the groups of 8 run
    # lanes and the lone walk the scalar loop. With the bound lowered below
    # the median reach, the walks that leave it yield their error in place.
    rng = random.Random(f"walks-{count}")
    configs = _group(WalkConfig(n=300, seed=count), rng, count)
    alone = [generate_walk(config) for config in configs]
    assert list(walk._walks(configs)) == alone
    _check_group(configs)  # and the tails
    reach = sorted(int(np.abs(t.xy).max()) for t in alone)
    bound = reach[len(reach) // 2] - 1
    monkeypatch.setattr(walk, "lattice_bound", lambda config: bound)
    stopped = 0
    for config, got in zip(configs, walk._walks(configs)):
        try:
            want = generate_walk(config)
        except BoundsExceeded as exc:
            assert isinstance(got, BoundsExceeded) and str(got) == str(exc)
            stopped += 1
        else:
            assert got == want
    assert stopped == 1 if count == 1 else 0 < stopped < count


@pytest.mark.parametrize("mode", list(MapMode))
def test_group_walk_that_leaves_the_bound_stops_alone(mode, monkeypatch):
    # with the bound lowered to the median reach of the group, some walks
    # raise their scalar error in a lane block and the rest run to the end
    rng = random.Random(f"group-bound-{mode.value}")
    config = WalkConfig(n=walk._block(walk._GROUP) + walk._LANE_MIN, seed=1,
                        map_mode=mode,
                        map_count=4 if mode is MapMode.FIXED_SET else None)
    configs = _group(config, rng, walk._GROUP)
    reach = sorted(int(np.abs(t.xy).max()) for t in walk._walks(configs))
    bound = reach[len(reach) // 2]
    monkeypatch.setattr(walk, "lattice_bound", lambda config: bound)
    walks = _check_group(configs, bound)
    assert 0 < sum(isinstance(t, BoundsExceeded) for t in walks) < len(walks)


@pytest.mark.parametrize("mode", list(MapMode))
def test_rejected_matrix_draws_in_a_group_are_redrawn_per_walk(mode,
                                                               monkeypatch):
    # at this floor some steps (templates too) of every walk are redrawn
    # from that walk's own streams
    monkeypatch.setattr(walk, "_SIGMA_FLOOR", 0.6)
    config = WalkConfig(n=walk._LANE_MIN + 40, seed=8, map_mode=mode,
                        map_count=60 if mode is MapMode.FIXED_SET else None)
    _check_group(_group(config, random.Random(8), 3))


def test_a_group_walk_whose_lanes_fail_falls_back_alone(monkeypatch):
    # walk 1 steps by the translation of
    # test_walks_that_never_coalesce_fall_back_to_the_scalar_loop, so its
    # lanes do not chain in either lane block; the scalar loop runs those
    # two blocks of walk 1 only, each from walk 1's exact start, and the
    # other walks keep their lane rows. The walks start n // 2 left of the
    # origin, so walk 1 ends as far right, inside its lattice_bound.
    block = walk._block(3)
    n = block + 700
    x0 = LatticePoint(-(n // 2), 3)
    configs = [WalkConfig(x0=x0, n=n, seed=s) for s in (41, 5, 9)]
    inner = walk._step_table

    def translated(configs, lo, hi):
        table = inner(configs, lo, hi)
        table[:, 1] = np.array([[1.0, 0.0, 0.0, 1.0, 1.5, 0.0, -0.25,
                                 0.0]]).T
        return table

    monkeypatch.setattr(walk, "_step_table", translated)
    scalar = _count_calls(monkeypatch, "_scalar_rows")
    walks = list(walk._walks(configs))
    xy = walks[1].xy
    assert [(table.shape[1], x) for table, x, _ in scalar] == [
        (block, LatticePoint(*xy[0].tolist())),
        (700, LatticePoint(*xy[block].tolist()))]
    assert xy.tolist() == [[x0.x + i, 3] for i in range(n + 1)]
    for g in (0, 2):
        assert np.array_equal(walks[g].xy[1:],
                              _replay(configs[g], x0, 1))


def test_block_lengths_follow_the_group_size(monkeypatch):
    # a lone walk takes 8192 steps a block, 2 walks 4096 and 3 walks 2720
    # (a multiple of _SEGMENT); 4 walks or more keep 2048 a walk. A last
    # lane block is drawn to a whole segment (808 -> 816, 840 -> 848).
    want = {1: [8192, 816], 2: [4096, 4096, 816],
            3: [2720, 2720, 2720, 848], 5: [2048] * 4 + [816],
            8: [2048] * 4 + [816]}
    rng = random.Random("block-lengths")
    for size, lengths in want.items():
        assert walk._block(size) == lengths[0]
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, "_step_table")
            walks = list(walk._walks(
                _group(WalkConfig(n=9000, seed=7), rng, size)))
        assert [hi - lo for _, lo, hi in calls] == lengths
        assert all(isinstance(t, Trajectory) for t in walks)
    # a re-evolve replay of rows that are not a walk's is one lone walk's
    # _evolve from the row after the nudge: rows 11..8202, 8203..16394,
    # then the last 3606, drawn to 3616; a walk's replay rejoins its rows
    # at row 21 and draws no table
    config = WalkConfig(n=20000, seed=7)
    t = generate_walk(config)
    x = LatticePoint(*(t.xy[10] + (1, 0)).tolist())
    for i in range(11, 22):
        x = step(x, affine_step_for(config, i))
        assert (list(x) == t.xy[i].tolist()) is (i == 21)
    for walked, lengths in ((False, [8192, 8192, 3616]), (True, [])):
        xy = t.xy.copy()
        xy[10] += (1, 0)
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, "_step_table")
            evolved = _count_calls(patch, "_evolve")
            walk._replay(config, xy, 10, walked)
        assert [hi - lo for _, lo, hi in calls] == lengths
        assert [lo for _, lo, _ in calls[:1]] == [11] * (not walked)
        assert [first for *_, first in evolved] == [11] * (not walked)


def test_generate_walk_memory_stays_near_the_walk_size():
    # the walk's rows are written once, into the array the trajectory
    # keeps; a block's table and lanes add a few hundred KB
    config = WalkConfig(seed=3, n=200_000)
    generate_walk(replace(config, n=5000))  # imports and caches
    tracemalloc.start()
    try:
        t = generate_walk(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.xy.nbytes


def test_kept_walks_hold_their_rows_and_no_step_table():
    # a walk once kept its last block's step table, 64 bytes a step
    # against 16 bytes a row: 50 walks at n=2000 held 8.06 MB for 1.60 MB
    # of rows, whether made alone or in groups
    configs = [WalkConfig(n=2000, seed=s) for s in range(50)]
    generate_walk(configs[0])  # imports and caches
    for make in (lambda: [generate_walk(c) for c in configs],
                 lambda: list(walk._walks(configs))):
        tracemalloc.start()
        try:
            kept = make()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * sum(t.xy.nbytes for t in kept)


def test_a_walks_rows_cannot_be_made_writeable():
    # a re-evolve replay keeps a walk's rows without checking them, so
    # they must stay the rows _walks made; a hand-built trajectory's rows
    # are checked, and its own copy may be unlocked
    configs = [WalkConfig(n=n, seed=s) for n, s in ((40, 1), (40, 2))]
    for t in (generate_walk(WalkConfig(n=3000, seed=4)),
              *walk._walks(configs)):
        for unlock in (lambda: setattr(t.xy.flags, "writeable", True),
                       lambda: t.xy.setflags(write=True)):
            with pytest.raises(ValueError, match="WRITEABLE"):
                unlock()
        assert t._walked and not t.xy.flags.writeable
    hand = Trajectory(t.xy, t.config)
    assert not hand._walked and not hand.xy.flags.writeable


@pytest.mark.parametrize("mode", list(MapMode))
def test_generate_walk_memory_holds_one_block_at_a_time(mode):
    # one 8192-step block's table (512 KB) and its lane rows, drawn in
    # place after the last block's are dropped: 1.26x the walk's bytes in
    # either map mode
    config = WalkConfig(seed=3, n=200_000, map_mode=mode,
                        map_count=5 if mode is MapMode.FIXED_SET else None)
    generate_walk(replace(config, n=5000))  # imports and caches
    tracemalloc.start()
    try:
        t = generate_walk(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * t.xy.nbytes


@pytest.mark.parametrize("mode", list(MapMode))
def test_group_memory_holds_one_block_at_a_time(mode):
    # 8 walks of three 2048-step blocks: 5.0x the walks' bytes (5.3x in
    # FIXED_SET mode) while two blocks' tables lived at once and the draws
    # made their own arrays, 3.1x with one table drawn in place
    config = WalkConfig(n=3 * 2048, map_mode=mode,
                        map_count=5 if mode is MapMode.FIXED_SET else None)
    configs = _group(config, random.Random(3), 8)
    list(walk._walks(configs))  # imports and caches
    tracemalloc.start()
    try:
        walks = list(walk._walks(configs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * sum(t.xy.nbytes for t in walks)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("bad, message_part", [
    (dict(n=0), "n must"),
    (dict(rho_min=0.0), "rho_min"),
    (dict(rho_min=0.9, rho_max=0.5), "rho_min"),
    (dict(rho_max=1.0), "rho_max"),
    (dict(b_min=5.0, b_max=-5.0), "b_min"),
    (dict(epsilon=-0.1), "epsilon"),
    (dict(map_mode=MapMode.FIXED_SET), "map_count"),
    (dict(map_mode=MapMode.FIXED_SET, map_count=0), "map_count"),
    (dict(map_count=4), "map_count"),
    (dict(rho_max=math.nan), "rho_max must be finite"),
    (dict(b_min=-math.inf), "b_min must be finite"),
    (dict(b_max=math.inf), "b_max must be finite"),
    (dict(epsilon=math.nan), "epsilon must be finite"),
    (dict(x0=LatticePoint(2**53 + 1, 0)), "lattice_bound"),
    (dict(x0=LatticePoint(0, -10**19)), "lattice_bound"),
    (dict(x0=LatticePoint(10**400, 0)), "lattice_bound"),
    (dict(b_max=1e307, rho_max=1 - 2**-40), "lattice_bound"),
    (dict(seed=-1), "seed"),
    (dict(seed=2**64), "seed"),
    (dict(map_mode=MapMode.FIXED_SET, map_count=2**64), "map_count"),
    # once accepted, then a TypeError when walked
    (dict(map_mode="fixed-set"), "map_count"),
    (dict(map_mode="bogus"),
     "map_mode must be one of: per-step-fresh, fixed-set; got 'bogus'"),
    (dict(map_mode=None), "map_mode must be one of"),
    (dict(epsilon=True), "epsilon must be a real number"),  # once held True
    (dict(b_min="1"), "b_min must be a real number"),  # once a TypeError
    (dict(rho_min=1j), "rho_min must be a real number"),
    (dict(rho_max=np.float32("nan")), "rho_max must be finite"),
    # once a raw OverflowError from math.isfinite
    (dict(b_max=10**400), "b_max must be finite"),
    (dict(b_min=-Fraction(10**400, 3)), "b_min must be finite"),
])
def test_config_validation_names_field(bad, message_part):
    with pytest.raises(ConfigError, match=message_part):
        replace(WalkConfig(), **bad)


@pytest.mark.parametrize("bad, field", [
    # walked from (0, 0) while the report echoed 0.5
    (dict(x0=LatticePoint(0.5, 0)), "x0"),
    (dict(x0=(0, 1.0)), "x0"),
    (dict(x0=(True, 0)), "x0"),
    (dict(x0=5), "x0"),
    (dict(x0=(1, 2, 3)), "x0"),
    (dict(n=100.0), "n"),
    (dict(n=True), "n"),
    (dict(seed=5.0), "seed"),
    (dict(seed=False), "seed"),
    (dict(map_mode=MapMode.FIXED_SET, map_count=3.0), "map_count"),
])
def test_config_integer_fields_refuse_non_integers(bad, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        replace(WalkConfig(), **bad)


@pytest.mark.parametrize("bad, field", [
    (dict(n=10**5000), "n"),
    (dict(seed=10**5000), "seed"),
    (dict(b_max=10**5000), "b_max"),
    (dict(b_min=-10**5000), "b_min"),
    (dict(x0=10**5000), "x0"),
    (dict(map_mode=10**5000), "map_mode"),
    (dict(map_mode=MapMode.FIXED_SET, map_count=10**5000), "map_count"),
])
def test_config_messages_render_huge_ints(bad, field):
    # once a raw ValueError: Exceeds the limit (4300 digits) for integer
    # string conversion, from the message's repr
    with pytest.raises(ConfigError,
                       match=f"^{field} must .*got an int of 16610 bits$"):
        replace(WalkConfig(), **bad)


def test_shown_never_fails():
    class Opaque:
        def __repr__(self):
            raise RuntimeError("no repr")

    assert walk._shown(5) == "5" and walk._shown("a") == "'a'"
    assert walk._shown(-2**20000) == "an int of 20001 bits"
    assert walk._shown(Opaque()) == "a Opaque"
    assert walk._shown((10**5000, 0)) == "a tuple"


def test_config_integer_fields_hold_python_ints():
    # a plain tuple x0 once ended in an AttributeError from lattice_bound
    config = WalkConfig(x0=(1, np.int64(-2)), n=np.int32(40),
                        seed=np.uint64(2**63), map_mode=MapMode.FIXED_SET,
                        map_count=np.int8(3))
    assert type(config.x0) is LatticePoint
    assert [type(v) for v in (*config.x0, config.n, config.seed,
                              config.map_count)] == [int] * 5
    assert config == WalkConfig(x0=LatticePoint(1, -2), n=40, seed=2**63,
                                map_mode=MapMode.FIXED_SET, map_count=3)
    assert lattice_bound(config) == lattice_bound(WalkConfig(x0=(1, -2)))
    assert generate_walk(config).xy[0].tolist() == [1, -2]


def test_config_real_fields_hold_python_floats():
    # a float32 rho_max once drew float32 steps in affine_step_for and
    # float64 ones in the table, and its echo could not be written as JSON
    config = WalkConfig(rho_min=np.float32(0.25), rho_max=np.float32(0.9),
                        b_min=-3, b_max=np.int64(4), epsilon=Fraction(1, 4),
                        n=40, seed=7)
    values = [config.rho_min, config.rho_max, config.b_min, config.b_max,
              config.epsilon]
    assert [type(v) for v in values] == [float] * 5
    assert values == [0.25, float(np.float32(0.9)), -3.0, 4.0, 0.25]
    echo = {**asdict(config), "map_mode": config.map_mode.value}  # cli's
    assert json.loads(json.dumps(echo))["rho_max"] == float(np.float32(0.9))
    for cfg in (config, replace(config, map_mode=MapMode.FIXED_SET,
                                map_count=3)):
        table = walk._step_table([cfg], 1, cfg.n + 1)[:, 0]
        for i, row in enumerate(zip(*table.tolist()), 1):
            assert row == tuple(affine_step_for(cfg, i))
        assert np.array_equal(generate_walk(cfg).xy[1:],
                              _replay(cfg, cfg.x0, 1))


def test_config_map_mode_takes_its_value_string():
    # "fixed-set" once stayed a string: fixed_set mode was not run
    config = WalkConfig(map_mode="fixed-set", map_count=3, n=40, seed=2)
    assert config == WalkConfig(map_mode=MapMode.FIXED_SET, map_count=3,
                                n=40, seed=2)
    assert config.map_mode is MapMode.FIXED_SET
    assert WalkConfig(map_mode="per-step-fresh") == WalkConfig()
    assert np.array_equal(generate_walk(config).xy[1:],
                          _replay(config, config.x0, 1))


def test_trajectory_refuses_a_config_that_is_not_a_walk_config():
    # once accepted, and a re-evolve on it ended in an AttributeError
    points = [[0, 0], [1, 1], [2, 2], [3, 3]]
    for config in (None, {"n": 3}, (0, 0)):
        with pytest.raises(TypeError, match="config must be a WalkConfig"):
            Trajectory(points, config)
        # lattice_bound(None) once ended in an AttributeError
        with pytest.raises(TypeError, match="^config must be a WalkConfig"):
            lattice_bound(config)
    assert Trajectory(points, WalkConfig(n=3)).config == WalkConfig(n=3)


def test_generate_walk_validates():
    with pytest.raises(ConfigError):
        generate_walk(WalkConfig(n=0))
