"""Walk module: sampling contract, step semantics, bounds, determinism."""

import math
import random
import re
from dataclasses import replace
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
    walk_space_size,
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
    assert AffineStep(3, 0, 0, 1, 0, 0, 0, 0).spectral_norm() \
        == pytest.approx(3.0, abs=1e-12)
    c, s = math.cos(0.3), math.sin(0.3)
    assert AffineStep(c, -s, s, c, 0, 0, 0, 0).spectral_norm() \
        == pytest.approx(1.0, abs=1e-12)
    # rank-1 all-ones matrix has singular values (2, 0)
    assert AffineStep(1, 1, 1, 1, 0, 0, 0, 0).spectral_norm() \
        == pytest.approx(2.0, abs=1e-12)


def test_rescaling_forces_requested_norm():
    config = WalkConfig(rho_min=0.5, rho_max=0.5)
    for seed in range(20):
        s = sample_affine_step(Stream(seed, 0, 1), config)
        assert s.spectral_norm() == pytest.approx(0.5, abs=1e-12)


def test_epsilon_zero_gives_exact_zero_noise():
    config = WalkConfig(epsilon=0.0)
    s = sample_affine_step(Stream(11, 0, 1), config)
    assert s.d1 == 0.0 and s.d2 == 0.0


def test_sample_bounds_small_batch():
    config = WalkConfig(b_min=-3.0, b_max=7.0, epsilon=0.25)
    for i in range(500):
        s = affine_step_for(config, i + 1)
        assert config.rho_min - 1e-9 <= s.spectral_norm() \
            <= config.rho_max + 1e-9
        assert -3.0 <= s.b1 <= 7.0 and -3.0 <= s.b2 <= 7.0
        assert -0.25 <= s.d1 <= 0.25 and -0.25 <= s.d2 <= 0.25


def test_rho_distribution_one_million_samples():
    # Monte-Carlo check of the sampler's documented distribution: recovered
    # spectral norms stay inside [0.5, 0.95] to 1e-9 and their empirical
    # CDF is uniform on that band (KS statistic < 0.01). The samples are
    # _step_table columns, whose rows equal affine_step_for's (spot-checked
    # here against the scalar sampler).
    config = WalkConfig(seed=999)
    count = 1_000_000
    block = 100_000
    spots = random.Random(999).sample(range(count), 1000)
    norms = np.empty(count)
    for lo in range(0, count, block):
        table = walk._step_table(config, lo, lo + block)
        norms[lo:lo + block] = walk._spectral_norms(*table[:, :4].T)
        for i in spots:
            if lo <= i < lo + block:
                s = sample_affine_step(Stream(999, 0, i), config)
                assert tuple(table[i - lo].tolist()) == tuple(s)
                assert norms[i] == s.spectral_norm()
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


# --------------------------------------------------------- walk_space_size

def test_walk_space_size_values():
    assert walk_space_size(1, 100) == 1
    assert walk_space_size(2, 10) == 1024
    assert walk_space_size(3, 40) == 12157665459056928801


def test_walk_space_size_matches_repeated_multiplication():
    rng = random.Random(4)
    for _ in range(50):
        m = rng.randrange(1, 12)
        n = rng.randrange(1, 60)
        product = 1
        for _ in range(n):
            product *= m
        assert walk_space_size(m, n) == product


def test_walk_space_size_validation():
    with pytest.raises(ConfigError):
        walk_space_size(0, 5)
    with pytest.raises(ConfigError):
        walk_space_size(3, 0)


# ----------------------------------------------------------- fixed-set mode

def test_fixed_set_steps_use_templates():
    config = WalkConfig(seed=21, n=200, map_mode=MapMode.FIXED_SET,
                        map_count=4)
    templates = map_templates(config)
    assert templates is not None and len(templates) == 4
    seen = set()
    for i in range(1, config.n + 1):
        s = affine_step_for(config, i, templates)
        body = (s.a11, s.a12, s.a21, s.a22, s.b1, s.b2)
        assert body in templates
        seen.add(templates.index(body))
        assert -config.epsilon <= s.d1 <= config.epsilon
    assert len(seen) > 1  # the seeded choice actually varies
    # templates argument is an optimization only
    assert affine_step_for(config, 17) == affine_step_for(
        config, 17, templates)


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
    templates = map_templates(config)
    points = []
    for i in range(first, config.n + 1):
        x = step(x, affine_step_for(config, i, templates), bound)
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


def _same_as_replay(config, x, first):
    """walk._evolve equals the scalar replay, also when that raises."""
    try:
        want = _replay(config, x, first)
    except BoundsExceeded as exc:
        with pytest.raises(BoundsExceeded, match=re.escape(str(exc))):
            walk._evolve(config, x, first)
        return None
    got = walk._evolve(config, x, first)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    return got


def _check_evolve(config, rng):
    """The whole walk equals the scalar replay, and so does a tail started
    at a moved point, as a re-evolve perturbation does."""
    config.validate()
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
    _check_evolve(replace(WalkConfig(map_mode=mode), **edge), rng)


@pytest.mark.parametrize("mode", list(MapMode))
def test_step_table_crosses_block_boundaries(mode):
    rng = random.Random(f"blocks-{mode.value}")
    config = _random_config(rng, mode, n=2 * walk._BLOCK + 5)
    _check_evolve(config, rng)
    t = generate_walk(config)
    for first in (walk._BLOCK, walk._BLOCK + 1, walk._BLOCK + 2):
        start = LatticePoint(*t.xy[first - 1].tolist()).shifted(1, -1)
        assert np.array_equal(walk._evolve(config, start, first),
                              _replay(config, start, first))


def test_step_table_rows_equal_affine_step_for():
    config = WalkConfig(seed=99, map_mode=MapMode.FIXED_SET, map_count=6)
    for cfg in (replace(config, map_mode=MapMode.PER_STEP_FRESH,
                        map_count=None), config):
        table = walk._step_table(cfg, 40, 90)
        assert table.shape == (50, 8) and table.dtype == np.float64
        for k, row in enumerate(table.tolist()):
            assert tuple(row) == tuple(affine_step_for(cfg, 40 + k))


def test_recurrence_keeps_the_evaluation_order_of_step(monkeypatch):
    # from (1, 1) each row floors to 1 in step's order, while any other
    # grouping of a11*x + a12*y + b1 + d1 rounds to 1 - 2**-53 and floors
    # to 0
    below, half = 1 - 2**-53, 2**-54
    rows = [(below, half, below, 0.0, -half, half, 0.0, -half),
            (below, 0.0, below, half, half, -half, -half, 0.0)] * 3
    monkeypatch.setattr(walk, "_step_table",
                        lambda config, lo, hi:
                        np.array(rows[lo - 1:hi - 1]))
    config = WalkConfig(x0=LatticePoint(1, 1), n=len(rows))
    x, want = config.x0, []
    for row in rows:
        x = step(x, AffineStep(*row))
        want.append(list(x))
    assert want == [[1, 1]] * len(rows)
    assert walk._evolve(config, config.x0, 1).tolist() == want


def test_fixed_set_draws_only_the_templates_it_uses():
    # map_templates would draw 2**64 - 1 templates; each step draws only
    # the one it chooses, equal to the scalar template of that index
    config = WalkConfig(seed=12, n=300, map_mode=MapMode.FIXED_SET,
                        map_count=2**64 - 1)

    class Templates:
        def __getitem__(self, j):
            return walk._draw_map(Stream(config.seed, walk._SUB_TEMPLATE, j),
                                  config)

    x, want = config.x0, []
    for i in range(1, config.n + 1):
        x = step(x, affine_step_for(config, i, Templates()))
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
    keys = stream_keys(config.seed, (sub,), np.arange(count))
    _, rejected = walk._map_columns(config, keys)
    assert 0 < rejected.sum() < count
    if mode is MapMode.FIXED_SET:
        # the walk chooses some rejected template, so its refill is checked
        chosen = {Stream(config.seed, walk._SUB_CHOICE, i).below(count)
                  for i in range(1, config.n + 1)}
        assert chosen & set(np.flatnonzero(rejected).tolist())
    _check_evolve(config, rng)


@pytest.mark.parametrize("mode", list(MapMode))
def test_table_walk_raises_the_scalar_bounds_error(mode, monkeypatch):
    monkeypatch.setattr(walk, "lattice_bound", lambda config: 40)
    config = _random_config(random.Random(5), mode, n=300)
    config = replace(config, x0=LatticePoint(0, 0), b_min=-100.0,
                     b_max=100.0)
    with pytest.raises(BoundsExceeded) as table_error:
        walk._evolve(config, config.x0, 1)
    with pytest.raises(BoundsExceeded) as scalar_error:
        _replay(config, config.x0, 1, bound=40)
    assert str(table_error.value) == str(scalar_error.value)
    assert "outside the safe region [-40, 40]^2" in str(table_error.value)


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
])
def test_config_validation_names_field(bad, message_part):
    config = replace(WalkConfig(), **bad)
    with pytest.raises(ConfigError, match=message_part):
        config.validate()


def test_generate_walk_validates():
    with pytest.raises(ConfigError):
        generate_walk(WalkConfig(n=0))
