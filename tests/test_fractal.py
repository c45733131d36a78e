"""Geometry summaries, box counting, and dimension estimation."""

import math
import random

import numpy as np
import pytest

from walkhash import (
    ConfigError,
    InsufficientData,
    LatticePoint,
    Trajectory,
    WalkConfig,
    box_count,
    default_box_sizes,
    estimate_point_dimension,
    generate_walk,
    geometry,
)
from walkhash import fractal


def _traj(points) -> Trajectory:
    return Trajectory(tuple(points), WalkConfig())


def _grid(side: int, ox: int = 0, oy: int = 0):
    return [LatticePoint(ox + i, oy + j)
            for i in range(side) for j in range(side)]


# --------------------------------------------------------------- geometry

def test_geometry_single_point():
    report = geometry(_traj([LatticePoint(0, 0)]))
    assert report.total_path_length == 0.0
    assert (report.bbox_width, report.bbox_height) == (1, 1)
    assert report.unique_points == 1
    assert report.density == 1.0


def test_geometry_refuses_other_objects():
    # geometry(None) once ended in an AttributeError
    for bad in (None, [(0, 0), (1, 1)], np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(TypeError, match="^t must be a Trajectory, got "):
            geometry(bad)


def test_geometry_three_four_five():
    report = geometry(_traj([LatticePoint(0, 0), LatticePoint(3, 4)]))
    assert report.total_path_length == pytest.approx(5.0, abs=1e-12)
    assert (report.bbox_width, report.bbox_height) == (4, 5)
    assert report.unique_points == 2
    assert report.density == pytest.approx(0.1, abs=1e-12)


def test_geometry_matches_naive_oracle_on_walk():
    t = generate_walk(WalkConfig(seed=11, n=500))
    report = geometry(t)
    pts = t.points
    length = sum(math.dist((a.x, a.y), (b.x, b.y))
                 for a, b in zip(pts, pts[1:]))
    assert report.total_path_length == pytest.approx(length, rel=1e-9)
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    assert report.bbox_width == xs[-1] - xs[0] + 1
    assert report.bbox_height == ys[-1] - ys[0] + 1
    assert report.unique_points == len({(p.x, p.y) for p in pts})
    assert 0.0 < report.density <= 1.0


# ------------------------------------------------------------- box_count

def test_box_count_single_point_any_size():
    for size in (1, 2, 3, 7, 64):
        assert box_count([LatticePoint(5, -9)], size) == 1


def test_box_count_adjacent_pair():
    pair = [LatticePoint(0, 0), LatticePoint(1, 1)]
    assert box_count(pair, 1) == 2
    assert box_count(pair, 2) == 1
    # floor division keeps negative coordinates in their own cells
    neg = [LatticePoint(0, 0), LatticePoint(-1, -1)]
    assert box_count(neg, 2) == 2


def test_box_count_full_grid_counts():
    pts = _grid(16)
    for size, want in ((1, 256), (2, 64), (4, 16), (8, 4)):
        assert box_count(pts, size) == want


def test_box_count_grid_interval_oracle():
    # independent oracle: a full grid occupies every cell its bounding box
    # touches, so the count is the product of per-axis cell-index ranges
    for ox, oy in ((0, 0), (-8, -8), (-5, 3)):
        pts = _grid(16, ox, oy)
        for size in (1, 2, 3, 4, 5, 8, 16):
            cells_x = (ox + 15) // size - ox // size + 1
            cells_y = (oy + 15) // size - oy // size + 1
            assert box_count(pts, size) == cells_x * cells_y


@pytest.mark.parametrize("points, error", [
    # box_count once truncated these to the cells of (0, 1) and (2, 3)
    (np.array([[0.5, 1.5], [2.5, 3.5]]), TypeError),
    ([(0.5, 1), (2, 3)], TypeError),
    ([[True, False], [False, True]], TypeError),
    (np.ones((2, 2), dtype=bool), TypeError),
    # reshape(-1, 2) once read these as 6 and 2 points
    (np.zeros((3, 4), dtype=np.int64), ValueError),
    ([1, 2, 3, 4], ValueError),
])
def test_point_sets_follow_one_rule(points, error):
    with pytest.raises(error, match="points must"):
        box_count(points, 1)
    with pytest.raises(error, match="points must"):
        estimate_point_dimension(points)
    with pytest.raises(error, match="points must"):
        Trajectory(points, WalkConfig())


def test_box_count_rejects_bad_size():
    with pytest.raises(ConfigError):
        box_count([LatticePoint(0, 0)], 0)


def _extent(xy) -> tuple[int, int]:
    _, (xlo, ylo), (xhi, yhi) = fractal._columns(xy)
    return xhi - xlo + 1, yhi - ylo + 1


def _set_count(points, size: int) -> int:
    """Distinct cells as a set of coordinate pairs: the oracle."""
    return len({(x // size, y // size)
                for x, y in np.asarray(points).reshape(-1, 2).tolist()})


def test_box_count_matches_set_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        span = int(rng.choice([2, 40, 10**6, 2**40]))
        xy = rng.integers(-span, span + 1, size=(rng.integers(0, 300), 2))
        if trial % 2:
            xy = np.vstack((xy, xy[:len(xy) // 3]))  # repeated points
        for size in (1, 2, 3, 5, 64, 1000):
            assert box_count(xy, size) == _set_count(xy, size)
    assert box_count([], 3) == 0
    assert box_count(np.empty((0, 2), dtype=np.int64), 1) == 0


def test_box_count_wide_extents_fall_back_to_lexsort():
    # the corners give 2**54 + 1 cells a side, so wx * wy >= 2**63 and a
    # packed key would wrap: (0, 0) and (1024, -1024) would share one
    edge = 2**53
    corners = [(-edge, -edge), (edge, edge), (-edge, edge)]
    xy = corners + [(0, 0), (1024, -1024), (0, 0)]
    assert box_count(xy, 1) == 5
    rng = np.random.default_rng(53)
    pts = np.vstack((xy, rng.integers(-edge, edge + 1, size=(300, 2)),
                     rng.integers(-3, 4, size=(300, 2))))
    for size in (1, 2, 3, 2**20, 2**52):
        assert box_count(pts, size) == _set_count(pts, size)


def test_box_count_of_a_schedule_matches_each_size_and_set_oracle():
    # the one-sort Morton count against the one-size path and the oracle,
    # over spans on both sides of its 32-bit limit and schedules it must
    # hand back to the one-size path
    rng = np.random.default_rng(21)

    def check(xy, sizes, one_sort=None):
        want = tuple(_set_count(xy, s) for s in sizes)
        assert box_count(xy, sizes) == want, sizes
        assert tuple(box_count(xy, s) for s in sizes) == want, sizes
        if one_sort is not None:
            assert (fractal._count_dyadic(xy, sizes) is not None) is one_sort

    spans = (0, 2, 40, 10**6, 2**32 - 3, 2**32 - 1, 2**32, 2**32 + 2, 2**40)
    for trial in range(270):
        span = spans[trial % len(spans)]
        # a small origin aligns to 0 even under a size of 2**62
        origin = rng.integers(0, 64, size=2) if trial % 3 == 0 \
            else rng.integers(-2**41, 2**41, size=2)
        xy = origin + rng.integers(0, span + 1, size=(rng.integers(1, 80), 2))
        if trial % 2:
            xy = np.vstack((xy, xy[::3]))  # repeated points
        for sizes in (default_box_sizes(*_extent(xy)), (1, 4, 64),
                      (64, 1, 4), (1, 2**62), (2**20, 2**31)):
            check(xy, sizes)
        check(xy, (1, 3, 5), one_sort=False)
    # the widest cells the one sort takes, and the first it does not
    for width, fits in ((2**32 - 1, True), (2**32, False)):
        check(np.array([[-2, 0], [width - 2, -8], [5, -6]]), (1, 2), fits)
    # codes that differ in every bit, whose XOR float64 would round up
    for bits in (31, 32):
        corner = 2**bits - 1
        check(np.array([[0, 0], [corner, corner]]),
              (1, 2**(bits - 1), 2**bits), one_sort=True)
    check(np.array([[3, 4], [9, 0], [3, 4]]), (1, 2**40, 2**62), True)
    check(np.array([[3, 4]]), (1, 2, 2**62), one_sort=True)
    check(np.array([[-3, 4]]), (1, 2, 2**62), one_sort=False)
    t = generate_walk(WalkConfig(seed=21, n=5000))
    for n in (128, 500, 2000, 5000):
        xy = t.xy[:n + 1]
        check(xy, default_box_sizes(*_extent(xy)), one_sort=True)
    assert box_count([LatticePoint(-3, 4)], (1, 2, 2**62)) == (1, 1, 1)
    assert box_count([], (1, 2)) == (0, 0)
    assert box_count(t.xy, ()) == ()
    with pytest.raises(ConfigError, match="box_size"):
        box_count(t.xy, (1, 0))
    with pytest.raises(ConfigError, match="box_size"):
        box_count(t.xy, (1, True))


def test_estimate_counts_every_size_in_one_box_count_call(monkeypatch):
    calls = []
    count = fractal.box_count

    def counted(points, box_size):
        calls.append(box_size)
        return count(points, box_size)

    monkeypatch.setattr(fractal, "box_count", counted)
    xy = generate_walk(WalkConfig(seed=4, n=500)).xy
    est = estimate_point_dimension(xy)
    assert calls == [est.box_sizes]
    est = estimate_point_dimension(xy, (8, 1, 2, 4, 8))
    assert calls[1:] == [(1, 2, 4, 8)]
    assert est.counts == tuple(count(xy, s) for s in (1, 2, 4, 8))


def test_estimate_counts_equal_each_size_alone():
    # the default schedule and the one-sort count each read the bounds;
    # a caller can no longer hand the count bounds of other points
    # (bounds=(0, 1, 0, 1) once gave (368, 157, 52, 14) for these)
    xy = generate_walk(WalkConfig(seed=4, n=500)).xy
    est = estimate_point_dimension(xy)
    assert est.counts == tuple(box_count(xy, s) for s in est.box_sizes)
    assert box_count(xy, est.box_sizes) == est.counts
    xy = generate_walk(WalkConfig(n=2000, seed=5)).xy
    assert box_count(xy, (1, 2, 4, 8)) == (1967, 1898, 1591, 961)
    with pytest.raises(TypeError):
        box_count(xy, (1, 2, 4, 8), bounds=(0, 1, 0, 1))


def test_extent_matches_min_max_oracle_on_strided_views():
    rng = np.random.default_rng(8)
    block = rng.integers(-10**6, 10**6, size=(300, 4))
    edges = np.array([[-2**63, 7], [2**63 - 1, -7]])  # 2**64 cells wide
    for xy in (block[:, :2], block[:, 2:], block[::3, 1:3], block[::-2, ::3],
               block[:1, :2], edges):
        xs, ys = zip(*xy.tolist())
        cols, lo, hi = fractal._columns(xy)
        assert cols.flags.c_contiguous and np.array_equal(cols, xy.T)
        assert (lo, hi) == ([min(xs), min(ys)], [max(xs), max(ys)])
        assert _extent(xy) == (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


# ------------------------------------------------------------- dimension

def test_single_point_is_degenerate():
    est = estimate_point_dimension([LatticePoint(2, 2)])
    assert est.degenerate
    assert est.dimension == 0.0
    assert est.r_squared == 1.0
    assert est.counts == (1,) * len(est.box_sizes)


def test_line_dimension_is_one():
    est = estimate_point_dimension(
        [LatticePoint(i, 0) for i in range(1024)])
    assert est.box_sizes == (1, 2, 4, 8, 16, 32, 64, 128, 256)
    assert est.counts == tuple(1024 // s for s in est.box_sizes)
    assert est.dimension == pytest.approx(1.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not est.degenerate


def test_filled_square_dimension_is_two():
    est = estimate_point_dimension(_grid(128))
    assert est.counts == tuple((128 // s) ** 2 for s in est.box_sizes)
    assert est.dimension == pytest.approx(2.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)


def test_walk_counts_monotone_and_fit_sane():
    for seed in range(12):
        t = generate_walk(WalkConfig(seed=seed, n=300))
        est = estimate_point_dimension(t.xy)
        assert len(est.box_sizes) >= 4
        assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))
        assert 0.0 <= est.r_squared <= 1.0 + 1e-12
        assert est.dimension >= 0.0


def test_non_nested_schedule_rejected():
    pts = [LatticePoint(3, 0), LatticePoint(4, 0)]
    # size 3 merges the pair, size 4 splits it again: counts rise with size
    with pytest.raises(ConfigError, match="nested"):
        estimate_point_dimension(pts, box_sizes=(1, 3, 4))


def test_custom_schedule_is_sorted_and_deduped():
    pts = [LatticePoint(i, 0) for i in range(64)]
    est = estimate_point_dimension(pts, box_sizes=(8, 1, 2, 4, 8))
    assert est.box_sizes == (1, 2, 4, 8)
    assert est.dimension == pytest.approx(1.0, abs=1e-12)


def test_insufficient_inputs():
    with pytest.raises(InsufficientData):
        estimate_point_dimension([])
    with pytest.raises(ConfigError):
        estimate_point_dimension([LatticePoint(0, 0)], box_sizes=(1, 2))
    with pytest.raises(ConfigError):
        estimate_point_dimension([LatticePoint(0, 0)], box_sizes=(2, 2, 2))


# --------------------------------------------------------------- schedule

@pytest.mark.parametrize("extents, want", [
    ((1024, 1), (1, 2, 4, 8, 16, 32, 64, 128, 256)),
    ((1, 1), (1, 2, 4, 8)),
    ((40, 40), (1, 2, 4, 8)),
    ((64, 64), (1, 2, 4, 8, 16)),
    ((16, 2048), (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)),
])
def test_default_box_sizes(extents, want):
    assert default_box_sizes(*extents) == want


def test_random_point_sets_never_raise_on_default_schedule():
    rng = random.Random(77)
    for _ in range(30):
        pts = [LatticePoint(rng.randrange(-300, 300),
                            rng.randrange(-300, 300))
               for _ in range(rng.randrange(1, 120))]
        est = estimate_point_dimension(pts)
        assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))
