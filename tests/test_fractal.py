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


def test_box_count_rejects_bad_size():
    with pytest.raises(ConfigError):
        box_count([LatticePoint(0, 0)], 0)


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
