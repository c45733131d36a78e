"""Geometry summaries and box-counting dimension estimates.

Box counting bins points into axis-aligned cells of side s via floor
division, so negative coordinates bin consistently with positive ones, and
counts the distinct cells with one sort of int64 keys, one key per cell
(a lexsort of the two columns when the cells span too much for one key).
The dimension estimate is the negated slope of log2(count) against
log2(size) over a dyadic schedule of sizes, fit with the shared
least-squares helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientData
from .stats import linear_fit
from .walk import LatticePoint, Trajectory, _checked_xy, _integer


@dataclass(frozen=True)
class GeometryReport:
    """Coarse shape summary of a trajectory.

    bbox sides count lattice cells inclusively (max - min + 1), so a single
    point spans a 1 x 1 box and density, unique points over bounding-box
    area, is always well defined.
    """

    total_path_length: float
    bbox_width: int
    bbox_height: int
    unique_points: int
    density: float


@dataclass(frozen=True)
class DimensionEstimate:
    """Result of one box-counting fit.

    degenerate marks point sets with no scaling signal (equal counts at
    every size); those report dimension 0 and a perfect fit by convention.
    """

    box_sizes: tuple[int, ...]
    counts: tuple[int, ...]
    dimension: float
    r_squared: float
    degenerate: bool = False


def _extent(xy: np.ndarray) -> list[int]:
    """Bounding-box width and height, counted in lattice cells."""
    return (xy.max(axis=0) - xy.min(axis=0) + 1).tolist()


def geometry(t: Trajectory) -> GeometryReport:
    length = 0.0
    # a sequential sum, so the total does not depend on numpy's summation
    for dx, dy in np.diff(t.xy, axis=0).tolist():
        length += math.hypot(dx, dy)
    width, height = _extent(t.xy)
    unique = box_count(t.xy, 1)
    return GeometryReport(
        total_path_length=length,
        bbox_width=width,
        bbox_height=height,
        unique_points=unique,
        density=unique / (width * height),
    )


def box_count(points: Sequence[LatticePoint] | np.ndarray,
              box_size: int) -> int:
    """Number of size x size cells containing at least one point.

    points is a sequence of integer points or an (m, 2) integer array,
    checked and read in place by walk._checked_xy.
    """
    # numpy divides by the size as an int64
    box_size = _integer("box_size", box_size, 1, 2**63)
    cx, cy = _checked_xy(points).T // box_size
    if not len(cx):
        return 0
    lx, ly = int(cx.min()), int(cy.min())
    # extents in cells, as Python ints so that they cannot wrap
    wx, wy = int(cx.max()) - lx + 1, int(cy.max()) - ly + 1
    if wx * wy < 2**63:
        # each cell as one int64 key in [0, wx * wy)
        keys = np.sort((cx - lx) * wy + (cy - ly))
        return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1
    order = np.lexsort((cy, cx))
    cx, cy = cx[order], cy[order]
    return int(np.count_nonzero((cx[1:] != cx[:-1])
                                | (cy[1:] != cy[:-1]))) + 1


def default_box_sizes(width: int, height: int) -> tuple[int, ...]:
    """Dyadic size schedule for a bounding box of the given extents.

    Powers of two from 1 up to the largest one <= max(width, height) / 4,
    extended to at least four scales for small boxes.
    """
    limit = max(width, height) // 4
    sizes = [1]
    while sizes[-1] * 2 <= limit or len(sizes) < 4:
        sizes.append(sizes[-1] * 2)
    return tuple(sizes)


def estimate_point_dimension(points: Sequence[LatticePoint] | np.ndarray,
                             box_sizes: Sequence[int] | None = None,
                             ) -> DimensionEstimate:
    """Box-counting dimension of a point set (points as for box_count)."""
    xy = _checked_xy(points)
    if not len(xy):
        raise InsufficientData("no points to analyze")
    if box_sizes is None:
        sizes = default_box_sizes(*_extent(xy))
    else:
        sizes = tuple(sorted({_integer("box_sizes", s) for s in box_sizes}))
        if len(sizes) < 3:
            raise ConfigError(
                f"need at least 3 distinct box sizes, got {len(sizes)}")
    counts = tuple(box_count(xy, s) for s in sizes)
    for smaller, larger in zip(counts, counts[1:]):
        if larger > smaller:
            # cannot happen on the dyadic default; only on a caller-supplied
            # schedule whose cells do not nest
            raise ConfigError(
                f"box counts increased with size for schedule {sizes}; "
                f"use nested (e.g. dyadic) sizes")
    if counts[0] == counts[-1]:
        return DimensionEstimate(sizes, counts, 0.0, 1.0, degenerate=True)
    slope, _, r_squared = linear_fit(
        [math.log2(s) for s in sizes],
        [math.log2(c) for c in counts])
    return DimensionEstimate(sizes, counts, -slope, r_squared)
