"""Geometry summaries and box-counting dimension estimates.

Box counting bins points into axis-aligned cells of side s via floor
division, so negative coordinates bin consistently with positive ones, and
counts the distinct cells with one sort of int64 keys, one key per cell (a
lexsort of the two columns when the cells span too much for one key). Given
two or more sizes, all powers of two, it counts every size from one sort
instead: with the origin aligned down to a multiple of the largest size, a
cell of size 2^k is a run of points whose Morton (Z-order) codes agree
above their lowest k bit pairs, so each pair of neighbours in code order
splits the cells of every size below the highest bit pair in which they
differ. Given prefix lengths, it encodes the longest prefix once and sorts
each prefix's leading codes: dyadic cells nest, so the origin of the
longest prefix serves every shorter one. A lone size, sizes that are not
all powers of two, or cells past 32 bits an axis are counted one size at a
time, prefix by prefix.
The dimension estimate is the negated slope of log2(count) against
log2(size) over a dyadic schedule of sizes, fit with the shared
least-squares helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InsufficientData
from .stats import linear_fit
from .walk import LatticePoint, Trajectory, _checked_xy, _instance, _integer


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


# (shift, mask) steps that spread the low 32 bits of a word to its even bits
_SPREAD = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
    (1, 0x5555555555555555)))
_EVEN_BITS = _SPREAD[-1][1]
# one past the largest box size: numpy divides by a size as an int64
_MAX_SIZE = 2**63


def _columns(xy: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """The x and y columns of a non-empty (m, 2) xy as one contiguous (2, m)
    copy, with the minimum and maximum of each as Python ints: numpy
    reduces its rows about ten times faster than the columns of xy."""
    cols = np.array((xy[:, 0], xy[:, 1]))
    return cols, cols.min(axis=1).tolist(), cols.max(axis=1).tolist()


def geometry(t: Trajectory) -> GeometryReport:
    """The shape summary of t (TypeError if t is not a Trajectory)."""
    _instance("t", Trajectory, t)
    length = 0.0
    # a sequential sum, so the total does not depend on numpy's summation
    for dx, dy in np.diff(t.xy, axis=0).tolist():
        length += math.hypot(dx, dy)
    _, (xlo, ylo), (xhi, yhi) = _columns(t.xy)
    width, height = xhi - xlo + 1, yhi - ylo + 1
    unique = box_count(t.xy, 1)
    return GeometryReport(
        total_path_length=length,
        bbox_width=width,
        bbox_height=height,
        unique_points=unique,
        density=unique / (width * height),
    )


def box_count(points: Sequence[LatticePoint] | np.ndarray,
              box_size: int | Iterable[int], *,
              lengths: Iterable[int] | None = None) -> int | tuple:
    """Number of size x size cells containing at least one point.

    points is a sequence of integer points or an (m, 2) integer array,
    checked and read in place by walk._checked_xy. Given an iterable of
    sizes, returns the count at each, in order; a lone size, a 0-d array
    included, is counted as a schedule of one. Given lengths, an iterable
    of integers 0 <= k <= m, returns a tuple with box_count(points[:k],
    box_size) for each k, in order, from one encoding of the longest prefix.
    """
    lone = isinstance(box_size, str) or not np.iterable(box_size)
    sizes = tuple(_integer("box_size", s, 1, _MAX_SIZE)
                  for s in ((box_size,) if lone else box_size))
    xy = _checked_xy(points)
    if lengths is None:
        ks = [len(xy)]
    elif not np.iterable(lengths):
        raise TypeError(f"lengths must be an iterable of integers, "
                        f"got {type(lengths).__name__}")
    else:
        ks = [_integer("lengths", k, 0, len(xy) + 1) for k in lengths]
    counts = _count_dyadic(xy, sizes, ks) \
        or [tuple(_count_one(xy[:k], s) for s in sizes) for k in ks]
    counts = [c[0] for c in counts] if lone else counts
    return counts[0] if lengths is None else tuple(counts)


def _count_one(xy: np.ndarray, box_size: int) -> int:
    """box_count at one size, 1 <= box_size < 2**63: the reference path."""
    cx, cy = xy.T // box_size
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


def _count_dyadic(xy: np.ndarray, sizes: tuple[int, ...],
                  ks: list[int] | None = None
                  ) -> list[tuple[int, ...]] | None:
    """box_count of each prefix xy[:k], k in ks (all of xy if ks is None),
    at every size, from one encoding of Morton codes and one sort a
    distinct prefix; None unless the longest prefix is not empty, there are
    at least two sizes, every size is a power of two and the cells of the
    smallest fit in 32 bits an axis once the origin, read from the _columns
    copy it encodes, is aligned."""
    ks = [len(xy)] if ks is None else ks
    m = max(ks, default=0)
    if not m or len(sizes) < 2 or any(s & (s - 1) for s in sizes):
        return None
    exps = [s.bit_length() - 1 for s in sizes]
    low, top = min(exps), max(exps)
    cells, (xlo, ylo), (xhi, yhi) = _columns(xy[:m])
    # the origin, aligned down to a multiple of the largest size, in cells
    # of the smallest; Python ints, so that nothing wraps
    ox = xlo >> top << (top - low)
    oy = ylo >> top << (top - low)
    width = max((xhi >> low) - ox, (yhi >> low) - oy)
    if width >= 2**32:
        return None
    if low:
        cells >>= low
    cells -= [[ox], [oy]]
    spread = cells.view(np.uint64)
    for shift, mask in _SPREAD:
        if width >> int(shift):  # else the step moves only zero bits
            spread |= spread << shift
            spread &= mask
    codes = spread[0]
    codes |= spread[1] << np.uint64(1)
    counts = {0: (0,) * len(sizes)}
    for k in sorted(set(ks) - {0}):
        if k < m:
            run = np.sort(codes[:k])
        else:  # the longest prefix comes last, and sorts in place
            run = codes
            run.sort()
        counts[k] = _tally(run, exps, low)
    return [counts[k] for k in ks]


def _tally(codes: np.ndarray, exps: list[int], low: int) -> tuple[int, ...]:
    """The number of cells of size 2**e, e in exps (low the least), holding
    the points whose sorted, non-empty Morton codes are codes."""
    # the highest bit pair in which neighbours differ: or-ing each pair's
    # two bits onto its even bit leaves a word that float64 holds without
    # rounding up to the next power of two, so frexp reads its top bit
    differ = codes[1:] ^ codes[:-1]
    differ |= differ >> np.uint64(1)
    differ &= _EVEN_BITS
    # 0 for equal neighbours, else the pair's level + 1
    levels = (np.frexp(differ.astype(np.float64))[1] + 1) >> 1
    # splits[j]: neighbours that differ at level j - 1 or above
    splits = np.bincount(levels, minlength=64)[::-1].cumsum()[::-1]
    return tuple(int(splits[e - low + 1]) + 1 for e in exps)


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
    return _estimates(_checked_xy(points), None, box_sizes)[0]


def _estimates(xy: np.ndarray, lengths: Sequence[int] | None,
               box_sizes: Sequence[int] | None) -> list[DimensionEstimate]:
    """estimate_point_dimension of each prefix xy[:k], k in lengths (one or
    more), in order, or of all of the (m, 2) int64 array xy if lengths is
    None.

    One box_count call, found as fractal.box_count, counts every prefix at
    the longest prefix's schedule. Default schedules nest, since a prefix's
    extents are at most a longer one's, so each prefix fits the leading
    sizes its own extents give.
    """
    ks = [len(xy)] if lengths is None else list(lengths)
    if not min(ks):
        raise InsufficientData("no points to analyze")
    distinct = sorted(set(ks))
    if box_sizes is None:
        schedules = {k: default_box_sizes(*extent)
                     for k, extent in zip(distinct, _extents(xy, distinct))}
    else:
        if not np.iterable(box_sizes):
            raise TypeError(f"box_sizes must be an iterable of integers, "
                            f"got {type(box_sizes).__name__}")
        sizes = tuple(sorted({_integer("box_sizes", s, 1, _MAX_SIZE)
                              for s in box_sizes}))
        if len(sizes) < 3:
            raise ConfigError(
                f"need at least 3 distinct box sizes, got {len(sizes)}")
        schedules = dict.fromkeys(distinct, sizes)
    sizes = schedules[distinct[-1]]
    counts = [box_count(xy, sizes)] if lengths is None \
        else box_count(xy, sizes, lengths=ks)
    return [_fit(schedules[k], c[:len(schedules[k])])
            for k, c in zip(ks, counts)]


def _extents(xy: np.ndarray, ks: list[int]) -> list[tuple[int, int]]:
    """(width, height) in lattice cells of each prefix xy[:k], k in the
    ascending distinct positive ks, from running column minima and maxima
    over the segments between them."""
    cols = np.array((xy[:ks[-1], 0], xy[:ks[-1], 1]))
    starts = [0, *ks[:-1]]
    lo = np.minimum.accumulate(np.minimum.reduceat(cols, starts, axis=1),
                               axis=1).T.tolist()
    hi = np.maximum.accumulate(np.maximum.reduceat(cols, starts, axis=1),
                               axis=1).T.tolist()
    # Python ints, so that a span past int64 cannot wrap
    return [(xh - xl + 1, yh - yl + 1) for (xl, yl), (xh, yh) in zip(lo, hi)]


def _fit(sizes: tuple[int, ...], counts: tuple[int, ...]
         ) -> DimensionEstimate:
    """The estimate from the counts at a sorted schedule of sizes."""
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
