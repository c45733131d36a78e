"""Chi-square uniformity testing and the shared least-squares fit.

The incomplete gamma functions are implemented here rather than imported so
the p-values have no dependency beyond math: series expansion below the
a + 1 crossover, modified Lentz continued fraction above it. Both converge
within _MAX_ITER terms for 1e-300 <= a <= 1e6, every dof / 2 included;
the test suite pins them against an arbitrary-precision oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import exp, lgamma, log
from typing import Sequence

from .diffusion import BitMatrix
from .errors import DegenerateInput, InsufficientData
from .walk import _instance, _member, _real

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 10_000


def _series(a: float, x: float) -> float:
    # P(a, x) / front: the lower incomplete gamma series, sum x^k / (a)_k+1
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ArithmeticError("incomplete gamma series did not converge")


def _contfrac(a: float, x: float) -> float:
    # Q(a, x) / front by Lentz's method on the standard fraction
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = h = 1.0 / b  # b > 1, as x >= a + 1
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete gamma fraction did not converge")


def _p_and_q(a: float, x: float) -> tuple[float, float]:
    """P(a, x) and Q(a, x): ConfigError unless a and x are finite reals,
    ValueError unless 1e-300 <= a <= 1e6 and x >= 0."""
    a, x = _real("a", a), _real("x", x)
    # near x = a + 1 the series and the fraction each take about 8 sqrt(a)
    # of their _MAX_ITER terms (7,719 and 964 at a = 1e6); below 1e-300 the
    # series' first term, 1/a, nears the float range
    if not 1e-300 <= a <= 1e6:
        raise ValueError(f"a must satisfy 1e-300 <= a <= 1e6, where the "
                         f"series and the fraction converge, got {a!r}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x!r}")
    if x == 0.0:
        return 0.0, 1.0
    front = exp(-x + a * log(x) - lgamma(a))
    if x < a + 1.0:
        # at a tiny a, P is within rounding of 1 and can round past it
        p = min(_series(a, x) * front, 1.0)
        return p, 1.0 - p
    # the fraction is at most 1, so Q underflows with front; at x near
    # 1e308, where it does, its first terms are subnormal and it would
    # never converge
    q = _contfrac(a, x) * front if front else 0.0
    return 1.0 - q, q


def lower_regularized_gamma(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function, for
    1e-300 <= a <= 1e6 and finite x >= 0, where the series and the fraction
    converge (ValueError outside it); exactly 1.0 where Q underflows.
    Below x = a + 1, P is the series, and from there 1 - Q. Against mpmath
    it was off by at most 8e-14 for a <= 0.5, and by up to 8e-12
    (relative) at a = 4,095.5, chi-square's largest a, and 2.3e-9 at
    a = 1e6, for x within 8 sqrt(a) of a, where terms of a log a cancel."""
    return _p_and_q(a, x)[0]


def upper_regularized_gamma(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x) for 1e-300 <= a <= 1e6 and finite x >= 0
    (ValueError outside it); exactly 0.0 where it underflows. From
    x = a + 1 on, Q is the continued fraction, so a small Q keeps its
    relative accuracy; below it Q is 1 - P, so it reads 0.0 where P rounds
    to 1 (Q(1e-300, 0.5); mpmath gives 5.6e-301). Errors as for P."""
    return _p_and_q(a, x)[1]


class ChiSquareMode(Enum):
    """Which expected-count model the uniformity test uses.

    TABLE1 spreads the observed total evenly over the columns and scores
    one cell per column. BERNOULLI treats each column as rows independent
    fair coin flips and scores both the flip and non-flip cells, so its
    statistic is centered on the column count rather than far below the
    degrees of freedom. Reports carry both; they answer slightly different
    questions about the same matrix.
    """

    TABLE1 = "table1"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    per_bit_flip_counts: tuple[int, ...]
    mode: ChiSquareMode


def chi_square_uniform(matrix: BitMatrix,
                       mode: ChiSquareMode = ChiSquareMode.TABLE1,
                       ) -> ChiSquareResult:
    """Chi-square test of flip-count uniformity across matrix columns.

    Degrees of freedom are cols - 1 in both modes; the p-value is the upper
    tail Q(dof/2, statistic/2). mode is a member or its value string.
    """
    _instance("matrix", BitMatrix, matrix)
    mode = _member("mode", ChiSquareMode, mode)
    counts = matrix.column_sums()
    cols = matrix.cols
    rows = matrix.rows
    if cols < 2:
        raise InsufficientData(f"need at least 2 columns, got {cols}")
    total = int(counts.sum())
    if total == 0:
        raise DegenerateInput("bit matrix has no set bits")
    if mode is ChiSquareMode.TABLE1:
        expected = total / cols
        stat = float(((counts - expected) ** 2 / expected).sum())
    else:
        expected = rows / 2.0
        # flips and non-flips per column; both deviations are equal so the
        # two cells fold into a single doubled term
        stat = float((2.0 * (counts - expected) ** 2 / expected).sum())
    dof = cols - 1
    p = upper_regularized_gamma(dof / 2.0, stat / 2.0)
    return ChiSquareResult(
        statistic=stat,
        dof=dof,
        p_value=p,
        per_bit_flip_counts=tuple(counts.tolist()),
        mode=mode,
    )


def linear_fit(xs: Sequence[float],
               ys: Sequence[float]) -> tuple[float, float, float]:
    """Ordinary least squares y = slope * x + intercept.

    Returns (slope, intercept, r_squared). r_squared is 1.0 when the
    residuals vanish, including the constant-y case.
    """
    if len(xs) != len(ys):
        raise InsufficientData("xs and ys must have equal length")
    count = len(xs)
    if count < 2:
        raise InsufficientData(f"need at least 2 points, got {count}")
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise InsufficientData("x values have no spread")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared
