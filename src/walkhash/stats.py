"""Chi-square uniformity testing and the shared least-squares fit.

The incomplete gamma functions are implemented here rather than imported so
the p-values have no dependency beyond math: series expansion below the
a + 1 crossover, modified Lentz continued fraction above it. Both converge
to machine precision for every (dof, statistic) pair this package can
produce; the test suite pins them against an arbitrary-precision oracle.
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


def _series_p(a: float, x: float) -> float:
    # Lower incomplete gamma series: x^a e^-x / Gamma(a) * sum x^k / (a)_k+1
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * exp(-x + a * log(x) - lgamma(a))
    raise ArithmeticError("incomplete gamma series did not converge")


def _contfrac_q(a: float, x: float) -> float:
    # Upper incomplete gamma via Lentz's method on the standard fraction.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) >= _TINY else 1.0 / _TINY
    h = d
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
            return h * exp(-x + a * log(x) - lgamma(a))
    raise ArithmeticError("incomplete gamma fraction did not converge")


def _gamma_args(a: float, x: float) -> tuple[float, float]:
    """a and x as floats: ConfigError unless both are finite reals,
    ValueError unless a > 0 and x >= 0."""
    a, x = _real("a", a), _real("x", x)
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x!r}")
    return a, x


def lower_regularized_gamma(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function."""
    a, x = _gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _series_p(a, x)
    return 1.0 - _contfrac_q(a, x)


def upper_regularized_gamma(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), computed directly to avoid cancellation."""
    a, x = _gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _series_p(a, x)
    return _contfrac_q(a, x)


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
