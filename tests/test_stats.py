"""Incomplete gamma, chi-square modes, and the least-squares fit."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from walkhash import (
    BitMatrix,
    ChiSquareMode,
    ConfigError,
    DegenerateInput,
    InsufficientData,
    chi_square_uniform,
    linear_fit,
    lower_regularized_gamma,
    upper_regularized_gamma,
)

# frozen: erfc(sqrt(5/3)), the p-value for counts [10, 20] at dof 1
_P_10_20 = 0.06788915486182903


def _matrix_with_counts(rows: int, counts) -> BitMatrix:
    """A bit matrix whose column sums are exactly `counts`."""
    bits = np.zeros((rows, len(counts)), dtype=np.uint8)
    for j, c in enumerate(counts):
        bits[:c, j] = 1
    return BitMatrix(bits)


# ------------------------------------------------------------------ gamma

def test_gamma_endpoints():
    for a in (0.5, 1.0, 3.0, 255.5):
        assert lower_regularized_gamma(a, 0.0) == 0.0
        assert upper_regularized_gamma(a, 0.0) == 1.0
        assert lower_regularized_gamma(a, 1e6) == pytest.approx(1.0, abs=1e-12)
        assert upper_regularized_gamma(a, 1e6) == pytest.approx(0.0, abs=1e-12)


def test_gamma_half_matches_erf():
    # P(1/2, x) = erf(sqrt(x)), an independent closed form
    for x in (0.01, 0.3, 1.0, 5/3, 2.5, 10.0, 40.0):
        assert lower_regularized_gamma(0.5, x) \
            == pytest.approx(math.erf(math.sqrt(x)), abs=1e-12)
        assert upper_regularized_gamma(0.5, x) \
            == pytest.approx(math.erfc(math.sqrt(x)), abs=1e-12)


def test_gamma_one_matches_exponential():
    # P(1, x) = 1 - e^-x
    for x in (0.0, 0.1, 1.0, 3.0, 12.0):
        assert lower_regularized_gamma(1.0, x) \
            == pytest.approx(-math.expm1(-x), abs=1e-12)


def test_gamma_complement_identity():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.uniform(0.3, 400.0)
        x = rng.uniform(0.0, 500.0)
        p = lower_regularized_gamma(a, x)
        q = upper_regularized_gamma(a, x)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-12)


def test_gamma_argument_validation():
    for bad_a in (0.0, -1.0):
        with pytest.raises(ValueError):
            lower_regularized_gamma(bad_a, 1.0)
    with pytest.raises(ValueError):
        upper_regularized_gamma(1.0, -0.5)


@pytest.mark.parametrize("gamma", [lower_regularized_gamma,
                                   upper_regularized_gamma])
@pytest.mark.parametrize("a, x, name", [
    (10**400, 1.0, "a"), (1.0, 10**400, "x"), (math.inf, 1.0, "a"),
    (1.0, math.inf, "x"), (1.0, math.nan, "x"), (math.nan, 1.0, "a"),
    (True, 1.0, "a"), (1.0, True, "x"), ("2", 1.0, "a"),
], ids=lambda v: "10**400" if v == 10**400 else None)
def test_gamma_takes_only_finite_reals(gamma, a, x, name):
    # each once ended in an OverflowError, in an ArithmeticError that the
    # series or the fraction did not converge, or in a result for a bool
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        gamma(a, x)


def test_p_value_monotone_in_statistic():
    # dof 511 is the operating point for 512-bit digests
    a = 511 / 2.0
    stats = range(300, 801, 25)
    ps = [upper_regularized_gamma(a, s / 2.0) for s in stats]
    assert all(earlier > later for earlier, later in zip(ps, ps[1:]))


# ------------------------------------------------------------- chi-square

def test_equal_counts_give_zero_statistic():
    m = BitMatrix(np.ones((8, 16), dtype=np.uint8))
    for mode in ChiSquareMode:
        result = chi_square_uniform(m, mode)
        if mode is ChiSquareMode.TABLE1:
            assert result.statistic == 0.0
            assert result.p_value == 1.0
        assert result.dof == 15
        assert result.per_bit_flip_counts == (8,) * 16


def test_table1_two_column_example():
    m = _matrix_with_counts(30, [10, 20])
    result = chi_square_uniform(m, ChiSquareMode.TABLE1)
    assert result.statistic == pytest.approx(10 / 3, abs=1e-9)
    assert result.dof == 1
    assert result.p_value == pytest.approx(_P_10_20, abs=1e-12)
    assert result.p_value == pytest.approx(0.06789, abs=2e-5)
    assert result.per_bit_flip_counts == (10, 20)
    assert result.mode is ChiSquareMode.TABLE1


def test_modes_score_the_same_counts_differently():
    m = _matrix_with_counts(40, [10, 20])
    t1 = chi_square_uniform(m, ChiSquareMode.TABLE1)
    be = chi_square_uniform(m, ChiSquareMode.BERNOULLI)
    # TABLE1: expected 15 per column; BERNOULLI: expected rows/2 = 20,
    # both cells scored, which folds to a doubled term
    assert t1.statistic == pytest.approx(10 / 3, abs=1e-9)
    assert be.statistic == pytest.approx(
        2 * ((10 - 20) ** 2 + 0) / 20, abs=1e-9)
    assert t1.dof == be.dof == 1
    assert be.mode is ChiSquareMode.BERNOULLI


def test_mode_takes_a_member_or_its_value():
    # "table1" once returned the Bernoulli statistic under the label table1
    m = BitMatrix.from_flip_vectors([b"ab", b"cd"])
    for mode in ChiSquareMode:
        result = chi_square_uniform(m, mode.value)
        assert result == chi_square_uniform(m, mode)
        assert result.mode is mode
    assert chi_square_uniform(m, "table1").statistic == pytest.approx(
        15.31, abs=5e-3)
    for bad in ("TABLE1", "bogus", None):
        with pytest.raises(ConfigError, match=(
                "^mode must be one of: table1, bernoulli; got ")):
            chi_square_uniform(m, bad)


def test_column_permutation_invariance():
    rng = np.random.default_rng(5)
    bits = (rng.random((60, 24)) < 0.5).astype(np.uint8)
    bits[0] = 1  # guarantee at least one set bit
    perm = rng.permutation(24)
    for mode in ChiSquareMode:
        a = chi_square_uniform(BitMatrix(bits), mode)
        b = chi_square_uniform(BitMatrix(bits[:, perm]), mode)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-9)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


def test_degenerate_and_insufficient_inputs():
    with pytest.raises(DegenerateInput):
        chi_square_uniform(BitMatrix(np.zeros((4, 8), dtype=np.uint8)))
    with pytest.raises(InsufficientData):
        chi_square_uniform(BitMatrix(np.ones((4, 1), dtype=np.uint8)))


# ------------------------------------------------------------- linear fit

def test_fit_exact_line():
    xs = [0.0, 1.0, 2.0, 3.0]
    slope, intercept, r2 = linear_fit(xs, [2 * x + 1 for x in xs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_y():
    slope, intercept, r2 = linear_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(4.0, abs=1e-12)
    assert r2 == 1.0


def test_fit_rejects_bad_inputs():
    with pytest.raises(InsufficientData):
        linear_fit([1.0], [2.0])
    with pytest.raises(InsufficientData):
        linear_fit([1.0, 2.0], [3.0])
    with pytest.raises(InsufficientData):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])  # no x spread


def test_fit_matches_exact_normal_equations():
    rng = random.Random(21)
    for _ in range(50):
        xs = [Fraction(rng.randrange(-50, 50)) for _ in range(10)]
        if len(set(xs)) < 2:
            continue
        ys = [Fraction(rng.randrange(-50, 50)) for _ in range(10)]
        count = Fraction(len(xs))
        mx, my = sum(xs) / count, sum(ys) / count
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        want_slope = sxy / sxx
        want_intercept = my - want_slope * mx
        slope, intercept, r2 = linear_fit(
            [float(x) for x in xs], [float(y) for y in ys])
        assert slope == pytest.approx(float(want_slope), abs=1e-9)
        assert intercept == pytest.approx(float(want_intercept), abs=1e-9)
        assert 0.0 <= r2 <= 1.0 + 1e-12
