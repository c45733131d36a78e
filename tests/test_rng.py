"""Keyed stream generator: golden sequences, independence, distribution."""

import pytest

import numpy as np

from walkhash.rng import (Stream, mix64, mix64_array, stream_key, stream_keys,
                          u64_draws, uniform_draws)


def test_published_splitmix64_sequence():
    # stream_key(0) == 0, so Stream(0) walks the reference generator from
    # state 0; these are the first outputs of the published implementation
    s = Stream(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_golden_keyed_stream():
    # frozen: any change to the mixing or key chaining must fail loudly
    s = Stream(12345, 3, 7)
    assert [s.next_u64() for _ in range(3)] == [
        0xD0CEE57FD0E89872,
        0x094902C9B7C34DC2,
        0x4ABAF810E71189C5,
    ]
    assert stream_key(1, 2, 3) == 0x614AEB9ED12CCF8D
    u = Stream(42)
    assert u.uniform(0.0, 1.0) == pytest.approx(0.7415648787718233, abs=0)
    assert u.uniform(0.0, 1.0) == pytest.approx(0.1599103928769201, abs=0)


def test_determinism_and_path_separation():
    assert [Stream(9, 1, 2).next_u64() for _ in range(4)] \
        == [Stream(9, 1, 2).next_u64() for _ in range(4)]
    firsts = {
        Stream(9).next_u64(),
        Stream(9, 0).next_u64(),
        Stream(9, 1).next_u64(),
        Stream(9, 0, 0).next_u64(),
        Stream(9, 0, 1).next_u64(),
        Stream(10).next_u64(),
    }
    assert len(firsts) == 6


def test_mix64_is_64_bit_and_nontrivial():
    assert mix64(0) == 0
    for z in (1, 2**63, 2**64 - 1, 0xDEADBEEF):
        out = mix64(z)
        assert 0 <= out < 2**64
        assert out != z


def test_uniform_respects_interval():
    s = Stream(7)
    values = [s.uniform(2.5, 7.5) for _ in range(10_000)]
    assert all(2.5 <= v < 7.5 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 5.0) < 0.1


def test_uniform_degenerate_interval_is_exact():
    s = Stream(7)
    assert s.uniform(3.0, 3.0) == 3.0


def test_below_range_and_spread():
    s = Stream(3)
    draws = [s.below(10) for _ in range(5_000)]
    assert set(draws) == set(range(10))
    with pytest.raises(ValueError):
        s.below(0)


def test_array_draws_equal_scalar_streams():
    index = np.array([0, 1, 2, 41, 42, 2**40, 2**63 - 1])
    seeds = (0, 1, 12345, 2**64 - 1)
    for path in ((), (0,), (3, 7)):
        # one index for every seed, then one row of indices a seed
        for rows in (index, np.array([np.roll(index, g) for g in range(4)])):
            keys = stream_keys(seeds, path, rows)
            assert keys.dtype == np.uint64 and keys.shape == (4, 7)
            u64, uniform, zero = (
                u64_draws(keys, 1),
                uniform_draws(keys, 2, -2.5, 7.0, out=np.empty(keys.shape)),
                uniform_draws(keys, 3, -0.0, 0.0, out=np.empty(keys.shape)))
            for g, seed in enumerate(seeds):
                row = rows if rows.ndim == 1 else rows[g]
                for lane, i in enumerate(row.tolist()):
                    assert int(keys[g, lane]) == stream_key(seed, *path, i)
                    s = Stream(seed, *path, i)
                    assert int(u64[g, lane]) == s.next_u64()
                    assert uniform[g, lane] == s.uniform(-2.5, 7.0)
                    assert zero[g, lane] == s.uniform(-0.0, 0.0)
    words = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]
    assert mix64_array(np.array(words, dtype=np.uint64)).tolist() \
        == [mix64(z) for z in words]


def test_multi_row_draws_equal_consecutive_scalar_draws():
    # an out with a leading axis of D rows holds draws k..k+D-1, as D
    # consecutive Stream calls make them; the second out is a strided view,
    # as a step table's columns are
    index = np.array([0, 1, 41, 2**40, 2**63 - 1])
    seeds = (0, 12345, 2**64 - 1)
    for rows in (index, np.array([np.roll(index, g) for g in range(3)])):
        keys = stream_keys(seeds, (3, 7), rows)
        for draws in (1, 2, 4):
            for out in (np.empty((draws, *keys.shape)),
                        np.moveaxis(np.empty((*keys.shape, draws)), -1, 0)):
                uniform = uniform_draws(keys, 2, -2.5, 7.0, out)
                assert uniform is out
                u64 = u64_draws(keys, 2, np.empty(out.shape, np.uint64))
                for g, seed in enumerate(seeds):
                    row = rows if rows.ndim == 1 else rows[g]
                    for lane, i in enumerate(row.tolist()):
                        s = Stream(seed, 3, 7, i)
                        s.next_u64()  # draw 1
                        assert uniform[:, g, lane].tolist() == [
                            s.uniform(-2.5, 7.0) for _ in range(draws)]
                        s = Stream(seed, 3, 7, i)
                        s.next_u64()
                        assert u64[:, g, lane].tolist() == [
                            s.next_u64() for _ in range(draws)]
