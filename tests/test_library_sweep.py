"""Every public callable, each argument in turn swapped for each value of a
fixed list of wrong or odd values, ends in a result or in an error of the
package's kinds: a WalkhashError, a TypeError or a ValueError. Anything
else (an AttributeError, an OverflowError, a numpy warning, which the
suite's filter turns into an error) is a gap, and so is a call that
runs past its time limit."""

import dataclasses
import math
import signal

import numpy as np
import pytest

import walkhash
from walkhash import (ChiSquareMode, LatticePoint, MapMode,
                      PerturbationSpec, PerturbMode, WalkConfig,
                      WalkhashError, affine_step_for, chi_square_uniform,
                      estimate_point_dimension, generate_walk, geometry,
                      run_avalanche)
from walkhash.rng import Stream

VALUES = (None, True, 1.5, math.nan, math.inf, 10**400, -1, "x",
          MapMode.FIXED_SET, [], np.int64(3), b"ab", (1, 2, 3))
PASSING = (WalkhashError, TypeError, ValueError)
LIMIT = 1.0  # seconds a call may take


class _Timeout(Exception):
    pass


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _base_calls():
    """The positional arguments of one working call of each public
    callable, at small n, every optional argument given."""
    config = WalkConfig(n=8, seed=1)
    walk = generate_walk(config)
    records, matrix = run_avalanche(config, ["sha3-512"], (3, 4),
                                    2)["sha3-512"]
    errors = {name: ("a message",) for name in (
        "BoundsExceeded", "ConfigError", "DegenerateInput",
        "GeneratorFailure", "InsufficientData", "InvalidPosition",
        "WalkhashError")}
    return {
        **errors,
        "AffineStep": tuple(affine_step_for(config, 1)),
        "BitMatrix": (np.eye(4, 8, dtype=np.uint8),),
        "ChiSquareMode": ("bernoulli",),
        "ChiSquareResult": _fields(chi_square_uniform(matrix)),
        "DimensionEstimate": _fields(estimate_point_dimension(walk.xy)),
        "GeometryReport": _fields(geometry(walk)),
        "HashAlg": ("blake3", 32),
        "LatticePoint": (1, 2),
        "MapMode": ("fixed-set",),
        "PerturbMode": ("re-evolve",),
        "PerturbationSpec": (3, PerturbMode.POINT_NUDGE, (1, 0)),
        "Trajectory": (walk.xy, config),
        "TrialRecord": _fields(records[0]),
        "WalkConfig": _fields(config),
        "affine_step_for": (config, 3),
        "box_count": (walk.xy, 2),
        "chi_square_uniform": (matrix, ChiSquareMode.TABLE1),
        "default_box_sizes": (16, 9),
        "default_positions": (10,),
        "derive_key": (walk, "sha3-512"),
        "digest_bytes": (b"abc", "blake3-256"),
        "estimate_point_dimension": (walk.xy, (1, 2, 4)),
        "generate_walk": (config,),
        "geometry": (walk,),
        "lattice_bound": (config,),
        "linear_fit": ([1.0, 2.0, 3.0], [2.0, 4.5, 6.0]),
        "lower_regularized_gamma": (2.0, 3.0),
        "map_templates": (WalkConfig(n=8, map_mode="fixed-set",
                                     map_count=4),),
        "perturb": (walk, PerturbationSpec(3)),
        "run_avalanche": (config, ["sha3-512"], (3,), 1,
                          PerturbMode.POINT_NUDGE, (1, 0)),
        "sample_affine_step": (Stream(1, 0, 0), config),
        "serialize_trajectory": (walk,),
        "shannon_entropy": (b"\x00\xff\x10",),
        "step": (LatticePoint(3, 4), affine_step_for(config, 1), 100),
        "trial_seed": (1, 3, 0),
        "trial_summary": (records,),
        "upper_regularized_gamma": (2.0, 3.0),
    }


_CALLS = _base_calls()
# keyword-only arguments, given in every call of their callable
_KEYWORDS = {"box_count": {"lengths": (3, 9)}}


def _timeout(signum, frame):
    raise _Timeout


def _gaps(function, base, limit=LIMIT, keywords=None):
    """(argument index or keyword, value, what happened) of each call of
    function with one argument of base, or one value of keywords, swapped
    for a value of VALUES that ends in neither a result nor an error of
    PASSING, or runs past limit seconds."""
    keywords = keywords or {}
    calls = [(i, value, (*base[:i], value, *base[i + 1:]), keywords)
             for i in range(len(base)) for value in VALUES]
    calls += [(name, value, base, {**keywords, name: value})
              for name in keywords for value in VALUES]
    previous = signal.signal(signal.SIGALRM, _timeout)
    gaps = []
    try:
        for where, value, args, kwargs in calls:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                function(*args, **kwargs)
            except PASSING:
                pass
            except _Timeout:
                gaps.append((where, value, f"no result in {limit} s"))
            except Exception as exc:  # the gap the sweep looks for
                gaps.append((where, value, f"{type(exc).__name__}: {exc}"))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return gaps


def test_the_sweep_covers_every_public_callable():
    callables = {name for name in walkhash.__all__
                 if callable(getattr(walkhash, name))}
    assert callables == set(_CALLS) >= set(_KEYWORDS)
    assert len(callables) == len(walkhash.__all__) - 1  # not __version__


def test_the_sweep_finds_what_it_must():
    def flawed(a, b, *, c=0):
        while a is None:  # never returns
            pass
        if b == "x":
            return b.missing
        if b == -1:
            raise ValueError("b must be >= 0")
        if c == "x":
            return c.missing
        return a

    assert [(i, repr(v), what) for i, v, what in _gaps(flawed, (1, 2), 0.05)] \
        == [(0, "None", "no result in 0.05 s"),
            (1, "'x'", "AttributeError: 'str' object has no attribute "
                       "'missing'")]
    assert [(i, repr(v)) for i, v, _ in _gaps(flawed, (1, 2), 0.05,
                                              {"c": 0})] \
        == [(0, "None"), (1, "'x'"), ("c", "'x'")]


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_a_wrong_argument_ends_in_a_result_or_a_package_error(name):
    assert _gaps(getattr(walkhash, name), _CALLS[name],
                 keywords=_KEYWORDS.get(name)) == []
