"""The benchmark's workloads, seeds and the per-layer prediction table.

A workload is an endless, seed-determined sequence of `walkhash` CLI calls.
The benchmark takes the workload seed as its argument; the CLI only ever
sees the generated argument vectors. Op 0 of every sequence is the untimed
warm-up; the closed loop runs ops 1, 2, ... until its time is up.

An "op" is the unit ops_per_s counts: one key (keygen), one perturbation
trial (both avalanche workloads) or one walk-and-estimate (fractal). One
CLI call does `units` ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

# The seed the pinned output hashes were recorded with.
DEFAULT_SEED = 1
# Never used while the benchmark or a change is developed: later claims are
# re-checked on it.
HELD_OUT_SEED = 7877

WALK_N = 2000
KEYGEN_ALGS = ("sha3-512", "shake256-512", "blake3-256")
AVALANCHE_POSITIONS = 5        # `--positions auto` picks five positions
FRACTAL_N_LIST = (128, 500, 2000, 5000)

# Shares are of self time in a traced 12 s run on the 2-core Xeon host the
# benchmark was developed on (seed 5; see spans.py).
WHY = {
    "keygen": "one key per call, algs cycled: walk 90% of a sha3/shake "
              "call, BLAKE3 51% of a blake3 call (traced); one message at a "
              "time, so it bypasses cross-message batching",
    "avalanche": "point-nudge, 3 algs, 1 trial a position per call: BLAKE3 "
                 "68% (two 32 KB digests a trial), walk 30% (traced); "
                 "exercises diffusion, stats and report writes",
    "avalanche-reevolve": "re-evolve, sha3/shake, 1 trial a position per "
                          "call: walk 63%, diffusion.perturb replaying steps "
                          "31%, no BLAKE3 (traced); the only workload where "
                          "perturbation does real work",
    "fractal": "one seed per call, n=128..5000: walk 87%, box counting and "
               "the fit 10%, no hashing (traced); bypasses every hash "
               "change, and the only workload where fractal shows",
}
WORKLOADS = tuple(WHY)

# Which end-to-end metric each per-layer metric should move, and where.
# "none" lists workloads on which a change to that layer must show no change.
# A prediction for ops_per_s or a latency also holds for ref_ms_per_op, the
# timing run.py gates on: it takes every call kind's median, so on keygen it
# moves with BLAKE3 as well as with the walk.
PREDICTIONS = {
    "walk.generate_walk": {
        "moves": ["fractal ops_per_s", "avalanche-reevolve ops_per_s",
                  "avalanche ops_per_s", "keygen latency_p50_ms"],
        "none": []},
    "keygen.digest_bytes.blake3-256": {
        "moves": ["avalanche ops_per_s", "keygen latency_tail_ms"],
        "none": ["fractal", "avalanche-reevolve"]},
    "keygen.digest_bytes.sha3-512": {
        "moves": ["keygen latency_p50_ms"], "none": ["fractal"]},
    "keygen.digest_bytes.shake256-512": {
        "moves": ["keygen latency_p50_ms"], "none": ["fractal"]},
    "keygen.serialize_trajectory": {
        "moves": ["small on every workload"], "none": ["fractal"]},
    "diffusion.perturb": {
        "moves": ["avalanche-reevolve ops_per_s"],
        "none": ["avalanche", "keygen", "fractal"]},
    "diffusion.run_avalanche": {
        "moves": ["avalanche ops_per_s", "avalanche-reevolve ops_per_s"],
        "none": ["keygen", "fractal"]},
    "diffusion.shannon_entropy": {
        "moves": ["avalanche ops_per_s"], "none": ["keygen", "fractal"]},
    "diffusion.bitmatrix": {
        "moves": ["avalanche ops_per_s"], "none": ["keygen", "fractal"]},
    "diffusion.trial_summary": {
        "moves": ["avalanche ops_per_s"], "none": ["keygen", "fractal"]},
    "stats.chi_square_uniform": {
        "moves": ["avalanche ops_per_s"], "none": ["keygen", "fractal"]},
    "fractal.box_count": {
        "moves": ["fractal ops_per_s"],
        "none": ["keygen", "avalanche", "avalanche-reevolve"]},
    "fractal.estimate_point_dimension": {
        "moves": ["fractal ops_per_s"],
        "none": ["keygen", "avalanche", "avalanche-reevolve"]},
    "cli.main": {
        "moves": ["keygen latency_p50_ms"], "none": []},
}


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments (without --output-dir), op count and
    kind. Calls of one kind do the same work; keygen has one kind per
    algorithm, every other workload a single kind."""

    index: int
    argv: tuple[str, ...]
    units: int
    kind: str


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The workload's call sequence for one seed, without end.

    Everything, including the order the keygen algorithms cycle in, comes
    from `seed`; the same seed always gives the same sequence.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    algs = list(KEYGEN_ALGS)
    rng.shuffle(algs)
    index = 0
    while True:
        walk_seed = str(rng.randrange(2 ** 32))
        kind = workload
        if workload == "keygen":
            kind = algs[index % len(algs)]
            argv = ("keygen", "--n", str(WALK_N), "--seed", walk_seed,
                    "--alg", kind)
            units = 1
        elif workload == "fractal":
            argv = ("fractal",
                    "--n-list", ",".join(map(str, FRACTAL_N_LIST)),
                    "--num-seeds", "1", "--seed", walk_seed)
            units = len(FRACTAL_N_LIST)
        else:
            argv = ("avalanche", "--n", str(WALK_N), "--positions", "auto",
                    "--trials", "1", "--seed", walk_seed)
            if workload == "avalanche":
                argv += ("--mode", "point-nudge")
            else:
                argv += ("--mode", "re-evolve",
                         "--algs", "sha3-512,shake256-512")
            units = AVALANCHE_POSITIONS
        yield Op(index, argv, units, kind)
        index += 1
