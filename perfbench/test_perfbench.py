"""Tests for the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_once():
    # root 0..100 with children 10..30 and 40..90; the second child has a
    # grandchild 50..60 and the first a child running past its parent's end
    tree = [
        spans.Span("root", 0, 100, None, 0),
        spans.Span("a", 10, 30, 0, 0),
        spans.Span("b", 40, 90, 0, 0),
        spans.Span("c", 50, 60, 2, 0),
        spans.Span("d", 25, 35, 1, 0),
    ]
    assert spans.self_times(tree) == [30, 15, 40, 10, 10]


def test_self_time_merges_overlapping_children():
    tree = [spans.Span("p", 0, 10, None, 0), spans.Span("x", 2, 6, 0, 0),
            spans.Span("y", 4, 8, 0, 0)]
    assert spans.self_times(tree)[0] == 4


def test_tree_errors_accepts_a_nested_tree():
    tree = [spans.Span("root", 0, 100, None, 0), spans.Span("a", 10, 30, 0, 0),
            spans.Span("b", 40, 90, 0, 0), spans.Span("c", 50, 60, 2, 0),
            spans.Span("root", 100, 150, None, 1)]
    assert spans.tree_errors(tree) == []


def test_tree_errors_flags_a_malformed_tree():
    tree = [
        spans.Span("root", 0, 100, None, 0),
        spans.Span("late", 90, 120, 0, 0),      # runs past its parent
        spans.Span("back", 50, 40, 0, 0),       # ends before it starts
        spans.Span("other", 20, 30, 0, 1),      # another op's child
        spans.Span("orphan", 10, 20, 7, 0),     # parent not recorded
    ]
    errors = spans.tree_errors(tree)
    assert [e.split(" (")[0] for e in errors] == [
        "span 1", "span 2", "span 2", "span 3", "span 4"]
    assert "ends before it starts" in errors[1]


def test_layer_metrics_are_per_op_sums():
    tree = [
        spans.Span("cli.main", 0, 10_000_000, None, 0),
        spans.Span("walk.generate_walk", 0, 4_000_000, 0, 0, work=2000),
        spans.Span("walk.generate_walk", 5_000_000, 9_000_000, 0, 1,
                   work=2000),
    ]
    out = spans.layer_metrics(tree, 2, {"trace.overhead_ms": 0.5})
    assert [m for m, _ in spans.LAYER_METRICS] == list(out)
    assert out["walk.generate_walk.calls"] == 1
    assert out["walk.generate_walk.steps"] == 2000
    assert out["walk.generate_walk.self_ms"] == 4.0
    assert out["walk.generate_walk.ns_per_step"] == 2000.0
    assert out["cli.main.self_ms"] == 1.0
    assert out["fractal.box_count.calls"] == 0
    assert out["trace.overhead_ms"] == 0.5


def test_cpu_per_op_weights_kinds_equally():
    # two fast kinds called often, one slow kind called once: the slow
    # kind's median still counts a third
    cpu = [10.0, 11.0, 90.0, 12.0, 10.0, 40.0]
    kinds = ["a", "a", "a", "b", "b", "c"]
    ref = [reference.REFERENCE_MS] * 7
    assert run.cpu_per_op(cpu, ref, kinds, [1] * 6) == (11 + 11 + 40) / 3


def test_cpu_per_op_scales_by_the_reference_loop():
    # the same work reads the same however fast the host ran: full speed,
    # slowing to a third during the second call, then a third
    ref = reference.REFERENCE_MS
    cpu = [60.0, 120.0, 180.0]
    ref_ms = [ref, ref, 3 * ref, 3 * ref]
    scaled = [run.cpu_per_op([c], ref_ms[i:i + 2], ["x"], [5])
              for i, c in enumerate(cpu)]
    assert scaled == [12.0, 12.0, 12.0]
    assert run.cpu_per_op(cpu, ref_ms, ["x"] * 3, [5, 5, 5]) == 12.0


def test_tail_has_ten_samples_beyond_it():
    pct, value = run.tail([float(x) for x in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
    pct, value = run.tail([float(x) for x in range(20, 0, -1)])
    assert (pct, value) == (50.0, 10.0)


def test_tail_steps_below_ties():
    samples = [1.0] * 5 + [2.0] * 10 + [3.0] * 3
    assert run.tail(samples) == (100 * 5 / 18, 1.0)


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_deterministic_per_seed(name):
    first = list(islice(workloads.ops(name, 3), 12))
    assert first == list(islice(workloads.ops(name, 3), 12))
    other = list(islice(workloads.ops(name, 4), 12))
    assert [o.argv for o in first] != [o.argv for o in other]
    seeds = [o.argv[o.argv.index("--seed") + 1] for o in first]
    assert len(set(seeds)) == len(seeds)


def test_keygen_cycles_every_algorithm():
    algs = [o.argv[-1] for o in islice(workloads.ops("keygen", 9), 6)]
    assert algs[:3] == algs[3:]
    assert sorted(algs[:3]) == sorted(workloads.KEYGEN_ALGS)
    assert [o.kind for o in islice(workloads.ops("keygen", 9), 6)] == algs


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(spans.LAYER_METRICS)


def test_tracer_wraps_and_restores():
    class Box:
        @classmethod
        def make(cls, n):
            return [n]

        def size(self):
            return 3

    import types
    mod = types.SimpleNamespace(double=lambda x: 2 * x)
    raw_make, raw_size = vars(Box)["make"], vars(Box)["size"]
    tracer = spans.Tracer()
    tracer.wrap(mod, "double", "m.double", lambda args, result: result)
    tracer.wrap(Box, "make", "box.make")
    tracer.wrap(Box, "size", "box.size")
    assert tracer.run("root", lambda: mod.double(4) + Box().size()) == 11
    assert Box.make(5) == [5]
    assert [(s.name, s.parent, s.work) for s in tracer.spans] == [
        ("root", None, 0), ("m.double", 0, 8), ("box.size", 0, 0),
        ("box.make", None, 0)]
    tracer.uninstall()
    assert vars(Box)["make"] is raw_make and vars(Box)["size"] is raw_size


def test_keygen_check_catches_a_wrong_key(tmp_path):
    from walkhash.cli import main
    argv = ["keygen", "--n", "2000", "--seed", "11", "--alg", "sha3-512"]
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    key = (tmp_path / "key.json").read_bytes()
    digest = json.loads(key)["digest"]
    assert checks.check_keygen(argv, digest + "\n", {"key.json": key}) is None
    wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = key.replace(digest.encode(), wrong.encode())
    assert checks.check_keygen(argv, wrong + "\n", {"key.json": bad})
