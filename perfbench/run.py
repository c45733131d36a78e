"""The walkhash benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload keygen --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --write-pins              # re-record pins.json

Run it from anywhere; it uses the `src/` next to this directory. With
--trace 0 it reports the end-to-end metrics of END_TO_END: setup_s (the
median CPU time of a fresh interpreter importing walkhash.cli and building
its parser), ref_ms_per_op (see cpu_per_op) and the workload process's
peak RSS. It also prints, without gating them, the wall-clock figures:
ops_per_s, the median per-call latency, the highest percentile with at
least ten calls beyond it, and failed_ratio. With --trace 1 it reports the
per-layer metrics of spans.LAYER_METRICS. Either way the last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Why the gated timings are scaled CPU times: on a shared 2-core virtual
machine, across ten 20-second runs, wall-clock medians, tails and ops per
second spread by up to 0.38 of their median, and the fastest call of a run
moved by 28% between two sets of runs. Per-call CPU time moved by as much
(34 to 56 ms on keygen), because other tenants slow the core itself. CPU
time divided by that of a fixed reference loop run just before it moved by
under 5%; see reference.py.

Outputs are checked on every run (see checks.py); with the default seed
they must also match the hashes pinned in pins.json. Host metadata and
details go to .perfbench-out/ beside the printed result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from bisect import bisect_right
from pathlib import Path
from statistics import median

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 15
# Calls pinned per workload at the default seed: more than a run of 15 s
# makes today, so a faster program stays covered for a while.
PIN_CALLS = {"keygen": 600, "avalanche": 120, "avalanche-reevolve": 240,
             "fractal": 400}
END_TO_END = {"setup_s": "s", "ref_ms_per_op": "ref_ms",
              "peak_rss_mb": "MB"}
REPORTED = {"ops_per_s": "ops/s", "latency_p50_ms": "ms",
            "latency_tail_ms": "ms"}


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it. With ten samples or fewer none has; the maximum is
    returned as the 100th percentile."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    k = n - 11
    while k > 0 and n - bisect_right(xs, xs[k]) < 10:
        k -= 1
    return 100.0 * bisect_right(xs, xs[k]) / n, xs[k]


def cpu_per_op(cpu_ms: list[float], reference_ms: list[float],
               kinds: list[str], units: list[int]) -> float:
    """Mean over call kinds of the median scaled CPU time per op of that
    kind, in milliseconds at the reference speed (reference.scale).

    reference_ms holds the reference loop's CPU time before each call and
    after the last one; a call is scaled by the mean of the runs on either
    side of it, since the host's speed can change during a long call.

    The median keeps one slow call from moving the figure; taking it per
    kind keeps every kind in it, so on keygen a change to BLAKE3 shows even
    though only a third of the calls use it. Kinds count equally, as they
    do in the workloads' call cycles.
    """
    per_kind: dict[str, list[float]] = {}
    around = [(a + b) / 2 for a, b in zip(reference_ms, reference_ms[1:])]
    for ms, ref_ms, kind, n in zip(cpu_ms, around, kinds, units):
        scaled = reference.scale(ms / n, ref_ms)
        per_kind.setdefault(kind, []).append(scaled)
    return sum(median(v) for v in per_kind.values()) / len(per_kind)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


# Takes the CPU time since the interpreter started once the parser is
# built, then the median of three runs of the reference loop in the same
# process.
SETUP_CODE = """\
import time, walkhash.cli as cli
cli.build_parser()
cpu_ns = time.process_time_ns()
import sys
sys.path.insert(0, sys.argv[1])
import reference
print(cpu_ns, sorted(reference.cpu_ns() for _ in range(3))[1])
"""


def setup_seconds(env: dict[str, str]) -> float:
    """Median scaled CPU time of a fresh interpreter importing the CLI and
    building its parser; the first, untimed start compiles the bytecode
    cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                             capture_output=True, text=True).stdout
        cpu_ns, reference_ns = map(int, out.split())
        if i:
            times.append(reference.scale(cpu_ns / 1e9, reference_ns / 1e6))
    return median(times)


def worker(env, tmp: Path, *args: str, timeout: float | None = None):
    """Run worker.py with args; return the JSON it writes."""
    result = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--tmp", str(tmp), "--result", str(result)]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=timeout)
    return json.loads(result.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 env, tmp: Path) -> dict:
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    # The checks after the timed loop take up to about as long again.
    timeout = 60 + 4 * seconds
    if trace:
        args += ["--spans", str(OUT / f"spans-{name}-seed{seed}.jsonl")]
        raw = worker(env, tmp, *args, timeout=timeout)
        units = dict(spans.LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in raw["layers"].items()}
    else:
        setup = setup_seconds(env)
        raw = worker(env, tmp, *args, timeout=timeout)
        pct, tail_ms = tail(raw["latencies_ms"])
        raw["tail_percentile"] = pct
        raw["reference_loop_ms"] = median(raw["reference_ms"])
        values = {
            "setup_s": setup,
            "ref_ms_per_op": cpu_per_op(raw["cpu_ms"], raw["reference_ms"],
                                        raw["kinds"], raw["units"]),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
            "ops_per_s": raw["completed"] / raw["wall_s"],
            "latency_p50_ms": median(raw["latencies_ms"]),
            "latency_tail_ms": tail_ms,
        }
        units = {**END_TO_END, **REPORTED}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
    for key in ("latencies_ms", "cpu_ms", "reference_ms", "kinds", "units",
                "layers"):
        raw.pop(key, None)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "why": workloads.WHY[name], "detail": raw,
              "metrics": metrics}
    if trace:
        report["predictions"] = workloads.PREDICTIONS
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report)
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {k: v for k, v in metrics.items() if k not in REPORTED}}


def print_report(report: dict) -> None:
    d = report["detail"]
    h = d["host"]
    print(f"== {report['workload']}  seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"   host: nproc={h['nproc']} cpu={h['cpu']!r} "
          f"python={h['python']} numpy={h['numpy']}")
    if "reference_loop_ms" in d:
        print(f"   reference loop: median {d['reference_loop_ms']:.3f} ms "
              f"CPU; ref_ms are ms at {reference.REFERENCE_MS} ms")
    for name, m in report["metrics"].items():
        note = ""
        if name in REPORTED:
            note = "  (not gated)"
        if name.startswith("latency_") or name == "ref_ms_per_op":
            note += f"  (n={d['calls']} calls"
            if name == "latency_tail_ms":
                note += f", p{d['tail_percentile']:.1f}"
            note += ")"
        print(f"   {name:<44} {m['value']:>14.4f} {m['unit']}{note}")
    ratio = d["failed"] / d["attempted"] if d["attempted"] else 1.0
    print(f"   {'failed_ratio':<44} {ratio:>14.4f} failed/attempted "
          f"({d['failed']}/{d['attempted']} ops)")
    if report["trace"]:
        print(f"   traced pass {d['traced_wall_ms']:.1f} ms, untraced "
              f"{d['untraced_wall_ms']:.1f} ms, self times sum to "
              f"{d['self_total_ms']:.1f} ms")
    for index, reason in d["errors"]:
        print(f"   failed op {index}: {reason}")
    for reason in d.get("trace_errors", []):
        print(f"   trace check: {reason}")


def write_pins(env, tmp: Path) -> None:
    pins = {}
    for name, calls in PIN_CALLS.items():
        pins[name] = worker(env, tmp, "--workload", name,
                            "--seed", str(workloads.DEFAULT_SEED),
                            "--pin-calls", str(calls))
        print(f"pinned {calls} {name} calls", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=0) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "walkhash" / "cli.py").is_file():
        print(f"error: no walkhash sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            if args.write_pins:
                write_pins(env, Path(tmp))
                return 0
            names = workloads.WORKLOADS if args.workload == "all" \
                else (args.workload,)
            for name in names:
                result = run_workload(name, args.seed, args.seconds,
                                      args.trace, env, Path(tmp))
                print(json.dumps(result), flush=True)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
