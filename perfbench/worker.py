"""Runs one workload in its own process and writes the raw results as JSON.

Started by run.py with walkhash's `src/` on PYTHONPATH and numpy's thread
pools pinned to one thread. It drives the CLI in-process through
`walkhash.cli.main(argv)`, one call at a time (a closed loop with one
client), after one untimed warm-up call.

Untraced: calls run until --seconds have passed. Traced: an untraced pass
runs for half the time, then the same calls run again with spans on; the
two passes must write byte-identical reports.

    python3 perfbench/worker.py --workload keygen --seed 1 --seconds 10 \
        --trace 0 --tmp DIR --result FILE [--spans FILE]
    python3 perfbench/worker.py --workload keygen --pin-calls 600 \
        --tmp DIR --result FILE
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"


@dataclass
class Outcome:
    op: workloads.Op
    latency_ns: int
    cpu_ns: int
    reference_ns: int
    exit_code: int | None
    stdout: str
    files: dict[str, bytes]
    error: str | None = None

    @property
    def manifest(self) -> str:
        return checks.manifest(self.stdout, self.files)


def run_op(op: workloads.Op, tmp: Path, tracer=None) -> Outcome:
    """One CLI call in a fresh output directory, which is then removed.
    The reference loop runs just before it, to gauge the host's speed."""
    from walkhash.cli import main
    outdir = tmp / f"op{op.index}"
    outdir.mkdir()
    argv = [*op.argv, "--output-dir", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    error = None
    reference_ns = reference.cpu_ns()
    cpu_start = time.process_time_ns()
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                tracer.op = op.index
                code = tracer.run("cli.main", main, argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start
    cpu = time.process_time_ns() - cpu_start
    files = {p.name: p.read_bytes() for p in outdir.iterdir()}
    shutil.rmtree(outdir)
    if code != 0 and error is None:
        error = f"exit {code}: {err.getvalue().strip()}"
    return Outcome(op, latency, cpu, reference_ns, code, out.getvalue(), files,
                   error)


def closed_loop(stream, tmp: Path, seconds: float) -> tuple[list, float]:
    """Run calls from stream until seconds have passed; return wall time."""
    outcomes = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        outcomes.append(run_op(next(stream), tmp))
    return outcomes, time.perf_counter() - start


def verify(workload: str, outcomes: list[Outcome],
           pins: list[str]) -> dict[int, str]:
    """Map op index -> reason for every call whose outputs are wrong."""
    check = checks.CHECKS[workload]
    bad = {}
    for o in outcomes:
        reason = o.error
        if reason is None and o.op.index < len(pins) \
                and o.manifest != pins[o.op.index]:
            reason = "outputs differ from the pinned hashes"
        if reason is None:
            reason = check(o.op.argv, o.stdout, o.files)
        if reason is not None:
            bad[o.op.index] = reason
    return bad


def host() -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-calls", type=int, default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import walkhash
    if not Path(walkhash.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"walkhash imported from {walkhash.__file__}, "
                 f"not from {ROOT / 'src'}")
    stream = workloads.ops(args.workload, args.seed)

    if args.pin_calls:
        outcomes = [run_op(next(stream), args.tmp)
                    for _ in range(args.pin_calls)]
        bad = verify(args.workload, outcomes, [])
        if bad:
            sys.exit(f"not pinning failed calls: {bad}")
        args.result.write_text(json.dumps([o.manifest for o in outcomes]))
        return 0

    warmup = run_op(next(stream), args.tmp)
    timed, wall = closed_loop(stream, args.tmp,
                              args.seconds / 2 if args.trace else args.seconds)
    reference_end = reference.cpu_ns()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pins = json.loads(PINS.read_text())[args.workload] \
        if args.seed == workloads.DEFAULT_SEED else []
    bad = verify(args.workload, [warmup, *timed], pins)
    if args.trace:
        traced = traced_pass(timed, args)
        bad.update(traced.pop("mismatched"))
    result = {
        "host": host(),
        "calls": len(timed),
        "attempted": sum(o.op.units for o in timed),
        "failed": sum(o.op.units for o in timed if o.op.index in bad),
        "completed": sum(o.op.units for o in timed if o.exit_code == 0),
        "wall_s": wall,
        "latencies_ms": [o.latency_ns / 1e6 for o in timed],
        "cpu_ms": [o.cpu_ns / 1e6 for o in timed],
        # the loop's run before each call, then one after the last call
        "reference_ms": [o.reference_ns / 1e6 for o in timed]
        + [reference_end / 1e6],
        "kinds": [o.op.kind for o in timed],
        "units": [o.op.units for o in timed],
        "peak_rss_kb": peak_rss_kb,
        "errors": sorted(bad.items())[:5],
        "correct": not bad,
    }
    if args.trace:
        result.update(traced)
        result["correct"] = not bad and not traced["trace_errors"]
    args.result.write_text(json.dumps(result))
    return 0


def traced_pass(untraced: list[Outcome], args) -> dict:
    """Re-run the untraced pass's calls with spans on; compare and report."""
    tracer = spans.Tracer()
    spans.install_walkhash(tracer)
    try:
        traced = [run_op(o.op, args.tmp, tracer) for o in untraced]
    finally:
        tracer.uninstall()
    mismatched = {t.op.index: "traced call wrote other bytes"
                  for t, u in zip(traced, untraced)
                  if t.manifest != u.manifest or t.error}
    untraced_wall = sum(u.latency_ns for u in untraced) / 1e6
    traced_wall = sum(t.latency_ns for t in traced) / 1e6
    self_total = sum(spans.self_times(tracer.spans)) / 1e6
    ops = sum(o.op.units for o in traced)
    layers = spans.layer_metrics(tracer.spans, ops, {
        "cli.files_written": sum(len(t.files) for t in traced) / ops,
        "cli.bytes_written":
            sum(len(d) for t in traced for d in t.files.values()) / ops,
        "trace.overhead_ms": (traced_wall - untraced_wall) / ops,
    })
    if args.spans:
        with args.spans.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    roots = sum(s.end_ns - s.start_ns
                for s in tracer.spans if s.parent is None) / 1e6
    errors = spans.tree_errors(tracer.spans)[:5]
    if roots > traced_wall:
        errors.append(f"the cli.main spans last {roots:.1f} ms, more than "
                      f"the traced wall time {traced_wall:.1f} ms")
    if self_total > traced_wall:
        errors.append(f"self times sum to {self_total:.1f} ms, more than "
                      f"the traced wall time {traced_wall:.1f} ms")
    return {
        "layers": layers,
        "untraced_wall_ms": untraced_wall,
        "traced_wall_ms": traced_wall,
        "self_total_ms": self_total,
        "trace_errors": errors,
        "mismatched": mismatched,
    }


if __name__ == "__main__":
    sys.exit(main())
