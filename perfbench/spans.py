"""In-memory spans around walkhash's layer functions, for the traced run.

The tracer replaces a function at the module (or class) attribute its
callers look it up by, e.g. `walkhash.diffusion.generate_walk`, with a
wrapper that records a span: name, start, end, parent span and op id, plus
one optional work count (steps, bytes, points). Nothing inside `src/`
changes; `uninstall` puts every original back.

A span's self time is its duration minus the part of it its child spans
cover. Per-layer metrics are sums over spans of one name, divided by the
number of ops the traced pass ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

# (name, unit) of every per-layer metric; names are `<layer>.<metric>`.
_DIGEST_METRICS = (("calls", "calls/op"), ("bytes", "B/op"),
                   ("self_ms", "ms/op"), ("mb_per_s", "MB/s"))
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("walk.generate_walk.calls", "calls/op"),
    ("walk.generate_walk.steps", "steps/op"),
    ("walk.generate_walk.self_ms", "ms/op"),
    ("walk.generate_walk.ns_per_step", "ns/step"),
    *((f"keygen.digest_bytes.{alg}.{m}", unit)
      for alg in ("sha3-512", "shake256-512", "blake3-256")
      for m, unit in _DIGEST_METRICS),
    ("keygen.serialize_trajectory.calls", "calls/op"),
    ("keygen.serialize_trajectory.bytes", "B/op"),
    ("keygen.serialize_trajectory.self_ms", "ms/op"),
    ("diffusion.perturb.calls", "calls/op"),
    ("diffusion.perturb.steps_replayed", "steps/op"),
    ("diffusion.perturb.self_ms", "ms/op"),
    ("diffusion.run_avalanche.self_ms", "ms/op"),
    ("diffusion.shannon_entropy.self_ms", "ms/op"),
    ("diffusion.bitmatrix.self_ms", "ms/op"),
    ("diffusion.trial_summary.self_ms", "ms/op"),
    ("stats.chi_square_uniform.calls", "calls/op"),
    ("stats.chi_square_uniform.self_ms", "ms/op"),
    ("fractal.box_count.calls", "calls/op"),
    ("fractal.box_count.points", "points/op"),
    ("fractal.box_count.self_ms", "ms/op"),
    ("fractal.estimate_point_dimension.self_ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("cli.files_written", "files/op"),
    ("cli.bytes_written", "B/op"),
    ("trace.overhead_ms", "ms/op"),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None      # index into the tracer's span list
    op: int
    work: int = 0


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, reach)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end_ns - s.start_ns - covered)
    return out


def tree_errors(spans: list[Span]) -> list[str]:
    """Why spans are not a well-formed tree: a span that ends before it
    starts, or a child that is not inside its parent's interval and op."""
    errors = []
    for i, s in enumerate(spans):
        if s.end_ns < s.start_ns:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent is None:
            continue
        p = spans[s.parent] if 0 <= s.parent < i else None
        if p is None:
            errors.append(f"span {i} ({s.name}) has no earlier parent")
        elif not p.start_ns <= s.start_ns <= s.end_ns <= p.end_ns \
                or s.op != p.op:
            errors.append(f"span {i} ({s.name}) is not inside its parent "
                          f"{s.parent} ({p.name})")
    return errors


class Tracer:
    """Records spans for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, work, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), 0, parent, self.op)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
        if work is not None:
            span.work = work(args, result)
        return result

    def wrap(self, owner: object, attr: str, name: str | Callable,
             work: Callable | None = None) -> None:
        """Trace every call made through owner.attr from now on.

        name is a span name or a function of the call's arguments that
        returns one; work maps (args, result) to the span's work count.
        """
        raw = vars(owner)[attr]
        target = getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        call = target if is_classmethod else raw

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            return self._call(label, work, call, args, kwargs)

        setattr(owner, attr,
                staticmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def install_walkhash(tracer: Tracer) -> None:
    """Wrap walkhash's layer functions where their callers find them."""
    from walkhash import cli, diffusion, fractal, keygen
    from walkhash.diffusion import BitMatrix, PerturbMode

    def walk_steps(args, result):
        return args[0].n

    def result_len(args, result):
        return len(result)

    def first_arg_len(args, result):
        return len(args[0])

    def digest_name(args):
        return f"keygen.digest_bytes.{args[1].label}"

    def replayed(args, result):
        t, spec = args
        return t.n - spec.position if spec.mode is PerturbMode.RE_EVOLVE else 0

    for module in (cli, diffusion):
        tracer.wrap(module, "generate_walk", "walk.generate_walk", walk_steps)
    for module in (keygen, diffusion):
        tracer.wrap(module, "serialize_trajectory",
                    "keygen.serialize_trajectory", result_len)
        tracer.wrap(module, "digest_bytes", digest_name, first_arg_len)
    tracer.wrap(diffusion, "perturb", "diffusion.perturb", replayed)
    tracer.wrap(cli, "run_avalanche", "diffusion.run_avalanche")
    tracer.wrap(diffusion, "shannon_entropy", "diffusion.shannon_entropy")
    tracer.wrap(BitMatrix, "from_flip_vectors", "diffusion.bitmatrix")
    tracer.wrap(BitMatrix, "to_bytes", "diffusion.bitmatrix")
    tracer.wrap(cli, "trial_summary", "diffusion.trial_summary")
    tracer.wrap(cli, "chi_square_uniform", "stats.chi_square_uniform")
    tracer.wrap(fractal, "box_count", "fractal.box_count", first_arg_len)
    for module in (cli, fractal):
        tracer.wrap(module, "estimate_point_dimension",
                    "fractal.estimate_point_dimension")


def layer_metrics(spans: list[Span], ops: int,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans of a pass of `ops` ops.

    Counts and times are per op; rates are over the whole pass. `extra`
    supplies the per-op values that do not come from spans.
    """
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for s, own in zip(spans, self_times(spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work
        self_ns[s.name] = self_ns.get(s.name, 0) + own
    out = {}
    for metric, _ in LAYER_METRICS:
        if metric in extra:
            out[metric] = extra[metric]
            continue
        layer, _, kind = metric.rpartition(".")
        ns, done = self_ns.get(layer, 0), work.get(layer, 0)
        if kind == "calls":
            out[metric] = calls.get(layer, 0) / ops
        elif kind == "self_ms":
            out[metric] = ns / 1e6 / ops
        elif kind == "ns_per_step":
            out[metric] = ns / done if done else 0.0
        elif kind == "mb_per_s":
            out[metric] = done / (ns / 1e3) if ns else 0.0  # B/us == MB/s
        else:
            out[metric] = done / ops
    return out
