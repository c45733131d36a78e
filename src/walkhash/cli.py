"""Command line interface for the walkhash pipeline.

Four subcommands: keygen (derive one key), walk (dump a trajectory and its
geometry), fractal (dimension sweeps over seeds and lengths), avalanche
(perturbation trials with per-algorithm flip statistics).

Each option is one row of OPTIONS (key, parser, default, help). It can
also come from a flat `key = value` config file passed with --config;
explicit flags win over file values, which win over defaults. Reports
echo the full effective configuration plus the tool version, all files
are written atomically (temp then rename), and JSON is emitted with
sorted keys so identical runs produce byte-identical output.

main(argv) may be called any number of times in one process: the parser is
built on the first call and reused, since parsing neither changes it nor
keeps anything from one call to the next.

Exit codes: 0 success, 2 configuration problem, 3 runtime failure
(including running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cache, partial
from pathlib import Path
from statistics import median
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .diffusion import (_MAX_ROWS, PerturbMode, TrialRecord,
                        default_positions, run_avalanche, trial_summary)
from .errors import ConfigError, DegenerateInput, WalkhashError
from .fractal import estimate_point_dimension, geometry
from .keygen import HashAlg, derive_key
from .stats import ChiSquareMode, ChiSquareResult, chi_square_uniform
from .walk import (
    MAX_POINTS,
    LatticePoint,
    MapMode,
    WalkConfig,
    _integer,
    _member,
    generate_walk,
    lattice_bound,
)


# ---------------------------------------------------------------- parsing

def _point(text: str) -> LatticePoint:
    try:
        xs, ys = text.split(",")
        return LatticePoint(int(xs), int(ys))
    except ValueError:
        raise ValueError(f"expected 'x,y' integers, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(
            f"expected comma-separated integers, got {text!r}") from None


def _directory(text: str) -> Path:
    if "\0" in text:  # no file system path may hold one
        raise ValueError(f"must not contain a NUL byte, got {text!r}")
    return Path(text)


def _formats(text: str) -> frozenset[str]:
    formats = frozenset(p.strip() for p in text.split(",") if p.strip())
    if not formats or formats - {"csv", "json"}:
        raise ValueError(
            f"must be a non-empty subset of csv,json; got {text!r}")
    return formats


def _text(value) -> str | None:
    """A default value in the form a user would type it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return None if value is None else str(value)


# ---------------------------------------------------------------- options

@dataclass(frozen=True)
class Option:
    """One option: `--key VALUE` on the command line or `key = VALUE` in a
    config file. parse turns the text into the value the command reads;
    default is the text used when neither gives one (None: unset)."""

    key: str
    parse: Callable[[str], Any]
    default: str | None
    help: str
    metavar: str | None = None


# parse, metavar and help of each WalkConfig field; key and default come
# from the field itself
_WALK_ROWS = {
    "x0": (_point, "X,Y", "start point"),
    "rho_min": (float, "RHO", "lower contraction bound (0, 1)"),
    "rho_max": (float, "RHO", "upper contraction bound (0, 1)"),
    "b_min": (float, "B", "lower translation bound"),
    "b_max": (float, "B", "upper translation bound"),
    "epsilon": (float, "EPS", "noise half-width, >= 0"),
    "n": (int, "N", "number of walk steps"),
    "seed": (int, "SEED", "base random seed, 0 <= SEED < 2**64"),
    "map_mode": (partial(_member, "map-mode", MapMode), "MODE",
                 "per-step-fresh or fixed-set"),
    "map_count": (int, "M", "template count for fixed-set mode"),
}

_COMMON = (
    Option("output-dir", _directory, ".", "where report files go", "DIR"),
    Option("format", _formats, "csv,json", "comma subset of csv,json",
           "LIST"),
    *(Option(f.name.replace("_", "-"), parse, _text(f.default), help, meta)
      for f in fields(WalkConfig)
      for parse, meta, help in [_WALK_ROWS[f.name]]),
)

# command -> every option it takes, besides --config
OPTIONS: dict[str, tuple[Option, ...]] = {
    "keygen": _COMMON + (
        Option("alg", str, "sha3-512",
               "sha3-512, shake256[-BITS] or blake3[-BITS]", "ALG"),
    ),
    "walk": _COMMON,
    "fractal": _COMMON + (
        Option("n-list", _int_list, "128,500,2000,5000",
               "walk lengths to sweep", "N1,N2,..."),
        Option("num-seeds", int, "20",
               "seeds per length, from the base seed up", "COUNT"),
        Option("box-sizes", _int_list, None,
               "override the dyadic box size schedule", "S1,S2,..."),
        Option("synthetic", str, None,
               "analyze point, line:N or square:N instead of walks", "SPEC"),
    ),
    "avalanche": _COMMON + (
        Option("algs", lambda text: tuple(
                   HashAlg.parse(p) for p in text.split(",") if p.strip()),
               "sha3-512,shake256-512,blake3-256",
               "comma list of algorithms", "LIST"),
        Option("positions", lambda text: None if text.strip() == "auto"
               else _int_list(text), "auto",
               "comma list of perturbation positions, or auto", "LIST"),
        Option("trials", int, "50", "trials per position", "COUNT"),
        Option("mode", partial(_member, "mode", PerturbMode), "point-nudge",
               "point-nudge or re-evolve", "MODE"),
        Option("nudge", _point, "1,0", "perturbation offset", "DX,DY"),
    ),
}


def _load_config_file(path: str, allowed: frozenset[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        if key not in allowed:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} for this command")
        out[key] = value.strip()
    return out


def _read_options(args: argparse.Namespace) -> dict[str, Any]:
    """Every option of the command, parsed; flag beats file beats default."""
    rows = OPTIONS[args.command]
    filecfg = _load_config_file(args.config, frozenset(o.key for o in rows)) \
        if args.config is not None else {}
    opts = {}
    for o in rows:
        name = o.key.replace("-", "_")
        text = getattr(args, name)
        if text is None:
            text = filecfg.get(o.key, o.default)
        try:
            opts[name] = None if text is None else o.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{o.key}: {exc}") from None
    return opts


def _walk_config(opts: dict[str, Any]) -> WalkConfig:
    return WalkConfig(**{f.name: opts[f.name] for f in fields(WalkConfig)})


# ---------------------------------------------------------------- output

def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name per call, so concurrent runs never share a temp file
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_report(opts: dict[str, Any], name: str,
                  config: WalkConfig | None, body: dict) -> None:
    """Write body, the tool version and (unless config is None) the config
    echo to the JSON report `name` if --format includes json."""
    if "json" not in opts["format"]:
        return
    body = {**body, "tool_version": __version__}
    if config is not None:
        body["config"] = {**vars(config), "map_mode": config.map_mode.value}
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    _atomic_write(opts["output_dir"] / name, text.encode())


def _write_csv(opts: dict[str, Any], name: str, header: Sequence[str],
               rows) -> None:
    """Write the CSV report `name` if --format includes csv."""
    if "csv" not in opts["format"]:
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(opts["output_dir"] / name, buf.getvalue().encode())


def _chi_dict(result: ChiSquareResult) -> dict:
    out = {
        "dof": result.dof,
        "p_value": result.p_value,
        "statistic": result.statistic,
    }
    if result.mode is ChiSquareMode.TABLE1:
        # the one-cell statistic sits far below dof for a uniform matrix;
        # flagged so readers do not mistake it for the Bernoulli-mode scale
        out["statistic_well_below_dof"] = result.statistic < 0.75 * result.dof
    return out


# ---------------------------------------------------------------- commands

def cmd_keygen(opts: dict[str, Any]) -> int:
    config = _walk_config(opts)
    alg = HashAlg.parse(opts["alg"])
    digest = derive_key(generate_walk(config), alg).hex()
    _write_report(opts, "key.json", config, {
        "algorithm": alg.label,
        "digest": digest,
        "digest_bits": alg.bits,
    })
    print(digest)
    return 0


def cmd_walk(opts: dict[str, Any]) -> int:
    config = _walk_config(opts)
    trajectory = generate_walk(config)
    report = geometry(trajectory)
    _write_csv(opts, "trajectory.csv", ("index", "x", "y"),
               ((i, x, y) for i, (x, y) in enumerate(trajectory.xy.tolist())))
    _write_report(opts, "geometry.json", config, {
        "geometry": vars(report),
        "lattice_bound": lattice_bound(config),
    })
    print(f"n={config.n} bbox={report.bbox_width}x{report.bbox_height} "
          f"unique={report.unique_points}")
    return 0


def _synthetic_points(spec: str) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "point" and not arg:
        shape = (1, 1)
    elif kind in ("line", "square"):
        try:
            size = int(arg)
        except ValueError:
            size = 0
        if size < 1:
            raise ConfigError(
                f"synthetic {kind} needs a positive size, e.g. {kind}:64")
        shape = (size, 1 if kind == "line" else size)
        if shape[0] * shape[1] > MAX_POINTS:
            raise ConfigError(f"synthetic {spec} has more than 2**58 points")
    else:
        raise ConfigError(
            f"synthetic must be point, line:N, or square:N; got {spec!r}")
    # rows (i, j) with i the slow index
    return np.indices(shape, dtype=np.int64).reshape(2, -1).T


def _sweep(config: WalkConfig, n_list: Sequence[int], num_seeds: int,
           box_sizes: Sequence[int] | None) -> dict[int, list[dict]]:
    """Each n's per-seed estimate entries, in seed order.

    Step i of a walk depends only on (seed, i), so each seed is walked once,
    at its longest n, and each n is estimated from a view of that walk's
    first n + 1 rows; the walk is dropped before the next seed's. If it
    fails, each n is walked alone, so each fails as it would alone. A
    failure is the one the n-major loop (for n, for seed) would meet first.
    """
    ns = list(dict.fromkeys(n_list))
    entries: dict[int, list[dict]] = {n: [] for n in ns}
    failed: tuple[int, WalkhashError] | None = None  # (index into ns, error)
    for offset in range(num_seeds):
        # a later seed can only fail first at an earlier n
        todo = ns if failed is None else ns[:failed[0]]
        if not todo:
            break
        seed_config = replace(config, seed=config.seed + offset)
        longest = None  # frees the last seed's walk before this one's
        try:
            longest = generate_walk(replace(seed_config, n=max(todo)))
        except WalkhashError:
            pass
        for i, n in enumerate(todo):
            try:
                estimate = estimate_point_dimension(
                    generate_walk(replace(seed_config, n=n)).xy
                    if longest is None or n < 1 else longest.xy[:n + 1],
                    box_sizes)
            except WalkhashError as exc:
                failed = (i, exc)
                break
            # vars, not asdict: the fields are flat, so asdict's deep
            # copy only costs time
            entries[n].append({"seed": seed_config.seed, **vars(estimate)})
    if failed is not None:
        raise failed[1]
    return entries


def cmd_fractal(opts: dict[str, Any]) -> int:
    box_sizes, synthetic = opts["box_sizes"], opts["synthetic"]
    if synthetic is not None:
        estimate = estimate_point_dimension(
            _synthetic_points(synthetic), box_sizes)
        _write_report(opts, "fractal.json", None, {
            "estimate": vars(estimate),
            "synthetic": synthetic,
        })
        print(f"synthetic={synthetic} dimension={estimate.dimension:.4f}")
        return 0
    config = _walk_config(opts)
    n_list, num_seeds = opts["n_list"], opts["num_seeds"]
    if not n_list:
        raise ConfigError("n-list must not be empty")
    # the bound avalanche puts on its rows
    _integer("num-seeds", num_seeds, 1, _MAX_ROWS)
    # replace checks that the sweep's last seed is valid before any walk runs
    try:
        replace(config, seed=config.seed + num_seeds - 1)
    except ConfigError as exc:
        raise ConfigError(f"seed + num-seeds - 1: {exc}") from None
    entries = _sweep(config, n_list, num_seeds, box_sizes)
    results = {}
    medians = []
    for n in n_list:
        med = median(entry["dimension"] for entry in entries[n])
        medians.append(med)
        results[str(n)] = {"median_dimension": med, "per_seed": entries[n]}
    trend_ok = all(b >= a for a, b in zip(medians, medians[1:]))
    _write_report(opts, "fractal.json", config, {
        "median_trend_non_decreasing": trend_ok,
        "n_list": list(n_list),
        "num_seeds": num_seeds,
        "results": results,
    })
    for n, med in zip(n_list, medians):
        print(f"n={n} median_dimension={med:.4f}")
    return 0


def cmd_avalanche(opts: dict[str, Any]) -> int:
    config = _walk_config(opts)
    positions = opts["positions"]
    if positions is None:
        positions = default_positions(config.n)
    trials, mode, nudge = opts["trials"], opts["mode"], opts["nudge"]
    outcome = run_avalanche(config, opts["algs"], positions, trials, mode,
                            nudge)
    summary = {}
    for label, (records, matrix) in outcome.items():
        _write_csv(
            opts, f"trials_{label}.csv",
            [f.name for f in fields(TrialRecord)],
            ((r.trial_id, r.position, label, r.hamming, r.bitflip_rate,
              r.delta_entropy, r.flip_vector.hex()) for r in records))
        # the bit matrix is written whatever --format says
        _atomic_write(opts["output_dir"] / f"bitmatrix_{label}.bin",
                      matrix.to_bytes())
        block = trial_summary(records)
        chi = {}
        for m in ChiSquareMode:
            try:
                chi[m.value] = _chi_dict(chi_square_uniform(matrix, m))
            except DegenerateInput as exc:
                # e.g. a zero-nudge run flips no bits; still worth a report
                chi[m.value] = {"degenerate": True, "note": str(exc)}
        block["chi_square"] = chi
        summary[label] = block
        table1 = chi["table1"]
        chi_text = ("degenerate" if table1.get("degenerate")
                    else f"{table1['p_value']:.4f}")
        print(f"{label}: mean_hamming={block['mean_hamming']:.2f}/"
              f"{block['digest_bits']} "
              f"bitflip={block['mean_bitflip_rate']:.4f} "
              f"chi2_p={chi_text}")
    _write_report(opts, "summary.json", config, {
        "algorithms": summary,
        "perturbation": {
            "mode": mode.value,
            "nudge": list(nudge),
            "positions": list(positions),
            "trials_per_position": trials,
        },
    })
    return 0


# ---------------------------------------------------------------- wiring

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigError, so they end in
    one `error:` line and exit 2 like every other bad input."""

    def error(self, message: str):
        raise ConfigError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser. The first call builds it and every later
    call returns that same object; build_parser.__wrapped__() builds a
    fresh one."""
    parser = _Parser(
        prog="walkhash",
        description="Keys from hashed chaotic lattice walks, and the "
                    "measurement harness around them.")
    parser.add_argument("--version", action="version",
                        version=f"walkhash {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
            ("keygen", cmd_keygen, "derive one key from a seeded walk"),
            ("walk", cmd_walk, "dump a trajectory and its geometry"),
            ("fractal", cmd_fractal, "box-counting dimension sweeps"),
            ("avalanche", cmd_avalanche,
             "perturbation trials and flip statistics")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", metavar="FILE",
                       help="flat key = value config file")
        # every value stays text here; _read_options parses it
        for o in OPTIONS[command]:
            default = "" if o.default is None else f" (default: {o.default})"
            p.add_argument(f"--{o.key}", metavar=o.metavar,
                           help=o.help + default)
        p.set_defaults(func=func)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite `--key VALUE` as `--key=VALUE` for the command's options, so
    that a VALUE such as -1,0 or -inf is read as a value, not a flag."""
    if not argv or argv[0] not in OPTIONS:
        return argv
    flags = {"--config", *(f"--{o.key}" for o in OPTIONS[argv[0]])}
    out, rest = argv[:1], iter(argv[1:])
    for token in rest:
        value = next(rest, None) if token in flags else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_attach_values(argv))
        return args.func(_read_options(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WalkhashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # Python's own MemoryError carries no message; numpy's names the size
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
