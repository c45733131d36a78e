"""Command line interface for the walkhash pipeline.

Four subcommands: keygen (derive one key), walk (dump a trajectory and its
geometry), fractal (dimension sweeps over seeds and lengths), avalanche
(perturbation trials with per-algorithm flip statistics).

Every option can also come from a flat `key = value` config file passed
with --config; explicit flags win over file values, which win over
defaults. Reports echo the full effective configuration plus the tool
version, all files are written atomically (temp then rename), and JSON is
emitted with sorted keys so identical runs produce byte-identical output.

Exit codes: 0 success, 2 configuration problem, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from statistics import median
from typing import Callable, Sequence

from . import __version__
from .diffusion import PerturbMode, default_positions, run_avalanche, trial_summary
from .errors import ConfigError, DegenerateInput, WalkhashError
from .fractal import estimate_dimension, estimate_point_dimension, geometry
from .keygen import HashAlg, derive_key
from .stats import ChiSquareMode, ChiSquareResult, chi_square_uniform
from .walk import LatticePoint, MapMode, WalkConfig, generate_walk, lattice_bound

_DEFAULTS = WalkConfig()
_DEFAULT_ALGS = "sha3-512,shake256-512,blake3-256"
_DEFAULT_N_LIST = (128, 500, 2000, 5000)

_WALK_KEYS = frozenset(f.name.replace("_", "-") for f in fields(WalkConfig))
_COMMON_KEYS = frozenset({"output-dir", "format"})


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


def _load_config_file(path: str, allowed: frozenset[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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


def _resolve(args: argparse.Namespace, filecfg: dict[str, str], key: str,
             conv: Callable, default):
    """Flag beats config file beats default."""
    value = getattr(args, key.replace("-", "_"))
    if value is not None:
        return value
    if key in filecfg:
        try:
            return conv(filecfg[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return default


def _walk_config(args: argparse.Namespace,
                 filecfg: dict[str, str]) -> WalkConfig:
    mode_text = _resolve(args, filecfg, "map-mode", str,
                         _DEFAULTS.map_mode.value)
    try:
        mode = MapMode(mode_text)
    except ValueError:
        choices = ", ".join(m.value for m in MapMode)
        raise ConfigError(
            f"map-mode must be one of: {choices}; got {mode_text!r}") from None
    config = WalkConfig(
        x0=_resolve(args, filecfg, "x0", _point, _DEFAULTS.x0),
        rho_min=_resolve(args, filecfg, "rho-min", float, _DEFAULTS.rho_min),
        rho_max=_resolve(args, filecfg, "rho-max", float, _DEFAULTS.rho_max),
        b_min=_resolve(args, filecfg, "b-min", float, _DEFAULTS.b_min),
        b_max=_resolve(args, filecfg, "b-max", float, _DEFAULTS.b_max),
        epsilon=_resolve(args, filecfg, "epsilon", float, _DEFAULTS.epsilon),
        n=_resolve(args, filecfg, "n", int, _DEFAULTS.n),
        seed=_resolve(args, filecfg, "seed", int, _DEFAULTS.seed),
        map_mode=mode,
        map_count=_resolve(args, filecfg, "map-count", int, None),
    )
    config.validate()
    return config


def _io_options(args: argparse.Namespace,
                filecfg: dict[str, str]) -> tuple[Path, frozenset[str]]:
    outdir = Path(_resolve(args, filecfg, "output-dir", str, "."))
    fmt = _resolve(args, filecfg, "format", str, "csv,json")
    formats = frozenset(p.strip() for p in fmt.split(",") if p.strip())
    unknown = formats - {"csv", "json"}
    if unknown or not formats:
        raise ConfigError(
            f"format must be a non-empty subset of csv,json; got {fmt!r}")
    return outdir, formats


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


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _atomic_write(path, text.encode())


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue().encode())


def _config_echo(config: WalkConfig) -> dict:
    return {**asdict(config), "map_mode": config.map_mode.value}


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

def cmd_keygen(args: argparse.Namespace) -> int:
    allowed = _WALK_KEYS | _COMMON_KEYS | {"alg", "out-len"}
    filecfg = _load_config_file(args.config, allowed) if args.config else {}
    config = _walk_config(args, filecfg)
    outdir, formats = _io_options(args, filecfg)
    alg = HashAlg.parse(
        _resolve(args, filecfg, "alg", str, "sha3-512"),
        _resolve(args, filecfg, "out-len", int, None))
    digest = derive_key(generate_walk(config), alg)
    if "json" in formats:
        _write_json(outdir / "key.json", {
            "algorithm": alg.label,
            "config": _config_echo(config),
            "digest": digest.hex,
            "digest_bits": digest.bits,
            "tool_version": __version__,
        })
    print(digest.hex)
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    allowed = _WALK_KEYS | _COMMON_KEYS
    filecfg = _load_config_file(args.config, allowed) if args.config else {}
    config = _walk_config(args, filecfg)
    outdir, formats = _io_options(args, filecfg)
    trajectory = generate_walk(config)
    report = geometry(trajectory)
    if "csv" in formats:
        _write_csv(outdir / "trajectory.csv", ("index", "x", "y"),
                   ((i, x, y)
                    for i, (x, y) in enumerate(trajectory.xy.tolist())))
    if "json" in formats:
        _write_json(outdir / "geometry.json", {
            "config": _config_echo(config),
            "geometry": asdict(report),
            "lattice_bound": lattice_bound(config),
            "tool_version": __version__,
        })
    print(f"n={config.n} bbox={report.bbox_width}x{report.bbox_height} "
          f"unique={report.unique_points}")
    return 0


def _synthetic_points(spec: str) -> list[LatticePoint]:
    kind, _, arg = spec.partition(":")
    if kind == "point" and not arg:
        return [LatticePoint(0, 0)]
    if kind in ("line", "square"):
        try:
            size = int(arg)
        except ValueError:
            size = 0
        if size < 1:
            raise ConfigError(
                f"synthetic {kind} needs a positive size, e.g. {kind}:64")
        if kind == "line":
            return [LatticePoint(i, 0) for i in range(size)]
        return [LatticePoint(i, j)
                for i in range(size) for j in range(size)]
    raise ConfigError(
        f"synthetic must be point, line:N, or square:N; got {spec!r}")


def cmd_fractal(args: argparse.Namespace) -> int:
    allowed = _WALK_KEYS | _COMMON_KEYS \
        | {"n-list", "num-seeds", "box-sizes", "synthetic"}
    filecfg = _load_config_file(args.config, allowed) if args.config else {}
    outdir, formats = _io_options(args, filecfg)
    box_sizes = _resolve(args, filecfg, "box-sizes", _int_list, None)
    synthetic = _resolve(args, filecfg, "synthetic", str, None)
    if synthetic is not None:
        estimate = estimate_point_dimension(
            _synthetic_points(synthetic), box_sizes)
        if "json" in formats:
            _write_json(outdir / "fractal.json", {
                "estimate": asdict(estimate),
                "synthetic": synthetic,
                "tool_version": __version__,
            })
        print(f"synthetic={synthetic} dimension={estimate.dimension:.4f}")
        return 0
    config = _walk_config(args, filecfg)
    n_list = _resolve(args, filecfg, "n-list", _int_list, _DEFAULT_N_LIST)
    num_seeds = _resolve(args, filecfg, "num-seeds", int, 20)
    if not n_list:
        raise ConfigError("n-list must not be empty")
    if num_seeds < 1:
        raise ConfigError(f"num-seeds must be >= 1, got {num_seeds!r}")
    results = {}
    medians = []
    for n in n_list:
        per_seed = []
        for offset in range(num_seeds):
            cfg = replace(config, n=n, seed=config.seed + offset)
            est = estimate_dimension(generate_walk(cfg), box_sizes)
            per_seed.append({"seed": cfg.seed, **asdict(est)})
        med = median(entry["dimension"] for entry in per_seed)
        medians.append(med)
        results[str(n)] = {"median_dimension": med, "per_seed": per_seed}
    trend_ok = all(b >= a for a, b in zip(medians, medians[1:]))
    if "json" in formats:
        _write_json(outdir / "fractal.json", {
            "config": _config_echo(config),
            "median_trend_non_decreasing": trend_ok,
            "n_list": list(n_list),
            "num_seeds": num_seeds,
            "results": results,
            "tool_version": __version__,
        })
    for n, med in zip(n_list, medians):
        print(f"n={n} median_dimension={med:.4f}")
    return 0


def cmd_avalanche(args: argparse.Namespace) -> int:
    allowed = _WALK_KEYS | _COMMON_KEYS \
        | {"algs", "positions", "trials", "mode", "nudge"}
    filecfg = _load_config_file(args.config, allowed) if args.config else {}
    config = _walk_config(args, filecfg)
    outdir, formats = _io_options(args, filecfg)
    algs_text = _resolve(args, filecfg, "algs", str, _DEFAULT_ALGS)
    algs = [HashAlg.parse(part)
            for part in algs_text.split(",") if part.strip()]
    if not algs:
        raise ConfigError(f"algs is empty: {algs_text!r}")
    positions_text = _resolve(args, filecfg, "positions", str, "auto")
    if positions_text.strip() == "auto":
        positions = default_positions(config.n)
    else:
        try:
            positions = _int_list(positions_text)
        except ValueError as exc:
            raise ConfigError(f"positions: {exc}") from exc
    trials = _resolve(args, filecfg, "trials", int, 50)
    mode_text = _resolve(args, filecfg, "mode", str,
                         PerturbMode.POINT_NUDGE.value)
    try:
        mode = PerturbMode(mode_text)
    except ValueError:
        choices = ", ".join(m.value for m in PerturbMode)
        raise ConfigError(
            f"mode must be one of: {choices}; got {mode_text!r}") from None
    nudge = _resolve(args, filecfg, "nudge", _point, (1, 0))
    outcome = run_avalanche(config, algs, positions, trials, mode, nudge)
    summary = {}
    for label, (records, matrix) in outcome.items():
        if "csv" in formats:
            _write_csv(
                outdir / f"trials_{label}.csv",
                ("trial_id", "position", "alg", "hamming", "bitflip_rate",
                 "delta_entropy", "flip_vector"),
                ((r.trial_id, r.position, label, r.hamming, r.bitflip_rate,
                  r.delta_entropy, r.flip_vector.hex()) for r in records))
        _atomic_write(outdir / f"bitmatrix_{label}.bin", matrix.to_bytes())
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
    if "json" in formats:
        _write_json(outdir / "summary.json", {
            "algorithms": summary,
            "config": _config_echo(config),
            "perturbation": {
                "mode": mode.value,
                "nudge": list(nudge),
                "positions": list(positions),
                "trials_per_position": trials,
            },
            "tool_version": __version__,
        })
    return 0


# ---------------------------------------------------------------- wiring

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value config file")
    parser.add_argument("--output-dir", metavar="DIR",
                        help="where report files go (default: .)")
    parser.add_argument("--format", metavar="LIST",
                        help="comma subset of csv,json (default: both)")


def _add_walk_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--n", type=int, help="number of walk steps")
    parser.add_argument("--x0", type=_point, metavar="X,Y",
                        help="start point")
    parser.add_argument("--rho-min", type=float,
                        help="lower contraction bound (0, 1)")
    parser.add_argument("--rho-max", type=float,
                        help="upper contraction bound (0, 1)")
    parser.add_argument("--b-min", type=float,
                        help="lower translation bound")
    parser.add_argument("--b-max", type=float,
                        help="upper translation bound")
    parser.add_argument("--epsilon", type=float,
                        help="noise half-width, >= 0")
    parser.add_argument("--map-mode",
                        choices=[m.value for m in MapMode],
                        help="per-step-fresh (default) or fixed-set")
    parser.add_argument("--map-count", type=int,
                        help="template count for fixed-set mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkhash",
        description="Keys from hashed chaotic lattice walks, and the "
                    "measurement harness around them.")
    parser.add_argument("--version", action="version",
                        version=f"walkhash {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="derive one key from a seeded walk")
    _add_common(p)
    _add_walk_flags(p)
    p.add_argument("--alg", help="sha3-512, shake256[-BITS], blake3[-BITS]")
    p.add_argument("--out-len", type=int, metavar="BYTES",
                   help="digest length for extendable algorithms")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("walk", help="dump a trajectory and its geometry")
    _add_common(p)
    _add_walk_flags(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("fractal",
                       help="box-counting dimension sweeps")
    _add_common(p)
    _add_walk_flags(p)
    p.add_argument("--n-list", type=_int_list, metavar="N1,N2,...",
                   help="walk lengths to sweep (default 128,500,2000,5000)")
    p.add_argument("--num-seeds", type=int,
                   help="seeds per length, starting at --seed (default 20)")
    p.add_argument("--box-sizes", type=_int_list, metavar="S1,S2,...",
                   help="override the dyadic box size schedule")
    p.add_argument("--synthetic", metavar="SPEC",
                   help="analyze point, line:N, or square:N instead of walks")
    p.set_defaults(func=cmd_fractal)

    p = sub.add_parser("avalanche",
                       help="perturbation trials and flip statistics")
    _add_common(p)
    _add_walk_flags(p)
    p.add_argument("--algs", metavar="LIST",
                   help=f"comma list of algorithms "
                        f"(default {_DEFAULT_ALGS})")
    p.add_argument("--positions", metavar="LIST",
                   help="comma list of perturbation positions, or auto")
    p.add_argument("--trials", type=int,
                   help="trials per position (default 50)")
    p.add_argument("--mode", choices=[m.value for m in PerturbMode],
                   help="point-nudge (default) or re-evolve")
    p.add_argument("--nudge", type=_point, metavar="DX,DY",
                   help="perturbation offset (default 1,0)")
    p.set_defaults(func=cmd_avalanche)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WalkhashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
