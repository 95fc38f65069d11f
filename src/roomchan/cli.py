"""Command-line surface: path dumps, theory curves, ensembles, signal traces.

Flag values override file values which override built-in defaults. Exit
codes: 0 success/PASS, 1 check FAIL, 2 usage or configuration error or a
request over a resource cap, 3 I/O.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, config as cfgmod, montecarlo, theory
from ._csv import write_csv
from .channel import PHASE_MODES, SampleGrid, enumerate_paths, synthesis_grid, synthesize_signal
from .errors import ConfigError, ResourceLimitError
from .theory import SceneSummary, TheoryCurve

_THEORY_CURVES = ("count", "rate", "pds", "mixing")


def _build_scene(doc: dict, fixed: bool = False):
    """Room, radio, tx and rx patterns and positions (None if not given) of ``doc``, and their summary.

    A ``fixed`` scene needs positions, and its beams are aimed only once the summary accepts them.
    """
    room, radio = cfgmod.build_room(doc), cfgmod.build_radio(doc)
    patterns = cfgmod.build_pattern(doc, "tx"), cfgmod.build_pattern(doc, "rx")
    positions = cfgmod.positions_from(doc, room) if fixed or "positions" in doc else (None, None)
    scene = SceneSummary.from_components(room, radio, *patterns, *positions)
    if fixed:
        patterns = cfgmod.aimed_patterns(doc, patterns, *positions)
    return (room, radio, *patterns, *positions), scene


def _horizon(text: str) -> float:
    """Type of ``--tau-max``: a finite, non-negative delay in seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _grid(text: str) -> tuple[float, float, float]:
    """Type of ``--grid``: ``start,stop,step``, finite, step > 0, stop >= start, whole steps."""
    try:
        start, stop, step = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start,stop,step, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and 0.0 < step < math.inf and stop >= start):
        raise argparse.ArgumentTypeError(
            f"needs finite values, step > 0 and stop >= start, got {text!r}"
        )
    if not SampleGrid.whole_steps(start, stop, step):
        raise argparse.ArgumentTypeError(
            f"stop - start must be a whole number of steps, got {text!r}"
        )
    return start, stop, step


def _integer(low: int, high: float = math.inf):
    """Type of an integer flag with ``low <= value < high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}), got {text!r}")
        return value

    return parse


def _scene_paths(args):
    """Path list of the fixed scene of ``paths`` and ``signal``, its radio and horizon."""
    doc = cfgmod.load_document(args.config)
    (room, radio, tx_pattern, rx_pattern, tx_pos, rx_pos), _ = _build_scene(doc, fixed=True)
    tau_max = args.tau_max if args.tau_max is not None else doc["mc"]["tau_max_s"]
    if tau_max < 0.0:
        raise ConfigError("mc/tau_max_s: must be non-negative")
    paths = enumerate_paths(room, tx_pos, tx_pattern, rx_pos, rx_pattern, radio, tau_max)
    return paths, radio, tau_max


def _cmd_paths(args) -> int:
    paths, _, _ = _scene_paths(args)
    paths.to_csv(args.out)
    return 0


def _cmd_theory(args) -> int:
    doc = cfgmod.load_document(args.config)
    curves = [c.strip() for c in args.curves.split(",") if c.strip()]
    for name in curves:
        if name not in _THEORY_CURVES:
            raise ConfigError(f"unknown curve {name!r}; choose from {_THEORY_CURVES}")
    _, scene = _build_scene(doc)

    taus = SampleGrid.spanning(*args.grid).times()
    if "pds" in curves:
        # Before any file is written: lossless or fully absorbing walls have
        # no exponential tail, and the deterministic spectrum needs positions.
        try:
            pds = theory.pds(scene, taus, mode=args.pds_mode, corrected=args.corrected)
        except ValueError as exc:
            raise ConfigError(f"pds curve: {exc}") from None
    os.makedirs(args.out_dir, exist_ok=True)

    for name in curves:
        out_path = os.path.join(args.out_dir, f"{name}.csv")
        if name == "count":
            TheoryCurve(taus, theory.mean_count(scene, taus), "count").to_csv(out_path)
        elif name == "rate":
            TheoryCurve(taus, theory.mean_rate(scene, taus), "rate_per_second").to_csv(out_path)
        elif name == "pds":
            pds.to_csv(out_path)
        else:
            write_csv(out_path, "tau_mix_seconds", [theory.mixing_time(scene)])
    return 0


def _cmd_mc(args) -> int:
    doc = cfgmod.load_document(args.config)
    cfg = cfgmod.build_mc_config(doc, runs=args.runs, seed=args.seed)
    out_dir = args.out_dir or doc.get("output", {}).get("directory")
    if out_dir is None:
        raise ConfigError("output directory required (--out-dir or output.directory)")

    result = montecarlo.run_ensemble(cfg, workers=args.threads)
    report = montecarlo.compare_with_theory(result)

    resolved = dict(doc, mc=dict(doc["mc"], runs=cfg.runs, seed=cfg.seed))
    manifest = {"package_version": __version__, "seed": cfg.seed, "config": resolved}
    montecarlo.write_bundle(result, out_dir, manifest, report)

    if args.check and not report["pass"]:
        return 1
    return 0


def _cmd_signal(args) -> int:
    paths, radio, tau_max = _scene_paths(args)
    rng = montecarlo.run_rng(args.seed, 0) if args.phase_mode == "random" else None
    trace = synthesize_signal(paths, radio, synthesis_grid(radio, tau_max), args.phase_mode, rng)
    trace.to_csv(args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomchan",
        description="Mirror-source in-room radio channel simulator and analytic toolkit",
    )
    parser.add_argument("--config", metavar="FILE", default=None, help="JSON run configuration")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="dump the path list of a fixed scene as CSV")
    p.add_argument("--tau-max", type=_horizon, default=None, help="delay horizon in seconds")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("theory", help="write closed-form curves as CSV")
    p.add_argument("--curves", default="count,rate,pds,mixing", help="comma list: count,rate,pds,mixing")
    p.add_argument("--grid", type=_grid, default="0,120e-9,0.25e-9", help="delay grid start,stop,step in seconds")
    p.add_argument("--pds-mode", choices=("deterministic", "randomized"), default="randomized")
    p.add_argument("--corrected", action="store_true", help="apply the interaction-spread correction to the tail")
    p.add_argument("--out-dir", default=".", help="directory for the curve files")
    p.set_defaults(handler=_cmd_theory)

    p = sub.add_parser("mc", help="run a Monte Carlo ensemble and write the results bundle")
    p.add_argument("--runs", type=int, default=None, help="number of runs (overrides config)")
    p.add_argument("--seed", type=_integer(*montecarlo.SEED_RANGE), default=None,
                   help="master seed (overrides config)")
    p.add_argument("--out-dir", default=None, help="bundle directory")
    p.add_argument("--check", action="store_true", help="exit 1 when the report fails its tolerances")
    p.add_argument("--threads", type=_integer(1), default=1, help="worker process cap")
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("signal", help="synthesize a received signal trace as CSV")
    p.add_argument("--tau-max", type=_horizon, default=None, help="delay horizon in seconds")
    p.add_argument("--phase-mode", choices=PHASE_MODES, default="carrier")
    p.add_argument("--seed", type=_integer(*montecarlo.SEED_RANGE), default=0,
                   help="seed for random phases")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_signal)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
