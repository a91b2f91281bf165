"""Command line front end.

Subcommands: simulate, bell, tomo, decay, pmc, link, calibrate, reproduce;
reproduce runs one preset of figures.FIGURES and writes its rows and checks.
Every output file is written atomically (temp file + rename) and is
byte-for-byte reproducible for a given seed; --threads is accepted for
compatibility, must be at least 1 and has no effect. Exit codes: 0 success,
1 runtime or comparison failure, 2 usage or configuration error.

main reuses one argument parser per process: build_parser builds it on the
first call and returns the same object afterwards, so repeated in-process
calls (tests, the benchmark, library scripts) pay only for parsing. An argv
that is a subcommand and nothing but valid "--option value" pairs is read
straight from that subcommand's option table (_parse_store_options); every
other argv is parsed by argparse.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import analysis, engine, figures, geometry, io, link
from .config import ExperimentConfig
from .engine import RunPlan
from .states import _eigvalsh, bell_state, validate_density
from .util import atomic_write_text

# Fixed documented default seed; pass --seed to change it.
DEFAULT_SEED = 1905

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ComparisonFailure(RuntimeError):
    """A reproduction check missed its published target window."""


def _load_config(path: Optional[str]) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        return ExperimentConfig.load(path)
    except FileNotFoundError:
        raise ValueError(f"configuration file not found: {path}") from None


def _setting_pairs(kind: str) -> tuple:
    if kind == "bell":
        return analysis.CANONICAL_BELL.setting_pairs()
    if kind == "tomo":
        return analysis.tomography_setting_pairs()
    if kind == "hv":
        return (engine.HV_PAIR,)
    raise ValueError(f"unknown settings preset {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    """The swpemux argument parser, built once per process.

    Every call returns the same parser, which main shares across calls;
    parse_args leaves it unchanged, and callers must not mutate it (no
    add_argument, set_defaults or similar), because that would change every
    later call in the process.
    """
    return _parsers()[0]


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple:
    parser = argparse.ArgumentParser(
        prog="swpemux",
        description="Monte Carlo simulator and analysis tools for a temporally "
                    "multiplexed spin-wave / photon entanglement source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run trial batches and emit coincidence counts")
    p.add_argument("--config", metavar="PATH", help="experiment configuration JSON")
    p.add_argument("--out", metavar="PATH", required=True, help="output file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--trials", type=int, default=100_000,
                   help="trials or samples per setting pair (default 100000)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   dest="fmt", help="output format")
    p.add_argument("--tau", type=float, default=None,
                   help="storage time in microseconds (default: config tau_ref)")
    p.add_argument("--settings", choices=("bell", "tomo", "hv"), default="bell",
                   help="analyzer setting preset (default bell)")

    p = sub.add_parser("bell", help="CHSH statistics from a coincidence CSV")
    p.add_argument("--counts", metavar="PATH", required=True, help="coincidence CSV")
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--angles", default=None,
                   help="four comma separated angles theta_s,theta_s',theta_a,theta_a'")

    p = sub.add_parser("tomo", help="density matrix reconstruction from a nine-basis CSV")
    p.add_argument("--counts", metavar="PATH", required=True, help="coincidence CSV")
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--config", metavar="PATH", help="configuration (sets the target pair angle)")

    p = sub.add_parser("decay", help="fit the CHSH decay curve")
    p.add_argument("--points", metavar="PATH", required=True,
                   help="CSV (tau,s[,s_err]) or JSON list of points")
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--tau-ref", type=float, default=None,
                   help="reference storage time (default: earliest point)")

    p = sub.add_parser("pmc", help="phase matching residual scan of a write fan")
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--m", type=int, default=19, help="fan size (default 19)")
    p.add_argument("--spacing", type=float, default=1.0, help="fan spacing in degrees")
    p.add_argument("--angles", default=None,
                   help="explicit comma separated write angles (overrides --m/--spacing)")
    p.add_argument("--stokes-angle", type=float, default=0.0)
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="directionality tolerance on the residual")
    p.add_argument("--format", choices=("csv", "json"), default="json", dest="fmt")

    p = sub.add_parser("link", help="repeater link timing and feed-forward comparison")
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--l0", type=float, default=60.0, help="half-link length, km")
    p.add_argument("--c-fiber", type=float, default=2.0e5, help="fiber signal velocity, km/s")
    p.add_argument("--m", type=int, default=19)
    p.add_argument("--p1", type=float, default=1e-3, help="single-mode success probability")
    p.add_argument("--eta", type=float, default=0.5, help="herald efficiency for the retry loop")
    p.add_argument("--chi", type=float, default=0.01, help="excitation probability per attempt")
    p.add_argument("--delta-t", type=float, default=0.3, help="attempt spacing, microseconds")
    p.add_argument("--m-grid", default=None,
                   help="comma separated mode counts; emits one row per value")
    p.add_argument("--format", choices=("csv", "json"), default="json", dest="fmt")

    p = sub.add_parser("calibrate", help="invert the visibility model against CHSH targets")
    p.add_argument("--targets", metavar="PATH", required=True,
                   help='JSON list of {"m":..., "tau":..., "s":...} targets')
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--out", metavar="PATH", required=True)

    p = sub.add_parser("reproduce", help="rerun a published-figure preset and check it")
    p.add_argument("--figure", choices=tuple(figures.FIGURES), required=True)
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=None,
                   help="override the preset's trial/sample count")
    p.add_argument("--threads", type=int, default=1)

    return parser, sub.choices


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    tau = config.tau_ref if args.tau is None else args.tau
    plan = RunPlan(
        config=config,
        tau=tau,
        settings=_setting_pairs(args.settings),
        n_trials=args.trials,
        seed=args.seed,
    )
    result = engine.run_batch(plan)
    if args.fmt == "csv":
        io.write_coincidence_csv(result.table, args.out)
    else:
        io.write_batch_json(result, args.out)
    return EXIT_OK


def _cmd_bell(args) -> int:
    table = io.read_coincidence_csv(args.counts)
    if args.angles is None:
        settings = analysis.CANONICAL_BELL
    else:
        values = [float(v) for v in args.angles.split(",")]
        if len(values) != 4:
            raise ValueError("--angles needs exactly four comma separated values")
        settings = analysis.BellSettings(*values)
    s_value, s_error, terms = analysis._chsh(table, settings)
    correlations = [
        {"setting_s": pair.stokes.token(), "setting_a": pair.anti_stokes.token(),
         "e": e_value, "e_err": e_error}
        for pair, (e_value, e_error) in zip(settings.setting_pairs(), terms)
    ]
    io.write_json({"s": s_value, "s_err": s_error, "correlations": correlations}, args.out)
    return EXIT_OK


def _cmd_tomo(args) -> int:
    config = _load_config(args.config)
    table = io.read_coincidence_csv(args.counts)
    raw = analysis.tomo_reconstruct(table)
    physical = analysis.project_physical(raw)
    violations = validate_density(physical)
    if violations:
        raise ComparisonFailure(
            "reconstruction produced an unphysical state: " + "; ".join(violations)
        )
    target = bell_state(config.theta)
    payload = {
        "rho_raw": io.rho_payload(raw),
        "rho": io.rho_payload(physical),
        "eigenvalues": [float(v) for v in _eigvalsh(physical)],
        "fidelity_vs_target": analysis.fidelity(physical, target),
        "target_theta": config.theta,
    }
    io.write_json(payload, args.out)
    return EXIT_OK


def _cmd_decay(args) -> int:
    points = io.read_decay_points(args.points)
    fit = analysis.fit_decay(points, tau_ref=args.tau_ref)
    io.write_json(fit.to_dict(), args.out)
    return EXIT_OK


def _cmd_pmc(args) -> int:
    if args.angles is not None:
        angles = tuple(float(v) for v in args.angles.split(","))
    else:
        angles = geometry.fan_angles(args.m, args.spacing)
    geo = geometry.BeamGeometry(write_angles=angles, stokes_angle=args.stokes_angle)
    scan = geometry.scan_geometry(geo, tolerance=args.tolerance)
    if args.fmt == "csv":
        rows = [geo.write_angles, *scan.residuals.tolist()]
        atomic_write_text(args.out, io.csv_text(rows))
    else:
        io.write_json(
            {
                "write_angles": list(geo.write_angles),
                "stokes_angle": geo.stokes_angle,
                "tolerance": scan.tolerance,
                "residuals": [[float(v) for v in row] for row in scan.residuals],
                "cross_directional_pairs": [list(p) for p in scan.cross_directional_pairs],
                "cross_directional_fraction": scan.cross_directional_fraction,
            },
            args.out,
        )
    return EXIT_OK


def _link_row(link_config: link.LinkConfig, fb: link.FeedbackConfig) -> dict:
    times = link.avg_entanglement_time(link_config)
    p_multi = link.p_link_multiplexed(link_config.p1, link_config.m)
    retries = link.feedback_success(fb)
    return {
        "m": link_config.m,
        "p1": link_config.p1,
        "communication_time_us": times.communication_time_us,
        "p_link_exact": p_multi.exact,
        "p_link_linear": p_multi.linear,
        "t_single_us": times.t_single_us,
        "t_multiplexed_exact_us": times.t_multiplexed_exact_us,
        "t_multiplexed_linear_us": times.t_multiplexed_linear_us,
        "speedup_exact": times.speedup_exact,
        "speedup_linear": times.speedup_linear,
        "feedback_p_exact": retries.p_exact,
        "feedback_p_linear": retries.p_linear,
        "feedback_time_us": retries.total_time_us,
        "feedback_n_deterministic": retries.n_deterministic,
    }


def _cmd_link(args) -> int:
    if args.m_grid is not None:
        mode_counts = [int(v) for v in args.m_grid.split(",")]
    else:
        mode_counts = [args.m]
    rows = []
    for m in mode_counts:
        link_config = link.LinkConfig(l0_km=args.l0, c_fiber_km_s=args.c_fiber, m=m, p1=args.p1)
        fb = link.FeedbackConfig(eta=args.eta, chi=args.chi, n_attempts=m, delta_t=args.delta_t)
        rows.append(_link_row(link_config, fb))
    if args.fmt == "csv":
        atomic_write_text(args.out, io.csv_text([rows[0].keys(), *(r.values() for r in rows)]))
    else:
        io.write_json(rows if len(rows) > 1 else rows[0], args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    targets = io.read_json(args.targets)
    if not isinstance(targets, list):
        raise ValueError("calibration targets JSON must be a list")
    patch = analysis.calibrate_visibility(targets, chi=config.chi, tau_ref=config.tau_ref)
    io.write_json(patch, args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    # every figure's seed range, checked before any row seed wraps it
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {args.seed}")
    config = _load_config(args.config)
    rows, checks = figures.FIGURES[args.figure](config, args.seed, args.trials)
    passed = all(c["passed"] for c in checks)
    io.write_json(
        {"figure": args.figure, "seed": args.seed, "data": rows, "checks": checks,
         "passed": passed},
        args.out,
    )
    if not passed:
        failed = ", ".join(c["name"] for c in checks if not c["passed"])
        raise ComparisonFailure(f"reproduction checks failed: {failed}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bell": _cmd_bell,
    "tomo": _cmd_tomo,
    "decay": _cmd_decay,
    "pmc": _cmd_pmc,
    "link": _cmd_link,
    "calibrate": _cmd_calibrate,
    "reproduce": _cmd_reproduce,
}


def _parse_store_options(parser: argparse.ArgumentParser, tokens: Sequence[str]):
    """parser.parse_args(tokens) if the tokens are "--option value" pairs of
    one-value store options, each value converts, is among its choices and
    does not start with "-", and every required option is given; otherwise
    None, and main parses the whole argv with argparse, with its own errors,
    help and abbreviations."""
    args = argparse.Namespace(**{action.dest: action.default for action in parser._actions
                                 if action.default is not argparse.SUPPRESS})
    required = {action for action in parser._actions if action.required}
    pairs = iter(tokens)
    for option, value in zip(pairs, pairs):
        action = parser._option_string_actions.get(option)
        if type(action) is not argparse._StoreAction or action.nargs is not None \
                or value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
        required.discard(action)
    return None if required or len(tokens) % 2 else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    if argv and argv[0] in subparsers:
        args = _parse_store_options(subparsers[argv[0]], argv[1:])
    if args is None:
        args = parser.parse_args(argv)
    else:
        args.command = argv[0]
    try:
        # --threads changes nothing, but a count below 1 is still bad input
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"thread count must be at least 1, got {args.threads}")
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ComparisonFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
