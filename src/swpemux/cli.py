"""Command line front end.

Subcommands: simulate, bell, tomo, decay, pmc, link, calibrate, reproduce.
Every output file is written atomically (temp file + rename) and is
byte-for-byte reproducible for a given seed; --threads is accepted for
compatibility, must be at least 1 and has no effect. Exit codes: 0 success,
1 runtime or comparison failure, 2 usage or configuration error.

main reuses one argument parser per process: build_parser builds it on the
first call and returns the same object afterwards, so repeated in-process
calls (tests, the benchmark, library scripts) pay only for parsing. An argv
that starts with a subcommand is parsed by that subcommand's parser alone.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis, engine, geometry, io, link
from .config import ExperimentConfig
from .engine import RunPlan
from .states import BASIS, _eigvalsh, bell_state, validate_density
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


def _add_common(parser: argparse.ArgumentParser, *, trials: Optional[int] = None) -> None:
    parser.add_argument("--config", metavar="PATH", help="experiment configuration JSON")
    parser.add_argument("--out", metavar="PATH", required=True, help="output file")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")
    if trials is not None:
        parser.add_argument("--trials", type=int, default=trials,
                            help=f"trials or samples per setting pair (default {trials})")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")


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
    _add_common(p, trials=100_000)
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
    p.add_argument("--figure", choices=("fig2", "fig3", "fig4", "fig5"), required=True)
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


def _rho_payload(rho: np.ndarray) -> dict:
    return {
        "basis": list(BASIS),
        "re": [[float(v) for v in row] for row in rho.real],
        "im": [[float(v) for v in row] for row in rho.imag],
    }


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
        "rho_raw": _rho_payload(raw),
        "rho": _rho_payload(physical),
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


# ---------------------------------------------------------------------------
# figure reproduction presets


def _check(name: str, value: float, low: float, high: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "low": float(low),
        "high": float(high),
        "passed": bool(low <= value <= high),
    }


def _row_seed(seed: int, k: int) -> int:
    """Seed of a figure's k-th row: seed + k, wrapped into [0, 2^64) so that
    every valid seed gives every row its own stream."""
    return (seed + k) % (1 << 64)


def _simulated_s(config, tau, n_coincidences, seed) -> tuple:
    table = engine.run_coincidence_batch(
        config, tau, analysis.CANONICAL_BELL.setting_pairs(), n_coincidences, seed
    )
    return analysis.bell_s(table)


def _reproduce_fig2(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """Herald probability versus mode count; the multiplexing gain.

    The endpoints default to 10^9 trials, where the ratio's standard error
    (below 0.02) is small against the [18.5, 19.0] window. Each row evaluates
    the law once (engine.analytic_p_s at its m), and its exact probability is
    the parameter of the row's one binomial herald draw
    (engine.herald_fraction), whatever the trial count. Each m draws from its
    own seed, so the rows' errors are independent. A run whose m = 1 row drew
    no heralds has no ratio (NaN) and fails the ratio check.
    """
    endpoint_trials = 1_000_000_000 if trials is None else trials
    sweep_trials = min(endpoint_trials, 1_000_000)
    rows = []
    estimates = {}
    for m in range(1, config.m + 1):
        n = endpoint_trials if m in (1, config.m) else sweep_trials
        law = engine.analytic_p_s(config, m)
        p_hat = engine.herald_fraction(law.exact, n, _row_seed(seed, m))
        rows.append(
            {"m": m, "trials": n, "p_s_hat": p_hat, "p_s_exact": law.exact,
             "p_s_linear": law.linear}
        )
        estimates[m] = (p_hat, n, law.exact)
    ratio = estimates[config.m][0] / estimates[1][0] if estimates[1][0] > 0.0 else math.nan
    checks = [_check("p_s_ratio_m19_vs_m1", ratio, 18.5, 19.0)]
    for m in (1, config.m):
        p_hat, n, p_true = estimates[m]
        se = (p_true * (1 - p_true) / n) ** 0.5
        checks.append(
            _check(f"p_s_hat_m{m}_within_4se", p_hat, p_true - 4 * se, p_true + 4 * se)
        )
    return rows, checks


def _reproduce_fig3(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """CHSH decay with storage time, plus the fitted memory lifetime."""
    n = 1_000_000 if trials is None else trials
    tau_grid = (0.7, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    rows = []
    points = []
    for index, tau in enumerate(tau_grid):
        s_value, s_error = _simulated_s(config, tau, n, _row_seed(seed, index))
        rows.append({"tau": tau, "s": s_value, "s_err": s_error})
        points.append((tau, s_value, s_error))
    fit = analysis.fit_decay(points)
    checks = [
        _check("s_at_0p7us", rows[0]["s"], 2.25, 2.35),
        _check("s_at_30us", rows[-1]["s"], 1.98, 2.08),
        _check("lifetime_chsh_us", fit.lifetime_chsh, 25.0, 40.0),
    ]
    return rows + [{"fit": fit.to_dict()}], checks


def _reproduce_fig4(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """Tomography of the calibrated multiplexed state and its fidelity."""
    n = 100_000 if trials is None else trials
    table = engine.run_coincidence_batch(
        config, config.tau_ref, analysis.tomography_setting_pairs(), n, seed
    )
    raw = analysis.tomo_reconstruct(table)
    physical = analysis.project_physical(raw)
    fid = analysis.fidelity(physical, bell_state(config.theta))
    rows = [{"rho": _rho_payload(physical), "fidelity": fid, "samples_per_basis": n}]
    checks = [_check("tomography_fidelity", fid, 0.84, 0.88)]
    return rows, checks


def _reproduce_fig5(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """CHSH and coincidence probability versus mode count."""
    n = 1_000_000 if trials is None else trials
    rows = []
    s_values = {}
    for m in range(1, config.m + 1):
        cfg_m = config.replace(m=m)
        s_value, s_error = _simulated_s(cfg_m, config.tau_ref, n, _row_seed(seed, m))
        p_sas = engine.analytic_p_sas(cfg_m)
        rows.append(
            {
                "m": m,
                "s": s_value,
                "s_err": s_error,
                "p_sas_exact": p_sas.exact,
                "p_sas_linear": p_sas.linear,
            }
        )
        s_values[m] = s_value
    curve = np.array([row["p_sas_exact"] for row in rows])
    design = np.column_stack([np.arange(1, config.m + 1), np.ones(config.m)])
    coefficients, *_ = np.linalg.lstsq(design, curve, rcond=None)
    fitted = design @ coefficients
    r_squared = 1.0 - ((curve - fitted) ** 2).sum() / ((curve - curve.mean()) ** 2).sum()

    monotone = all(
        s_values[m] <= s_values[m - 1] + 1e-9 for m in range(2, config.m + 1)
    )
    checks = [
        _check("s_m1", s_values[1], 2.60, 2.70),
        _check("s_m19", s_values[config.m], 2.25, 2.35),
        _check("s_monotone_nonincreasing", 1.0 if monotone else 0.0, 1.0, 1.0),
        _check("p_sas_ratio", rows[-1]["p_sas_exact"] / rows[0]["p_sas_exact"], 17.6, 19.0),
        _check("p_sas_linearity_r2", r_squared, 0.999, 1.0),
    ]
    return rows, checks


_FIGURES = {
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
}


def _cmd_reproduce(args) -> int:
    # every figure's seed range, checked before any row seed wraps it
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {args.seed}")
    config = _load_config(args.config)
    rows, checks = _FIGURES[args.figure](config, args.seed, args.trials)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in subparsers:
        args, extras = subparsers[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    try:
        # --threads changes nothing, but a count below 1 is still bad input
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"thread count must be at least 1, got {args.threads}")
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
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
