"""The paper's four published-figure presets.

Each figure is a function (config, seed, trials) -> (rows, checks): trials
overrides the preset's trial or sample count when it is not None, rows are
the figure's data and checks hold each published number against its target
window. Row k of a sweep draws from its own seed, _row_seed(seed, k), for a
seed in [0, 2^64). FIGURES names the figures in the order the command line
lists them.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import analysis, engine, io
from .config import ExperimentConfig
from .states import bell_state


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


def herald_gain(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """fig2: herald probability versus mode count; the multiplexing gain.

    Every row draws the same count, 10^9 trials by default, where the
    endpoints' ratio has a standard error below 0.02, small against the
    [18.5, 19.0] window. One engine.herald_fractions call draws every row's
    heralds, one binomial each whatever the count, from its own seed, so the
    rows' errors are independent. A run whose m = 1 row drew no heralds has
    no ratio (NaN) and fails the ratio check.
    """
    n = 1_000_000_000 if trials is None else trials
    ms = range(1, config.m + 1)
    draws = engine.herald_fractions(config, ms, n, [_row_seed(seed, m) for m in ms])
    rows = [{"m": m, "trials": n, "p_s_hat": p_hat, "p_s_exact": exact, "p_s_linear": linear}
            for m, (p_hat, exact, linear) in zip(ms, draws)]
    ratio = draws[-1][0] / draws[0][0] if draws[0][0] > 0.0 else math.nan
    checks = [_check("p_s_ratio_m19_vs_m1", ratio, 18.5, 19.0)]
    for m, (p_hat, p_true, _) in ((1, draws[0]), (config.m, draws[-1])):
        width = 4 * (p_true * (1 - p_true) / n) ** 0.5  # four standard errors
        checks.append(_check(f"p_s_hat_m{m}_within_4se", p_hat, p_true - width, p_true + width))
    return rows, checks


def chsh_decay(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """fig3: CHSH decay with storage time, plus the fitted memory lifetime."""
    n = 1_000_000 if trials is None else trials
    tau_grid = (0.7, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    points = [(tau, *_simulated_s(config, tau, n, _row_seed(seed, k)))
              for k, tau in enumerate(tau_grid)]
    fit = analysis.fit_decay(points)
    checks = [
        _check("s_at_0p7us", points[0][1], 2.25, 2.35),
        _check("s_at_30us", points[-1][1], 1.98, 2.08),
        _check("lifetime_chsh_us", fit.lifetime_chsh, 25.0, 40.0),
    ]
    rows = [{"tau": tau, "s": s_value, "s_err": s_error} for tau, s_value, s_error in points]
    return rows + [{"fit": fit.to_dict()}], checks


def tomography(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """fig4: tomography of the calibrated multiplexed state and its fidelity."""
    n = 100_000 if trials is None else trials
    pairs = analysis.tomography_setting_pairs()
    table = engine.run_coincidence_batch(config, config.tau_ref, pairs, n, seed)
    physical = analysis.project_physical(analysis.tomo_reconstruct(table))
    fid = analysis.fidelity(physical, bell_state(config.theta))
    rows = [{"rho": io.rho_payload(physical), "fidelity": fid, "samples_per_basis": n}]
    return rows, [_check("tomography_fidelity", fid, 0.84, 0.88)]


def mode_scaling(config: ExperimentConfig, seed: int, trials: Optional[int]):
    """fig5: CHSH and coincidence probability versus mode count. With no
    exact p_sas at m = 1 (gamma or eta_as 0) the ratio is NaN, and with no
    spread in the exact curve r^2 is: each then fails its check."""
    n = 1_000_000 if trials is None else trials
    rows = []
    for m in range(1, config.m + 1):
        cfg_m = config.replace(m=m)
        s_value, s_error = _simulated_s(cfg_m, config.tau_ref, n, _row_seed(seed, m))
        p_sas = engine.analytic_p_sas(cfg_m)
        rows.append({"m": m, "s": s_value, "s_err": s_error,
                     "p_sas_exact": p_sas.exact, "p_sas_linear": p_sas.linear})
    s_values = [row["s"] for row in rows]
    curve = np.array([row["p_sas_exact"] for row in rows])
    design = np.column_stack([np.arange(1, config.m + 1), np.ones(config.m)])
    coefficients, *_ = np.linalg.lstsq(design, curve, rcond=None)
    fitted = design @ coefficients
    spread = ((curve - curve.mean()) ** 2).sum()
    r_squared = 1.0 - ((curve - fitted) ** 2).sum() / spread if spread > 0.0 else math.nan
    ratio = curve[-1] / curve[0] if curve[0] > 0.0 else math.nan
    monotone = all(s <= previous + 1e-9 for previous, s in zip(s_values, s_values[1:]))
    checks = [
        _check("s_m1", s_values[0], 2.60, 2.70),
        _check("s_m19", s_values[-1], 2.25, 2.35),
        _check("s_monotone_nonincreasing", 1.0 if monotone else 0.0, 1.0, 1.0),
        _check("p_sas_ratio", ratio, 17.6, 19.0),
        _check("p_sas_linearity_r2", r_squared, 0.999, 1.0),
    ]
    return rows, checks


FIGURES = {
    "fig2": herald_gain,
    "fig3": chsh_decay,
    "fig4": tomography,
    "fig5": mode_scaling,
}
