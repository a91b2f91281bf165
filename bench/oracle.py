"""Independent model law for the benchmark's correctness gates.

Everything here is written out again from the model description and uses
only the standard library: it never calls swpemux, so a defect in the
package's own law cannot hide from these gates. A gate passes when the
simulated value lies within Z_GATE standard errors of the law.
"""
from __future__ import annotations

import math

Z_GATE = 5.0

# Model parameters the benchmark writes into every configuration it hands to
# the package; they equal the package defaults.
PARAMS = {
    "m": 19, "chi": 0.01, "theta": 45.0, "eta_d": 0.1, "eta_as": 0.5, "gamma": 0.3,
    "v1": 0.937, "beta": 0.85, "tau_c": 235.0, "tau_ref": 0.7, "dark_rate": 0.0,
}


def visibility(p: dict, m: int, tau: float) -> float:
    """Saturating form V = v1 / (1 + beta (m - 1) chi) exp(-(tau - tau_ref)/tau_c), clamped to [0, 1]."""
    value = p["v1"] / (1.0 + p["beta"] * (m - 1) * p["chi"])
    value *= math.exp(-(tau - p["tau_ref"]) / p["tau_c"])
    return min(max(value, 0.0), 1.0)


def chsh_s(p: dict, m: int, tau: float) -> float:
    """S at the canonical angles for the theta = 45 degree pair state."""
    return 2.0 * math.sqrt(2.0) * visibility(p, m, tau)


def bin_click(p: dict) -> float:
    """A bin clicks from a real Stokes photon or a dark count on either detector."""
    return 1.0 - (1.0 - p["chi"] * p["eta_d"]) * (1.0 - p["dark_rate"]) ** 2


def herald_probability(p: dict, m: int) -> float:
    """p_s = 1 - (1 - a)^m with a the dark-inclusive bin click probability."""
    return 1.0 - (1.0 - bin_click(p)) ** m


def dark_chsh_s(p: dict, m: int, tau: float) -> float:
    """S of all coincidences when dark heralds are present.

    The first clicking bin heralds, and a real click in it wins over a dark
    one, so P(real herald) = chi eta_d (1 - (1 - a)^m) / a. A dark herald
    reads out an unpolarized accidental click (correlation 0) with
    probability dark_rate + beta (m - 1) chi gamma eta_as, capped at 1.
    """
    a = bin_click(p)
    p_real = p["chi"] * p["eta_d"] * (1.0 - (1.0 - a) ** m) / a
    p_dark = herald_probability(p, m) - p_real
    readout = p["gamma"] * p["eta_as"]
    background = min(1.0, p["dark_rate"] + p["beta"] * (m - 1) * p["chi"] * readout)
    real_share = p_real * readout / (p_real * readout + p_dark * background)
    return chsh_s(p, m, tau) * real_share


def binomial_z(successes: int, trials: int, prob: float) -> float:
    return (successes - trials * prob) / math.sqrt(trials * prob * (1.0 - prob))


def link_speedup(p1: float, m: int) -> float:
    """Multiplexed over single-mode link success, (1 - (1 - p1)^m) / p1."""
    return (1.0 - (1.0 - p1) ** m) / p1
