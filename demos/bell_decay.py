#!/usr/bin/env python3
"""CHSH violation versus storage time.

The spin wave dephases while it waits for the feed-forward readout, so the
visibility and with it S = 2 sqrt(2) V decay exponentially. We sample Bell
test coincidences on a storage-time grid, fit the exponential in log space
and report where the fitted curve crosses the classical bound S = 2.
"""
from swpemux import (
    CANONICAL_BELL,
    ExperimentConfig,
    bell_s,
    correlation_e,
    fit_decay,
    run_coincidence_batch,
)

SEED = 7
COINCIDENCES = 200_000

config = ExperimentConfig()
grid = (0.7, 3.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0)

print(f"{'tau (us)':>9} {'S':>8} {'err':>8}")
points = []
for index, tau in enumerate(grid):
    table = run_coincidence_batch(
        config, tau, CANONICAL_BELL.setting_pairs(), COINCIDENCES, SEED + index
    )
    s, err = bell_s(table)
    points.append((tau, s, err))
    flag = "" if s > 2.0 else "  <- no violation"
    print(f"{tau:>9.1f} {s:>8.4f} {err:>8.4f}{flag}")
    if index == 0:
        first = table

print(f"\nS = E1 - E2 + E3 + E4 at tau = {grid[0]} us, from these correlations:")
for pair, counts in zip(first.pairs, first.counts[:, :4]):
    e, e_err = correlation_e(counts)
    angles = f"{pair.stokes.angle_deg:g}/{pair.anti_stokes.angle_deg:g} deg"
    print(f"{angles:>15} E = {e:+.4f} +- {e_err:.4f}")

fit = fit_decay(points)
print(f"\nfitted memory time constant: {fit.tau_c:.1f} us (model value {config.tau_c})")
print(f"visibility at tau_ref:       {fit.v_ref:.4f}")
print(f"S = 2 crossing:              {fit.lifetime_chsh:.1f} us")
