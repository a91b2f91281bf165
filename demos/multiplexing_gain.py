#!/usr/bin/env python3
"""How much does temporal multiplexing buy?

A write train with m mode pairs heralds whenever any one of the m bins
produces a Stokes click, so the herald probability grows like the geometric
series 1 - (1 - p)^m. For our numbers (p about 1e-3) that is nearly linear
and the 19-bin train heralds about 18.8 times more often than a single bin.

This script simulates the herald rate for every train length from 1 to 19
and compares it with the closed form.
"""
import numpy as np

from swpemux import ExperimentConfig, HV_PAIR, RunPlan, analytic_p_s, run_batch

SEED = 20260814
TRIALS = 500_000

config = ExperimentConfig()
print(f"per-bin herald probability: chi * eta_d = {config.chi * config.eta_d:.1e}")
print(f"{'m':>3} {'simulated':>12} {'exact':>12} {'linear':>10}")

simulated = {}
for m in range(1, config.m + 1):
    cfg = config.replace(m=m)
    result = run_batch(RunPlan(cfg, config.tau_ref, (HV_PAIR,), TRIALS, SEED))
    law = analytic_p_s(cfg)
    simulated[m] = result.p_s_hat
    print(f"{m:>3} {result.p_s_hat:>12.6f} {law.exact:>12.6f} {law.linear:>10.6f}")

gain = simulated[config.m] / simulated[1]
exact_gain = analytic_p_s(config).exact / analytic_p_s(config.replace(m=1)).exact
print(f"\nsimulated gain P_S(19)/P_S(1) = {gain:.2f}")
print(f"analytic gain                 = {exact_gain:.2f}")

# the herald bin distribution is the truncated geometric law: early bins win
result = run_batch(RunPlan(config, config.tau_ref, (HV_PAIR,), TRIALS, SEED))
hist = np.asarray(result.herald_bin_histogram, dtype=float)
hist /= hist.sum()
bar = lambda f: "#" * int(round(f * 400))
print("\nherald bin occupancy (conditioned on heralding):")
for k, frac in enumerate(hist, start=1):
    print(f"  bin {k:>2}: {frac:.4f} {bar(frac)}")
