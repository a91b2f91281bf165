"""Acceptance suite.

One test per acceptance criterion; each emits a single pass/fail line in
verbose pytest output. Statistical checks run at fixed seeds, so every run
of this suite sees identical numbers.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from swpemux.analysis import (
    CANONICAL_BELL,
    TSIRELSON_BOUND,
    bell_s,
    calibrate_visibility,
    fidelity,
    fit_decay,
    project_physical,
    tomo_reconstruct,
    tomography_setting_pairs,
)
from swpemux.cli import DEFAULT_SEED, main
from swpemux.config import ExperimentConfig
from swpemux.engine import (
    HV_PAIR,
    CoincidenceTable,
    RunPlan,
    analytic_p_s,
    analytic_p_sas,
    effective_pair_state,
    run_batch,
    run_coincidence_batch,
)
from swpemux.geometry import BeamGeometry, fan_angles, scan_geometry
from swpemux.link import (
    FeedbackConfig,
    LinkConfig,
    avg_entanglement_time,
    communication_time,
    feedback_success,
    p_link_multiplexed,
)
from swpemux.states import bell_state, joint_probabilities

from oracles import exact_coincidence_table

CFG = ExperimentConfig()

PUBLISHED_TARGETS = [
    {"m": 1, "tau": 0.7, "s": 2.65},
    {"m": 19, "tau": 0.7, "s": 2.30},
    {"m": 19, "tau": 30.0, "s": 2.03},
]


def calibrated_config() -> ExperimentConfig:
    patch = calibrate_visibility(PUBLISHED_TARGETS, chi=CFG.chi, tau_ref=CFG.tau_ref)
    return CFG.replace(**patch)


def random_density(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_multiplexing_gain():
    """10^9-trial herald rates: gain in [18.5, 19.0], 4 SE of analytic, < 60 s."""
    n = 1_000_000_000
    start = time.perf_counter()
    estimates = {}
    for m in (19, 1):
        cfg = CFG.replace(m=m)
        result = run_batch(RunPlan(cfg, CFG.tau_ref, (HV_PAIR,), n, DEFAULT_SEED))
        estimates[m] = result.p_s_hat
        p_true = analytic_p_s(cfg).exact
        se = math.sqrt(p_true * (1.0 - p_true) / n)
        assert abs(result.p_s_hat - p_true) < 4.0 * se, (
            f"m={m}: simulated {result.p_s_hat} vs analytic {p_true} beyond 4 SE"
        )
    elapsed = time.perf_counter() - start
    ratio = estimates[19] / estimates[1]
    print(f"gain {ratio:.4f}, runtime {elapsed:.1f} s")
    assert 18.5 <= ratio <= 19.0
    assert elapsed < 60.0


def test_criterion_02_coincidence_gain_scaling():
    """Coincidence gain in [17.6, 19.0]; P_S,AS(m) linear with R^2 >= 0.999."""
    ratio = analytic_p_sas(CFG).exact / analytic_p_sas(CFG, m=1).exact
    assert 17.6 <= ratio <= 19.0

    curve = np.array([analytic_p_sas(CFG, m=m).exact for m in range(1, 20)])
    design = np.column_stack([np.arange(1, 20), np.ones(19)])
    coefficients, *_ = np.linalg.lstsq(design, curve, rcond=None)
    residual = curve - design @ coefficients
    r_squared = 1.0 - (residual**2).sum() / ((curve - curve.mean()) ** 2).sum()
    print(f"gain {ratio:.4f}, R^2 {r_squared:.6f}")
    assert r_squared >= 0.999

    # simulated endpoints agree with the analytic law within 4 SE
    n = 2_000_000
    for m in (1, 19):
        cfg = CFG.replace(m=m)
        result = run_batch(RunPlan(cfg, CFG.tau_ref, (HV_PAIR,), n, DEFAULT_SEED + m))
        p_true = analytic_p_sas(cfg).exact
        se = math.sqrt(p_true * (1.0 - p_true) / n)
        assert abs(result.p_sas_hat - p_true) < 4.0 * se


def test_criterion_03_chsh_endpoints():
    """Calibrated S hits 2.65/2.30/2.03 within 0.05; S(m) non-increasing."""
    cal = calibrated_config()
    cases = [(1, 0.7, 2.65), (19, 0.7, 2.30), (19, 30.0, 2.03)]
    for index, (m, tau, target) in enumerate(cases):
        table = run_coincidence_batch(
            cal.replace(m=m), tau, CANONICAL_BELL.setting_pairs(), 1_000_000, 600 + index
        )
        s, _ = bell_s(table)
        print(f"S(m={m}, tau={tau}) = {s:.4f} (target {target})")
        assert abs(s - target) <= 0.05

    previous = math.inf
    for m in range(1, 20):
        table = run_coincidence_batch(
            cal.replace(m=m), 0.7, CANONICAL_BELL.setting_pairs(), 1_000_000, 700 + m
        )
        s, _ = bell_s(table)
        assert s <= previous + 1e-9, f"S grew from {previous} to {s} at m={m}"
        previous = s


def test_criterion_04_fidelity_consistency():
    """Tomography of the calibrated multiplexed state: F in [0.84, 0.88]."""
    cal = calibrated_config()
    table = run_coincidence_batch(
        cal, cal.tau_ref, tomography_setting_pairs(), 1_000_000, 41
    )
    rho = project_physical(tomo_reconstruct(table))
    f = fidelity(rho, bell_state(45.0))
    print(f"fidelity {f:.4f}")
    assert 0.84 <= f <= 0.88


def test_criterion_05_lifetime():
    """Decay fit through the two published points crosses S=2 in [25, 40] us."""
    fit = fit_decay([(0.7, 2.30), (30.0, 2.03)])
    print(f"lifetime {fit.lifetime_chsh:.2f} us")
    assert 25.0 <= fit.lifetime_chsh <= 40.0


def test_criterion_06_tsirelson_property():
    """Exact balanced state saturates 2 sqrt 2; no state exceeds it."""
    pairs = CANONICAL_BELL.setting_pairs()
    s, _ = bell_s(exact_coincidence_table(bell_state(45.0), pairs))
    assert abs(s - TSIRELSON_BOUND) <= 1e-9

    rng = np.random.default_rng(1618)
    worst = 0.0
    for _ in range(1000):
        s, _ = bell_s(exact_coincidence_table(random_density(rng), pairs))
        worst = max(worst, s)
        assert s <= TSIRELSON_BOUND + 1e-9
    print(f"largest random-state S = {worst:.4f}")


def _sample_table(rho, pairs, n, rng):
    counts = []
    for pair in pairs:
        p = np.clip(joint_probabilities(rho, pair.stokes, pair.anti_stokes), 0.0, None)
        c = rng.multinomial(n, (p / p.sum()).ravel()).tolist()
        counts.append([*c, c[0] + c[1], c[2] + c[3], n])
    return CoincidenceTable(pairs, np.array(counts, dtype=object))


def test_criterion_07_tomography_oracle():
    """Exact inversion to 1e-10; >= 95% of noisy reconstructions reach F >= 0.99."""
    rng = np.random.default_rng(314159)
    pairs = tomography_setting_pairs()
    for _ in range(100):
        rho = random_density(rng)
        recovered = tomo_reconstruct(exact_coincidence_table(rho, pairs))
        assert np.max(np.abs(recovered - rho)) < 1e-10

    good = 0
    for _ in range(100):
        rho = random_density(rng)
        table = _sample_table(rho, pairs, 10_000, rng)
        recovered = project_physical(tomo_reconstruct(table))
        if fidelity(recovered, rho) >= 0.99:
            good += 1
    print(f"noisy reconstructions at F >= 0.99: {good}/100")
    assert good >= 95


def test_criterion_08_phase_matching():
    """19-beam fan: zero residual on the diagonal, > 1e-5 everywhere else."""
    angles = fan_angles(19)
    gaps = np.diff(np.sort(angles))
    assert np.all(gaps >= 0.5)

    scan = scan_geometry(BeamGeometry(angles))
    residuals = np.asarray(scan.residuals)
    off_diagonal = residuals[~np.eye(19, dtype=bool)]
    print(
        f"diagonal max {np.diag(residuals).max():.2e}, "
        f"off-diagonal min {off_diagonal.min():.2e} over {off_diagonal.size} entries"
    )
    assert off_diagonal.size == 342
    assert np.all(np.diag(residuals) <= 1e-14)
    assert np.all(off_diagonal > 1e-5)


def test_criterion_09_link_model():
    """Retry/multiplexed equality, speedup -> 19 as p1 -> 0, 300 us latency."""
    rng = np.random.default_rng(2048)
    for _ in range(1000):
        eta = float(rng.uniform(0.01, 1.0))
        chi = float(rng.uniform(1e-4, 0.5))
        n = int(rng.integers(1, 500))
        fb = FeedbackConfig(eta=eta, chi=chi, n_attempts=n)
        assert feedback_success(fb).p_exact == p_link_multiplexed(eta * chi, n).exact

    report = avg_entanglement_time(LinkConfig(p1=1e-6, m=19))
    print(f"speedup at p1=1e-6: {report.speedup_exact:.6f}")
    assert abs(report.speedup_exact - 19.0) / 19.0 <= 1e-3

    assert communication_time(LinkConfig(l0_km=60.0)) == 300.0


def test_criterion_10_determinism(tmp_path):
    """simulate and reproduce emit byte-identical files at 1, 4 and 16 threads."""
    simulate_outputs = []
    reproduce_outputs = []
    for threads in ("1", "4", "16"):
        sim_path = str(tmp_path / f"sim_t{threads}.csv")
        code = main([
            "simulate", "--out", sim_path, "--trials", "250000",
            "--seed", str(DEFAULT_SEED), "--threads", threads,
        ])
        assert code == 0
        simulate_outputs.append(Path(sim_path).read_bytes())

        rep_path = str(tmp_path / f"fig4_t{threads}.json")
        code = main([
            "reproduce", "--figure", "fig4", "--out", rep_path,
            "--seed", str(DEFAULT_SEED), "--trials", "50000", "--threads", threads,
        ])
        assert code == 0
        reproduce_outputs.append(Path(rep_path).read_bytes())

    assert simulate_outputs[0] == simulate_outputs[1] == simulate_outputs[2]
    assert reproduce_outputs[0] == reproduce_outputs[1] == reproduce_outputs[2]
    print("simulate and reproduce outputs byte-identical across 1/4/16 threads")
