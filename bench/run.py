#!/usr/bin/env python3
"""swpemux benchmark: one workload, one fresh process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload herald_sweep --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

  herald_sweep   ``reproduce --figure fig2 --threads 1 --trials 50000`` through
                 ``cli.main``
  witness_map    library-level (m, tau) grid of CHSH and tomography points
  dark_pipeline  simulate -> bell, simulate -> tomo, decay, link, pmc through
                 ``cli.main`` on an m = 19 configuration with dark counts

The process imports swpemux from ``src/`` (set-up), generates the workload's
inputs from ``--seed``, then repeats the workload's pass until ``--seconds``
have elapsed. Calibration units (``hostspeed.py``) run between passes and
between a pass's steps, on the CPUs the workload runs on, and every
end-to-end timing is reported in reference seconds: each step's time scaled
by how fast the units ran just before and just after it, so that the host's
drifting speed cancels. With ``--trace 0`` it prints the end-to-end
metrics. With ``--trace 1`` it alternates untraced and traced passes and
prints per-layer metrics from the traced ones. Every pass is checked against the independent
law in ``oracle.py``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
provenance included, goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

# No run uses more than two compute threads: the run_batch pool in
# dark_pipeline is the only parallelism, so BLAS stays single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hostspeed
import oracle
from tracer import Tracer, installed_wrappers, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
# calibration components that mirror the set-up: imports and input generation
SETUP_COMPONENTS = ("streamed", "interp")
CAL_UNITS = 6         # calibration units per CPU before every pass and after the last
CAL_UNITS_INNER = 2   # calibration units per CPU between two steps of a pass

SIZES = {
    "full": {"fig2_trials": 50_000, "grid_m": range(1, 20), "grid_tau": range(0, 31),
             "coincidences": 100_000, "pipeline_trials": 1 << 17},
    "smoke": {"fig2_trials": 20_000, "grid_m": (1, 10, 19), "grid_tau": (0, 15, 30),
              "coincidences": 20_000, "pipeline_trials": 20_000},
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("trials_per_ref_s", "1/s"),
    ("points_per_ref_s", "1/s"),
    ("point_p50_ref_ms", "ms"),
    ("point_p95_ref_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# layer -> the per-layer fields it reports; units follow the field suffix
LAYERS = (
    ("states.joint_probabilities", ("calls", "self_s", "us_per_call", "self_share")),
    ("engine.derive_stream", ("calls", "self_s")),
    ("engine.run_batch", ("calls", "trials", "self_s", "self_share", "ns_per_trial_m1",
                          "ns_per_trial_m19", "heralds_per_trial", "coincidences_per_trial",
                          "cpu_per_wall")),
    ("engine.run_coincidence_batch", ("calls", "samples", "self_s")),
    ("analysis.bell_s", ("calls", "self_s")),
    ("analysis.tomo_reconstruct", ("calls", "self_s")),
    ("analysis.project_physical", ("calls", "self_s")),
    ("analysis.fidelity", ("calls", "self_s")),
    ("analysis.fit_decay", ("calls", "self_s")),
    ("io.write_coincidence_csv", ("calls", "self_s")),
    ("io.read_coincidence_csv", ("calls", "self_s")),
    ("io.write_json", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("link.avg_entanglement_time", ("self_s",)),
    ("geometry.scan_geometry", ("self_s",)),
)
FIELD_UNITS = {
    "calls": "count", "trials": "count", "samples": "count", "self_s": "s",
    "us_per_call": "us", "ns_per_trial_m1": "ns", "ns_per_trial_m19": "ns",
    "self_share": "ratio", "heralds_per_trial": "ratio",
    "coincidences_per_trial": "ratio", "cpu_per_wall": "ratio",
}
PER_LAYER = tuple(
    (f"{layer}.{field}", FIELD_UNITS[field]) for layer, fields in LAYERS for field in fields
) + (
    ("io.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def import_package():
    """Import swpemux from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import swpemux
    from swpemux import analysis, cli, config, engine, geometry, io, link, states, util

    if not Path(swpemux.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"swpemux was imported from {swpemux.__file__}, not from {SRC}")
    return SimpleNamespace(analysis=analysis, cli=cli, config=config, engine=engine, geometry=geometry,
                           io=io, link=link, states=states, util=util)


class Checks:
    """Correctness checks of one pass: a failed preset check, a failed
    z-gate or an unexpected CLI exit each count once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list = []

    def gate(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failed.append(f"{name}: {detail}" if detail else name)

    def z(self, name: str, z: float) -> None:
        self.gate(name, abs(z) < oracle.Z_GATE, f"z = {z:.2f}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(api, argv: list) -> tuple:
    """cli.main(argv) with its stderr captured; returns (exit code, stderr)."""
    captured = StringIO()
    with contextlib.redirect_stderr(captured):
        code = api.cli.main(argv)
    return code, captured.getvalue()


def write_config(path: Path, **changes) -> dict:
    params = dict(oracle.PARAMS, **changes)
    path.write_text(json.dumps(params, sort_keys=True) + "\n", encoding="utf-8")
    return params


# ---------------------------------------------------------------------------
# herald_sweep: the fig2 preset


def prepare_herald(api, seed: int, size: dict, work: Path):
    rng = random.Random(seed)
    params = write_config(work / "config.json")
    argv = ["reproduce", "--figure", "fig2", "--threads", "1", "--seed", str(rng.getrandbits(63)),
            "--config", str(work / "config.json"), "--out", str(work / "fig2.json")]
    if size["fig2_trials"]:
        argv += ["--trials", str(size["fig2_trials"])]
    return SimpleNamespace(argv=argv, params=params, out=work / "fig2.json")


def pass_herald(api, env, between):
    t0 = time.perf_counter()
    code, stderr = call_cli(api, env.argv)
    wall = time.perf_counter() - t0

    checks = Checks()
    report = json.loads(env.out.read_text(encoding="utf-8"))
    failed_preset = {c["name"] for c in report["checks"] if not c["passed"]}
    # The preset's ratio window [18.5, 19.0] is about one standard error wide
    # at the preset's 10^7 trials and far narrower than that at the 10^5 run
    # here; a miss makes the CLI exit 1 but is not a wrong output. It is
    # reported as a window miss; the z-gates below judge correctness.
    window_misses = len(failed_preset & {"p_s_ratio_m19_vs_m1"})
    checks.gate("cli_exit", code == 0 or (code == 1 and failed_preset == {"p_s_ratio_m19_vs_m1"}),
                f"exit {code}: {stderr.strip()}")
    for c in report["checks"]:
        if c["name"] != "p_s_ratio_m19_vs_m1":
            checks.gate(f"preset.{c['name']}", c["passed"], f"value {c['value']}")
    trials = 0
    for row in report["data"]:
        p = oracle.herald_probability(env.params, row["m"])
        heralds = round(row["p_s_hat"] * row["trials"])
        checks.z(f"herald_m{row['m']}", oracle.binomial_z(heralds, row["trials"], p))
        trials += row["trials"]
    return SimpleNamespace(steps=[wall], points=None, events=trials, checks=checks,
                           window_misses=window_misses, outputs={"fig2.json": sha256_file(env.out)})


# ---------------------------------------------------------------------------
# witness_map: library-level CHSH and tomography grid


def prepare_witness(api, seed: int, size: dict, work: Path):
    rng = random.Random(seed)
    params = dict(oracle.PARAMS)
    base = api.config.ExperimentConfig(**params)
    rows = []
    for m in size["grid_m"]:
        points = [(float(tau), rng.getrandbits(63), rng.getrandbits(63)) for tau in size["grid_tau"]]
        rows.append((m, base.replace(m=m), points))
    return SimpleNamespace(
        rows=rows, params=params, n=size["coincidences"],
        bell=api.analysis.CANONICAL_BELL.setting_pairs(),
        tomo=api.analysis.tomography_setting_pairs(),
        target=api.states.bell_state(params["theta"]),
    )


def pass_witness(api, env, between):
    engine, analysis = api.engine, api.analysis
    steps, latencies, results, fits = [], [], [], []
    for row, (m, config, points) in enumerate(env.rows):
        if row:
            between()
        t_row = time.perf_counter()
        decay = []
        for tau, seed_bell, seed_tomo in points:
            t0 = time.perf_counter()
            bell_table = engine.run_coincidence_batch(config, tau, env.bell, env.n, seed_bell)
            s, s_err = analysis.bell_s(bell_table)
            tomo_table = engine.run_coincidence_batch(config, tau, env.tomo, env.n, seed_tomo)
            rho = analysis.project_physical(analysis.tomo_reconstruct(tomo_table))
            fid = analysis.fidelity(rho, env.target)
            latencies.append((row, time.perf_counter() - t0))
            decay.append((tau, s, s_err))
            results.append((m, tau, s, s_err, fid))
        fits.append((m, analysis.fit_decay(decay)))
        steps.append(time.perf_counter() - t_row)

    checks = Checks()
    for m, tau, s, s_err, _ in results:
        checks.z(f"chsh_m{m}_tau{tau:g}", (s - oracle.chsh_s(env.params, m, tau)) / s_err)
    for m, fit in fits:
        rate_err = float(fit.covariance[1][1]) ** 0.5
        checks.z(f"decay_rate_m{m}", (1.0 / fit.tau_c - 1.0 / env.params["tau_c"]) / rate_err)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    events = len(results) * (len(env.bell) + len(env.tomo)) * env.n
    return SimpleNamespace(steps=steps, points=latencies, events=events, checks=checks,
                           window_misses=0, outputs={"witness_results": digest})


# ---------------------------------------------------------------------------
# dark_pipeline: the CLI file round trip with dark counts at two threads


PIPELINE_FILES = ("bell.csv", "bell.json", "tomo.csv", "tomo.json", "fit.json", "link.csv", "pmc.csv")
DECAY_TAUS = (0.7, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DECAY_NOISE = 0.01
LINK_P1 = 1e-3


def prepare_dark(api, seed: int, size: dict, work: Path):
    rng = random.Random(seed)
    params = write_config(work / "config.json", dark_rate=3e-3)
    with open(work / "points.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("tau,s,s_err\n")
        for tau in DECAY_TAUS:
            s = oracle.chsh_s(params, params["m"], tau) + rng.gauss(0.0, DECAY_NOISE)
            handle.write(f"{tau!r},{s!r},{DECAY_NOISE!r}\n")
    def w(name: str) -> str:
        return str(work / name)

    sim = ["--config", w("config.json"), "--threads", "2", "--trials", str(size["pipeline_trials"])]
    commands = [
        ["simulate", "--settings", "bell", "--out", w("bell.csv"), "--seed", str(rng.getrandbits(63))] + sim,
        ["bell", "--counts", w("bell.csv"), "--out", w("bell.json")],
        ["simulate", "--settings", "tomo", "--out", w("tomo.csv"), "--seed", str(rng.getrandbits(63))] + sim,
        ["tomo", "--counts", w("tomo.csv"), "--out", w("tomo.json"), "--config", w("config.json")],
        ["decay", "--points", w("points.csv"), "--out", w("fit.json")],
        ["link", "--out", w("link.csv"), "--p1", repr(LINK_P1),
         "--m-grid", ",".join(str(m) for m in range(1, 20)), "--format", "csv"],
        ["pmc", "--out", w("pmc.csv"), "--m", "19", "--format", "csv"],
    ]
    trials = 13 * size["pipeline_trials"]  # 4 Bell pairs and 9 tomography pairs
    return SimpleNamespace(commands=commands, params=params, work=work, trials=trials)


def read_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def pass_dark(api, env, between):
    exits, steps = [], []
    for step, argv in enumerate(env.commands):
        if step:
            between()
        t0 = time.perf_counter()
        exits.append((argv[0], *call_cli(api, argv)))
        steps.append(time.perf_counter() - t0)

    checks = Checks()
    params, work = env.params, env.work
    for command, code, stderr in exits:
        checks.gate(f"cli_exit.{command}", code == 0, f"exit {code}: {stderr.strip()}")
    p_s = oracle.herald_probability(params, params["m"])
    for name in ("bell.csv", "tomo.csv"):
        for fields in read_rows(work / name)[1:]:
            heralds, total = int(fields[6]) + int(fields[7]), int(fields[8])
            checks.z(f"herald.{name}.{fields[0]}/{fields[1]}", oracle.binomial_z(heralds, total, p_s))
    bell = json.loads((work / "bell.json").read_text(encoding="utf-8"))
    expected_s = oracle.dark_chsh_s(params, params["m"], params["tau_ref"])
    checks.z("dark_chsh", (bell["s"] - expected_s) / bell["s_err"])
    fit = json.loads((work / "fit.json").read_text(encoding="utf-8"))
    rate_err = fit["covariance"][1][1] ** 0.5
    checks.z("decay_rate", (1.0 / fit["tau_c"] - 1.0 / params["tau_c"]) / rate_err)
    link_rows = read_rows(work / "link.csv")
    column = link_rows[0].index("speedup_exact")
    checks.gate("link_speedup", all(
        abs(float(r[column]) / oracle.link_speedup(LINK_P1, int(r[0])) - 1.0) < 1e-9
        for r in link_rows[1:]))
    residuals = read_rows(work / "pmc.csv")[1:]
    checks.gate("pmc_diagonal", all(abs(float(row[k])) < 1e-9 for k, row in enumerate(residuals)))
    outputs = {name: sha256_file(work / name) for name in PIPELINE_FILES}
    return SimpleNamespace(steps=steps, points=None, events=env.trials, checks=checks,
                           window_misses=0, outputs=outputs)


# workload -> (prepare, pass, CPUs it runs on: the engine's thread count,
#              calibration components that mirror its work; see hostspeed.py)
WORKLOADS = {
    "herald_sweep": (prepare_herald, pass_herald, 1, ("streamed", "interp")),
    "witness_map": (prepare_witness, pass_witness, 1, ("small", "interp")),
    "dark_pipeline": (prepare_dark, pass_dark, 2, ("streamed", "interp")),
}


# ---------------------------------------------------------------------------
# tracing


def trace_targets(api) -> tuple:
    def batch_counts(args, kwargs, result):
        plan = args[0] if args else kwargs["plan"]
        return {"m": plan.config.m, "trials": result.n_trials_total,
                "heralds": result.n_heralds, "coincidences": result.n_coincidences}

    def sample_counts(args, kwargs, table):
        return {"samples": sum(row.n_total for row in table.rows)}

    def text_bytes(args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        return len(text.encode("utf-8"))

    e, a, i = api.engine, api.analysis, api.io
    spans = [
        (api.states, "joint_probabilities", "states.joint_probabilities", {}),
        (e, "derive_stream", "engine.derive_stream", {}),
        (e, "run_batch", "engine.run_batch", {"counts": batch_counts, "cpu": True, "batch": True}),
        (e, "run_coincidence_batch", "engine.run_coincidence_batch", {"counts": sample_counts}),
        *((a, f, f"analysis.{f}", {}) for f in
          ("bell_s", "tomo_reconstruct", "project_physical", "fidelity", "fit_decay")),
        *((i, f, f"io.{f}", {}) for f in
          ("write_coincidence_csv", "read_coincidence_csv", "write_json")),
        (api.cli, "main", "cli.main", {}),
        (api.link, "avg_entanglement_time", "link.avg_entanglement_time", {}),
        (api.geometry, "scan_geometry", "geometry.scan_geometry", {}),
    ]
    counters = [(api.util, "atomic_write_text", "io.bytes_written", text_bytes)]
    return spans, counters


def ratio(x: float, y: float) -> float:
    return x / y if y else 0.0


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics per traced pass."""
    n = len(traced)
    calls, self_s = {}, {}
    batch = {"trials": 0, "heralds": 0, "coincidences": 0, "cpu": 0.0, "wall": 0.0}
    per_m = {1: [0.0, 0], 19: [0.0, 0]}
    samples = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        if span.name == "engine.run_batch" and span.counts:
            for key in ("trials", "heralds", "coincidences"):
                batch[key] += span.counts[key]
            batch["cpu"] += span.cpu
            batch["wall"] += span.end - span.start
            if span.counts["m"] in per_m:
                per_m[span.counts["m"]][0] += own
                per_m[span.counts["m"]][1] += span.counts["trials"]
        elif span.name == "engine.run_coincidence_batch" and span.counts:
            samples += span.counts["samples"]

    trace_wall = statistics.median(p.wall for p in traced)
    trace_wall_ref = statistics.median(p.wall_ref for p in traced)
    fields = {
        "calls": lambda layer: calls.get(layer, 0) / n,
        "self_s": lambda layer: self_s.get(layer, 0.0) / n,
        "self_share": lambda layer: self_s.get(layer, 0.0) / n / trace_wall,
        "us_per_call": lambda layer: 1e6 * ratio(self_s.get(layer, 0.0), calls.get(layer, 0)),
        "trials": lambda layer: batch["trials"] / n,
        "samples": lambda layer: samples / n,
        "ns_per_trial_m1": lambda layer: 1e9 * ratio(*per_m[1]),
        "ns_per_trial_m19": lambda layer: 1e9 * ratio(*per_m[19]),
        "heralds_per_trial": lambda layer: ratio(batch["heralds"], batch["trials"]),
        "coincidences_per_trial": lambda layer: ratio(batch["coincidences"], batch["trials"]),
        "cpu_per_wall": lambda layer: ratio(batch["cpu"], batch["wall"]),
    }
    values = {f"{layer}.{field}": fields[field](layer) for layer, names in LAYERS for field in names}
    values["io.bytes_written"] = tracer.counters["io.bytes_written"] / n
    values["trace.wall_s"] = trace_wall
    values["trace_overhead_frac"] = (
        trace_wall_ref / statistics.median(p.wall_ref for p in untraced) - 1.0)
    return values


# ---------------------------------------------------------------------------
# driver


def setup(workload: str, seed: int, size: str, work: Path):
    """Import the package and generate the inputs; returns (api, env, seconds)."""
    t0 = time.perf_counter()
    api = import_package()
    env = WORKLOADS[workload][0](api, seed, SIZES[size], work)
    return api, env, time.perf_counter() - t0


def probe_setup(args) -> list:
    """(set-up seconds, calibration block after it) of fresh processes
    doing only the set-up, on the workload's CPUs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        probes.append((probe["setup_s"], {int(cpu): b for cpu, b in probe["block"].items()}))
    return probes


def scale_pass(result, blocks: list, components) -> None:
    """Adds the pass's wall time and its time in reference seconds. Step i
    ran between calibration blocks i and i + 1."""
    scales = [hostspeed.scale(components, before, after) for before, after in zip(blocks, blocks[1:])]
    result.cal = [{cpu: {c: statistics.median(b[cpu][c] + a[cpu][c]) for c in b[cpu]} for cpu in b}
                  for b, a in zip(blocks, blocks[1:])]
    if len(scales) != len(result.steps):
        raise RuntimeError(f"{len(result.steps)} steps between {len(blocks)} calibration blocks")
    result.wall = sum(result.steps)
    result.wall_ref = sum(t * k for t, k in zip(result.steps, scales))
    result.scale = result.wall_ref / result.wall
    if result.points is None:
        result.latencies, result.latencies_ref = [result.wall], [result.wall_ref]
    else:
        result.latencies = [t for _, t in result.points]
        result.latencies_ref = [t * scales[step] for step, t in result.points]


def measure(api, env, run_pass, seconds: float, trace: bool, clock: hostspeed.HostClock,
            first_block: dict, components):
    """Repeat the pass until the time is up. A traced run alternates
    untraced and traced passes and has at least one of each.

    A block of calibration units runs before every pass and after the last
    one, and the pass runs one between its steps (``between``)."""
    untraced, traced, checks = [], [], Checks()
    tracer = Tracer() if trace else None
    reference = None
    block_before = first_block
    begin = time.perf_counter()
    while True:
        inner: list = []

        def between() -> None:
            inner.append(clock.block(CAL_UNITS_INNER))

        traced_turn = trace and len(traced) < len(untraced)
        if traced_turn:
            tracer.install(*trace_targets(api))
            try:
                result = run_pass(api, env, between)
            finally:
                tracer.restore()
            checks.gate("wrappers_restored", not installed_wrappers())
            traced.append(result)
        else:
            checks.gate("no_wrappers_before_untraced_pass", not installed_wrappers())
            result = run_pass(api, env, between)
            untraced.append(result)
            if len(untraced) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        block_after = clock.block(CAL_UNITS)
        scale_pass(result, [block_before, *inner, block_after], components)
        block_before = block_after
        checks.attempted += result.checks.attempted
        checks.failed += result.checks.failed
        if reference is None:
            reference = result.outputs
        else:
            checks.gate("outputs_identical_across_passes", result.outputs == reference)
        if time.perf_counter() - begin >= seconds and (not trace or traced):
            return untraced, traced, checks, tracer, reference, peak_rss_mb


def end_to_end_metrics(passes: list, setup_probes: list, peak_rss_mb: float) -> dict:
    """End-to-end metrics in reference seconds, and the raw wall figures
    they were scaled from."""
    def p95(values: list) -> float:
        return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 \
            else values[0]

    latencies = [t for p in passes for t in p.latencies_ref]
    raw_latencies = [t for p in passes for t in p.latencies]
    values = {
        "setup_s": statistics.median(s * hostspeed.scale(SETUP_COMPONENTS, block)
                                     for s, block in setup_probes),
        "wall_ref_s": statistics.median(p.wall_ref for p in passes),
        "trials_per_ref_s": statistics.median(p.events / p.wall_ref for p in passes),
        "points_per_ref_s": statistics.median(len(p.latencies) / p.wall_ref for p in passes),
        "point_p50_ref_ms": 1e3 * statistics.median(latencies),
        "point_p95_ref_ms": 1e3 * p95(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in setup_probes),
        "wall_s": statistics.median(p.wall for p in passes),
        "trials_per_s": statistics.median(p.events / p.wall for p in passes),
        "point_p50_ms": 1e3 * statistics.median(raw_latencies),
        "point_p95_ms": 1e3 * p95(raw_latencies),
        "host_scale": statistics.median(p.scale for p in passes),
    }
    return values, raw


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    git = ["git", "-C", str(ROOT)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return {"revision": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def cpu_ticks() -> list:
    """Machine-wide CPU tick counters (user ... steal) from /proc/stat, or []."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def provenance(args, load_start: float, ticks_start: list) -> dict:
    import numpy

    ticks = [b - a for a, b in zip(ticks_start, cpu_ticks())]
    # the share of this machine's CPU time that the hypervisor gave to others
    steal = ticks[7] / sum(ticks) if len(ticks) == 8 and sum(ticks) else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "swpemux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "loadavg_1min_start": load_start, "loadavg_1min_end": os.getloadavg()[0],
        "cpu_steal_frac": steal,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "source_sha256": digest.hexdigest(), **git_state(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="smoke shrinks every workload for the self-test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_cpus(n: int) -> set:
    """Restricts this process to the first ``n`` CPUs it may use, so that
    the calibration units run on every CPU the workload runs on."""
    cpus = set(sorted(os.sched_getaffinity(0))[:n])
    os.sched_setaffinity(0, cpus)
    return cpus


def run(args) -> dict:
    """One benchmark run; returns the full record."""
    load_start, ticks_start = os.getloadavg()[0], cpu_ticks()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    home_cpus = os.sched_getaffinity(0)
    try:
        _, run_pass, n_cpus, components = WORKLOADS[args.workload]
        cpus = pin_cpus(n_cpus)
        api, env, setup_s = setup(args.workload, args.seed, args.size, work)
        if args.probe_setup:
            block = hostspeed.HostClock(cpus, SETUP_COMPONENTS).block(CAL_UNITS)
            return {"setup_s": setup_s, "block": block}
        clock = hostspeed.HostClock(cpus, components)
        first_block = clock.block(CAL_UNITS)
        untraced, traced, checks, tracer, outputs, peak_rss_mb = measure(
            api, env, run_pass, args.seconds, bool(args.trace), clock, first_block, components)
    finally:
        os.sched_setaffinity(0, home_cpus)
        shutil.rmtree(work, ignore_errors=True)
    raw = {}
    if args.trace:
        values = layer_metrics(tracer, traced, untraced)
        units = dict(PER_LAYER)
    else:
        probes = probe_setup(args)
        values, raw = end_to_end_metrics(untraced, probes, peak_rss_mb)
        units = dict(END_TO_END)
    passes = untraced + traced
    return {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "checks_failed_frac": len(checks.failed) / checks.attempted,
        "failed_checks": checks.failed[:50],
        "preset_window_misses": sum(p.window_misses for p in passes) / len(passes),
        "raw_wall_metrics": raw,
        "passes": {"untraced_s": [p.wall for p in untraced], "traced_s": [p.wall for p in traced],
                   "untraced_scale": [p.scale for p in untraced],
                   "traced_scale": [p.scale for p in traced],
                   "untraced_steps": [p.steps for p in untraced],
                   "untraced_cal": [p.cal for p in untraced]},
        "output_sha256": outputs,
        "provenance": provenance(args, load_start, ticks_start),
        "spans": tracer.spans if tracer else [],
    }


def write_record(args, record: dict) -> Path:
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except ImportError as exc:
        print(f"error: cannot import swpemux from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps(record))
        return 0
    path = write_record(args, record)
    for name, metric in record["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'checks_failed_frac':45s} {record['checks_failed_frac']:.6g} ratio"
          f" ({record['failed']} of {record['attempted']})")
    print(f"{'preset_window_misses':45s} {record['preset_window_misses']:.6g} per pass")
    for name, value in record["raw_wall_metrics"].items():
        print(f"{'raw.' + name:45s} {value:.6g}")
    for failure in record["failed_checks"]:
        print(f"FAILED {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
