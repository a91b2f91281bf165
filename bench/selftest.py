#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

Run from the repository root:

    python3 bench/selftest.py

It checks that every workload, traced and untraced, prints every metric
named in BENCHMARK.json with its unit and fails no correctness check; that
a traced run restores every function it wrapped, so an untraced run never
sees a wrapper; and that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracer import installed_wrappers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
problems: list = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def bench_cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_printed_metrics(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench_cli(workload, trace)
            label = f"{workload} trace {trace}"
            expect(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
            if done.returncode != 0:
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            expect(printed == wanted, f"{label}: metrics or units differ from BENCHMARK.json")
            for name, unit in wanted.items():
                expect(any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in lines[:-1]), f"{label}: {name} not printed with {unit}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: checks_failed_frac = {result['failed']}/{result['attempted']}")
            print(f"ok   {label}: {len(printed)} metrics, 0 of {result['attempted']} checks failed")


def check_wrappers_restored() -> None:
    api = run.import_package()
    originals = {(module.__name__, attr): getattr(module, attr)
                 for module, attr, _, _ in run.trace_targets(api)[0]}
    for workload in run.WORKLOADS:
        traced = run.run(run.parse_args(["--workload", workload, "--seed", "2", "--seconds", "0",
                                         "--trace", "1", "--size", "smoke"]))
        expect(bool(traced["spans"]), f"{workload}: the traced run recorded no spans")
        expect(not installed_wrappers(), f"{workload}: wrappers left after the traced run")
        expect(all(getattr(sys.modules[module], attr) is fn
                   for (module, attr), fn in originals.items()),
               f"{workload}: an original function was not restored")
        untraced = run.run(run.parse_args(["--workload", workload, "--seed", "2", "--seconds", "0",
                                           "--trace", "0", "--size", "smoke"]))
        expect(untraced["failed"] == 0, f"{workload}: untraced run after a traced one failed "
                                        f"{untraced['failed_checks']}")
        print(f"ok   {workload}: wrappers restored, the following untraced run saw none")


def check_fails_without_package() -> None:
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        done = bench_cli("herald_sweep", 0, cwd=bare)
        expect(done.returncode != 0, "run without src/ exited 0")
        expect('"metrics"' not in done.stdout, "run without src/ printed a result")
        print(f"ok   without src/: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_printed_metrics(spec)
    check_wrappers_restored()
    check_fails_without_package()
    print("self-test passed" if not problems else f"self-test FAILED: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
