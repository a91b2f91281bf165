#!/usr/bin/env python3
"""Scoped mutation probe: does the tier-1 suite catch each mutant in the table?

Run from the repository root:

    python3 tools/mutate.py [--rev HEAD] [--out tools/mutation_record.json]

Each entry of ``tools/mutants.json`` names a file, an exact old text that
occurs once in it, the new text and a reason. For each mutant, one at a
time, the script extracts a fresh ``git archive`` copy of the revision into
a temporary directory, applies the edit there and runs the tier-1 suite
(``python -m pytest -q --continue-on-collection-errors`` with ``src`` on the
path, without ``tests/test_mutants.py``, which fails on any mutant). A
mutant is killed when the suite fails, and the record lists the failing
tests; otherwise it survived. An unmutated copy runs first, and the
probe stops if that copy does not pass. The record (revision, Python and
numpy versions, command, and each mutant's outcome) is written as JSON.
The working tree is never edited.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "mutants.json"
# tests/test_mutants.py fails on every mutant by design (its old text is gone),
# so it would count as a kill that the tests of the code never made
SUITE = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "-rfE", "--ignore", "tests/test_mutants.py"]
_FAILED = re.compile(r"^(FAILED|ERROR) (\S+)")
TIMEOUT_S = 600.0  # one suite run takes about 20 s on 2 cores


def extract(rev: str, dest: Path) -> None:
    """A fresh copy of rev's committed tree in dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def apply(copy: Path, mutant: dict) -> None:
    path = copy / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise SystemExit(f"mutant {mutant['id']}: old text occurs {count} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def run_suite(copy: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *SUITE], cwd=copy, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "failing": [], "summary": "timed out",
                "seconds": round(time.perf_counter() - t0, 1)}
    lines = done.stdout.splitlines()
    failing = sorted({m.group(2) for m in map(_FAILED.match, lines) if m})
    return {"exit_code": done.returncode, "failing": failing,
            "summary": lines[-1] if lines else done.stderr.strip()[-200:],
            "seconds": round(time.perf_counter() - t0, 1)}


def probe(rev: str, mutants: list) -> dict:
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   check=True, capture_output=True, text=True).stdout.strip()
    record = {
        "command": "python3 tools/mutate.py " + " ".join(sys.argv[1:]),
        "revision": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "suite": "python " + " ".join(SUITE),
    }
    with tempfile.TemporaryDirectory(prefix="swpemux-mutant-") as work:
        base = Path(work) / "unmutated"
        extract(commit, base)
        record["unmutated"] = run_suite(base)
        if record["unmutated"]["exit_code"] != 0:
            raise SystemExit(f"the unmutated suite fails: {record['unmutated']['summary']}")
        print(f"unmutated: {record['unmutated']['summary']}", flush=True)
        results = []
        for mutant in mutants:
            copy = Path(work) / mutant["id"]
            extract(commit, copy)
            apply(copy, mutant)
            outcome = run_suite(copy)
            killed = outcome["exit_code"] != 0
            results.append({"id": mutant["id"], "file": mutant["file"],
                            "status": "killed" if killed else "survived",
                            "killed_by": outcome["failing"], "summary": outcome["summary"],
                            "seconds": outcome["seconds"],
                            "equivalent": mutant.get("equivalent")})
            print(f"{mutant['id']}: {results[-1]['status']} ({len(outcome['failing'])} tests)",
                  flush=True)
    record["mutants"] = results
    record["survivors"] = [r["id"] for r in results if r["status"] == "survived"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision whose tree is probed")
    parser.add_argument("--out", default=str(ROOT / "tools" / "mutation_record.json"))
    args = parser.parse_args(argv)
    record = probe(args.rev, json.loads(TABLE.read_text(encoding="utf-8")))
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"survivors: {record['survivors']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
