"""The mutation probe's table (tools/mutants.json) stays in step with src/:
every mutant's old text occurs exactly once in its file, so an edit that
moves a mutated line fails here instead of leaving the table stale. The
probe itself (tools/mutate.py) runs the full suite per mutant and is not
part of this suite."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))


def test_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    path = ROOT / mutant["file"]
    assert path.parent == ROOT / "src" / "swpemux"
    assert mutant["new"] != mutant["old"] and mutant["reason"]
    assert path.read_text(encoding="utf-8").count(mutant["old"]) == 1
