"""File formats: coincidence CSV, batch JSON, decay point files."""
import json
from pathlib import Path

import pytest

from swpemux.analysis import CANONICAL_BELL
from swpemux.config import ExperimentConfig
from swpemux.engine import RunPlan, run_batch, run_coincidence_batch
from swpemux.io import (
    COINCIDENCE_COLUMNS,
    coincidence_table_to_csv,
    parse_coincidence_csv,
    read_coincidence_csv,
    read_decay_points,
    read_json,
    write_batch_json,
    write_coincidence_csv,
    write_json,
)
from swpemux.util import atomic_write_text

CFG = ExperimentConfig()


def sample_table():
    return run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs(), 5000, 3)


class TestCoincidenceCsv:
    def test_round_trip(self):
        table = sample_table()
        assert parse_coincidence_csv(coincidence_table_to_csv(table)).rows == table.rows

    def test_file_round_trip(self, tmp_path):
        table = sample_table()
        path = str(tmp_path / "counts.csv")
        write_coincidence_csv(table, path)
        assert read_coincidence_csv(path).rows == table.rows

    def test_header_line(self):
        text = coincidence_table_to_csv(sample_table())
        assert text.splitlines()[0] == ",".join(COINCIDENCE_COLUMNS)

    def test_unix_line_endings(self):
        assert "\r" not in coincidence_table_to_csv(sample_table())

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError):
            parse_coincidence_csv("a,b,c\n1,2,3\n")

    def test_impossible_counts_rejected(self):
        header = ",".join(COINCIDENCE_COLUMNS)
        # more coincidences than heralds on detector 1
        bad = f"{header}\n0.0,0.0,50,0,0,0,10,0,100\n"
        with pytest.raises(ValueError):
            parse_coincidence_csv(bad)

    def test_non_integer_counts_rejected(self):
        header = ",".join(COINCIDENCE_COLUMNS)
        bad = f"{header}\n0.0,0.0,1.5,0,0,0,2,0,100\n"
        with pytest.raises(ValueError):
            parse_coincidence_csv(bad)


class TestBatchJson:
    def test_payload_structure(self, tmp_path):
        plan = RunPlan(CFG, 0.7, CANONICAL_BELL.setting_pairs(), 20_000, 12)
        result = run_batch(plan)
        path = str(tmp_path / "batch.json")
        write_batch_json(result, path)
        payload = read_json(path)
        assert payload["n_trials_total"] == 4 * 20_000
        assert payload["n_heralds"] == result.n_heralds
        assert payload["seed"] == 12
        assert len(payload["herald_bin_histogram"]) == CFG.m
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["setting_s"] == "0.0"

    def test_json_is_sorted_and_stable(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json({"b": 1, "a": 2}, path)
        text = Path(path).read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


class TestDecayPoints:
    def test_csv_without_errors(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("tau,s\n0.7,2.30\n30.0,2.03\n")
        assert read_decay_points(str(path)) == [(0.7, 2.30), (30.0, 2.03)]

    def test_csv_with_errors(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("tau,s,s_err\n0.7,2.30,0.04\n30.0,2.03,0.05\n")
        assert read_decay_points(str(path)) == [(0.7, 2.30, 0.04), (30.0, 2.03, 0.05)]

    def test_json_list(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([{"tau": 0.7, "s": 2.3}, {"tau": 30.0, "s": 2.03}]))
        assert read_decay_points(str(path)) == [(0.7, 2.3), (30.0, 2.03)]

    def test_json_with_errors(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([{"tau": 0.7, "s": 2.3, "s_err": 0.04}]))
        assert read_decay_points(str(path)) == [(0.7, 2.3, 0.04)]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("time,value\n0.7,2.30\n")
        with pytest.raises(ValueError):
            read_decay_points(str(path))


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert Path(path).read_text() == "two\n"

    def test_no_partial_file_on_failure(self, tmp_path):
        path = str(tmp_path / "missing_dir" / "out.txt")
        with pytest.raises(OSError):
            atomic_write_text(path, "data")
