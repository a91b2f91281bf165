"""File formats: coincidence CSV, batch JSON, decay point files, the
indented JSON encoder and the atomic file write."""
import json
import math
import os
import re
import stat
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
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
from swpemux.util import atomic_write_text, json_dumps

CFG = ExperimentConfig()


def sample_table():
    return run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs(), 5000, 3)


class TestCoincidenceCsv:
    def test_round_trip(self):
        table = sample_table()
        assert parse_coincidence_csv(coincidence_table_to_csv(table)) == table

    def test_file_round_trip(self, tmp_path):
        table = sample_table()
        path = str(tmp_path / "counts.csv")
        write_coincidence_csv(table, path)
        assert read_coincidence_csv(path) == table

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

    def test_write_error_keeps_old_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "old\n")

        def failing_write(fd, data):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", failing_write)
            with pytest.raises(OSError, match="No space left"):
                atomic_write_text(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_unencodable_text_leaves_directory_unchanged(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(path), "lone \ud800 surrogate")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text() == "old\n"

    def test_file_mode_is_0o600(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        path.chmod(0o644)
        atomic_write_text(str(path), "new\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == b"new\n"

    def test_concurrent_writes_leave_exactly_their_targets(self, tmp_path):
        def write_all(worker):
            for k in range(25):
                atomic_write_text(str(tmp_path / f"{worker}-{k}.txt"), f"{worker} {k} \u00e9\n")

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(write_all, range(4)))
        names = {f"{worker}-{k}.txt" for worker in range(4) for k in range(25)}
        assert set(os.listdir(tmp_path)) == names
        for name in names:
            worker, k = name[:-4].split("-")
            assert (tmp_path / name).read_text(encoding="utf-8") == f"{worker} {k} \u00e9\n"


def _indented_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _circular_list():
    items = [1]
    items.append(items)
    return items


def _circular_dict():
    inner = {"b": 1}
    outer = {"a": inner}
    inner["c"] = outer
    return outer


class TestJsonDumps:
    def test_c_encoder_is_available(self):
        # util.json_dumps writes through json's C encoder; a Python build
        # without the _json accelerator leaves this None
        assert json.encoder.c_make_encoder is not None

    @pytest.mark.parametrize("keys", [
        (3, 2.5, -0.0, math.inf, -math.inf, 2**70),
        (True, False),
        (None,),
        (np.float64(0.1), 7),
    ])
    @pytest.mark.parametrize("nested", [False, True])
    def test_keys_convert_as_json_converts_them(self, keys, nested):
        payload = {key: ([k] if nested else k) for k, key in enumerate(keys)}
        assert json_dumps(payload) == _indented_json(payload)
        assert json_dumps({"outer": payload}) == _indented_json({"outer": payload})

    @pytest.mark.parametrize("make", [
        lambda: np.int64(3),
        lambda: {"counts": [np.int64(3)]},
        lambda: [{1, 2}],
        lambda: {"a": set()},
        lambda: {(1, 2): 1},
        lambda: {(1, 2): [1], "a": [2]},
        lambda: {1: 1, "a": 2},
        lambda: {1: [1], "a": [2]},
        _circular_list,
        _circular_dict,
    ])
    def test_errors_are_json_errors(self, make):
        with pytest.raises((TypeError, ValueError)) as expected:
            _indented_json(make())
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            json_dumps(make())

    def test_repeated_container_is_not_circular(self):
        shared = {"x": [1.5]}
        payload = {"a": shared, "b": [shared, shared]}
        assert json_dumps(payload) == _indented_json(payload)
