"""Readers and writers for the package's file formats.

All writers produce deterministic bytes for deterministic inputs: fixed
column order, sorted JSON keys, shortest-round-trip float formatting and a
plain \\n line terminator. Every emitted format parses back through the
matching reader in this module. JSON text is util.json_dumps's (json.dumps
with indent=2 and sorted keys, from json's C encoder), and every file is
written by util.atomic_write_text.
"""
from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Iterable, Sequence

from .engine import COUNT_COLUMNS, BatchResult, CoincidenceRow, CoincidenceTable, SettingPair
from .util import atomic_write_text, json_dumps

COINCIDENCE_COLUMNS = ("setting_s", "setting_a", *COUNT_COLUMNS)


def csv_text(rows: Iterable[Sequence]) -> str:
    """CSV text of rows, one line each, \\n-terminated. Python floats are
    written in their shortest round-trip form (repr)."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _coincidence_fields(table: CoincidenceTable) -> list:
    """The table's rows as values in COINCIDENCE_COLUMNS order."""
    return [(*pair.tokens(), *counts) for pair, counts in zip(table.pairs, table.counts.tolist())]


def coincidence_table_to_csv(table: CoincidenceTable) -> str:
    return csv_text([COINCIDENCE_COLUMNS, *_coincidence_fields(table)])


def write_coincidence_csv(table: CoincidenceTable, path: str) -> None:
    atomic_write_text(path, coincidence_table_to_csv(table))


def parse_coincidence_csv(text: str) -> CoincidenceTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("coincidence CSV is empty") from None
    if tuple(header) != COINCIDENCE_COLUMNS:
        raise ValueError(
            f"unexpected coincidence CSV header {header!r}; expected {list(COINCIDENCE_COLUMNS)}"
        )
    rows = []
    for line_number, fields in enumerate(reader, start=2):
        if not fields:
            continue
        if len(fields) != len(COINCIDENCE_COLUMNS):
            raise ValueError(f"line {line_number}: expected {len(COINCIDENCE_COLUMNS)} fields")
        pair = SettingPair.from_tokens(fields[0], fields[1])
        try:
            rows.append(CoincidenceRow(pair, *[int(v) for v in fields[2:]]))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: counts must be integers") from exc
    table = CoincidenceTable(rows)
    table.validate()
    return table


def read_coincidence_csv(path: str) -> CoincidenceTable:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_coincidence_csv(handle.read())


def write_json(payload: Any, path: str) -> None:
    atomic_write_text(path, json_dumps(payload))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def batch_result_to_dict(result: BatchResult) -> dict:
    return {
        "rows": [dict(zip(COINCIDENCE_COLUMNS, fields))
                 for fields in _coincidence_fields(result.table)],
        "herald_bin_histogram": [int(v) for v in result.herald_bin_histogram],
        "n_trials_total": result.n_trials_total,
        "n_heralds": result.n_heralds,
        "n_dark_heralds": result.n_dark_heralds,
        "n_coincidences": result.n_coincidences,
        "p_s_hat": result.p_s_hat,
        "p_sas_hat": result.p_sas_hat,
        "tau": result.tau,
        "seed": result.seed,
    }


def write_batch_json(result: BatchResult, path: str) -> None:
    write_json(batch_result_to_dict(result), path)


def read_decay_points(path: str) -> list:
    """Read (tau, S, error) points from a CSV with header tau,s[,s_err] or a
    JSON list of {"tau":..., "s":..., "s_err":...} objects."""
    extension = os.path.splitext(path)[1].lower()
    if extension == ".json":
        data = read_json(path)
        if not isinstance(data, list):
            raise ValueError("decay point JSON must be a list of objects")
        points = []
        for entry in data:
            if not isinstance(entry, dict):
                raise ValueError(f"each decay point must be an object, got {entry!r}")
            if "tau" not in entry or "s" not in entry:
                raise ValueError("each decay point needs 'tau' and 's'")
            keys = ("tau", "s", "s_err") if entry.get("s_err") is not None else ("tau", "s")
            try:
                points.append(tuple(float(entry[key]) for key in keys))
            except TypeError:
                raise ValueError(f"decay point values must be numbers, got {entry!r}") from None
        return points
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError("decay point CSV is empty")
        header = [h.strip().lower() for h in header]
        if header[:2] != ["tau", "s"]:
            raise ValueError("decay point CSV header must start with tau,s")
        with_errors = len(header) > 2 and header[2] == "s_err"
        points = []
        for line_number, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) < 2:
                raise ValueError(f"line {line_number}: expected at least 2 fields (tau,s)")
            if with_errors and len(fields) > 2 and fields[2].strip():
                points.append((float(fields[0]), float(fields[1]), float(fields[2])))
            else:
                points.append((float(fields[0]), float(fields[1])))
        return points
