"""Readers and writers for the package's file formats.

All writers produce deterministic bytes for deterministic inputs: fixed
column order, sorted JSON keys, shortest-round-trip float formatting and a
plain \\n line terminator. Every emitted format parses back through the
matching reader in this module. JSON text is util.json_dumps's (json.dumps
with indent=2 and sorted keys, from json's C encoder). Every file is written
by util.atomic_write_text and read by util.read_text, which reads CRLF and a
lone CR as LF.
"""
from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Iterable, Sequence

import numpy as np

from .engine import COUNT_COLUMNS, BatchResult, CoincidenceTable, SettingPair, _check_counts
from .states import BASIS
from .util import as_number, atomic_write_text, json_dumps, read_text

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


def _csv_records(text: str, kind: str):
    """The header of CSV text, then (line number, fields) of each non-empty
    record. No header, or a csv.Error such as a field over csv's size limit,
    is a ValueError naming the kind of file or the line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield next(reader)
        yield from ((reader.line_num, fields) for fields in reader if fields)
    except StopIteration:
        raise ValueError(f"{kind} is empty") from None
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def parse_coincidence_csv(text: str) -> CoincidenceTable:
    header, *records = _csv_records(text, "coincidence CSV")
    if tuple(header) != COINCIDENCE_COLUMNS:
        raise ValueError(
            f"unexpected coincidence CSV header {header!r}; expected {list(COINCIDENCE_COLUMNS)}"
        )
    pairs, counts = [], []
    for line_number, fields in records:
        if len(fields) != len(COINCIDENCE_COLUMNS):
            raise ValueError(f"line {line_number}: expected {len(COINCIDENCE_COLUMNS)} fields")
        try:
            pairs.append(SettingPair.from_tokens(fields[0], fields[1]))
            try:
                counts.append([int(v) for v in fields[2:]])
                float(max(counts[-1], key=abs))  # the estimators read each count as a float
            except (ValueError, OverflowError) as exc:
                raise ValueError("counts must be float-range integers") from exc
            _check_counts(*counts[-1])
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from exc
    # exact Python ints, however large
    return CoincidenceTable(pairs, np.array(counts, dtype=object).reshape(-1, 7))


def read_coincidence_csv(path: str) -> CoincidenceTable:
    return parse_coincidence_csv(read_text(path))


def write_json(payload: Any, path: str) -> None:
    atomic_write_text(path, json_dumps(payload))


def read_json(path: str) -> Any:
    return json.loads(read_text(path))


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


def rho_payload(rho: np.ndarray) -> dict:
    """A density matrix as JSON: its basis order and its real and imaginary parts."""
    return {
        "basis": list(BASIS),
        "re": [[float(v) for v in row] for row in rho.real],
        "im": [[float(v) for v in row] for row in rho.imag],
    }


def read_decay_points(path: str) -> list:
    """Read (tau, S, error) points from a CSV with header tau,s[,s_err] or a
    JSON list of {"tau":..., "s":..., "s_err":...} objects. A JSON value that
    is not a number (a bool, a string, null) is a ValueError naming its key;
    a null s_err means no error."""
    text = read_text(path)
    if os.path.splitext(path)[1].lower() == ".json":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("decay point JSON must be a list of objects")
        points = []
        for entry in data:
            if not isinstance(entry, dict):
                raise ValueError(f"each decay point must be an object, got {entry!r}")
            if "tau" not in entry or "s" not in entry:
                raise ValueError("each decay point needs 'tau' and 's'")
            keys = ("tau", "s", "s_err") if entry.get("s_err") is not None else ("tau", "s")
            points.append(tuple(as_number(f"decay point {key}", entry[key]) for key in keys))
        return points
    header, *records = _csv_records(text, "decay point CSV")
    if [h.strip().lower() for h in header[:2]] != ["tau", "s"]:
        raise ValueError("decay point CSV header must start with tau,s")
    with_errors = len(header) > 2 and header[2].strip().lower() == "s_err"
    points = []
    for line_number, fields in records:
        if len(fields) < 2:
            raise ValueError(f"line {line_number}: expected at least 2 fields (tau,s)")
        width = 3 if with_errors and len(fields) > 2 and fields[2].strip() else 2
        try:
            points.append(tuple(float(v) for v in fields[:width]))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from exc
    return points
