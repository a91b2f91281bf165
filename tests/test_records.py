"""Shape of the public API: the exported names and the result records,
immutable NamedTuples with pinned fields.

Result records are built positionally (CoincidenceTable.rows, the CSV
reader), so their field order is part of the API. Types whose constructor
validates its input stay dataclasses, whose __post_init__ a NamedTuple's
_make and _replace would skip. Every exported name is used outside tests/,
so a test-only helper lives in tests/oracles.py instead.
"""
import ast
import dataclasses
from pathlib import Path

import pytest

import swpemux
from swpemux.analysis import CANONICAL_BELL, BellSettings, DecayFit, fit_decay
from swpemux.config import ExperimentConfig
from swpemux.engine import HV_PAIR, BatchResult, CoincidenceRow, RunPlan, run_batch
from swpemux.geometry import BeamGeometry, ScanResult, fan_angles, scan_geometry
from swpemux.link import (
    EntanglementTimeReport,
    FeedbackConfig,
    FeedbackReport,
    LinkConfig,
    avg_entanglement_time,
    feedback_success,
)

ROOT = Path(__file__).resolve().parents[1]

EXPORTED = [
    "BASIS", "BatchResult", "BeamGeometry", "BellSettings", "CANONICAL_BELL",
    "CoincidenceRow", "CoincidenceTable", "DecayFit", "EntanglementTimeReport",
    "ExperimentConfig", "FeedbackConfig", "FeedbackReport", "HV_PAIR", "LinkConfig",
    "MeasurementSetting", "OutcomeLaw", "RunPlan", "ScanResult", "SettingPair",
    "TSIRELSON_BOUND", "analytic_bell_s", "analytic_correlation", "analytic_p_s",
    "analytic_p_sas", "avg_entanglement_time", "bell_s", "bell_state",
    "calibrate_visibility", "communication_time", "correlation_e", "derive_stream",
    "effective_pair_state", "fan_angles", "feedback_success", "fidelity", "fit_decay",
    "joint_probabilities", "outcome_law", "p_link_multiplexed", "pmc_residual",
    "project_physical", "run_batch", "run_coincidence_batch", "scan_geometry",
    "tomo_reconstruct", "tomography_setting_pairs", "validate_density", "visibility",
    "werner_state",
]

FIELDS = {
    CoincidenceRow: ("pair", "c_d1t1", "c_d1t2", "c_d2t1", "c_d2t2", "n_d1", "n_d2", "n_total"),
    BatchResult: ("table", "herald_bin_histogram", "n_trials_total", "n_heralds",
                  "n_dark_heralds", "n_coincidences", "p_s_hat", "p_sas_hat", "tau", "seed"),
    BellSettings: ("theta_s", "theta_s_prime", "theta_a", "theta_a_prime"),
    DecayFit: ("tau_c", "v_ref", "lifetime_chsh", "covariance", "tau_ref"),
    ScanResult: ("residuals", "tolerance", "directional", "cross_directional_pairs",
                 "cross_directional_fraction"),
    EntanglementTimeReport: ("communication_time_us", "t_single_us", "t_multiplexed_linear_us",
                             "t_multiplexed_exact_us", "speedup_linear", "speedup_exact",
                             "overflowed"),
    FeedbackReport: ("p_exact", "p_linear", "total_time_us", "n_deterministic"),
}

VALIDATED = {"ExperimentConfig", "MeasurementSetting", "SettingPair", "RunPlan",
             "BeamGeometry", "LinkConfig", "FeedbackConfig"}


def _records() -> list:
    """One record of each type, as the library returns it."""
    config = ExperimentConfig()
    result = run_batch(RunPlan(config, config.tau_ref, (HV_PAIR,), 1000, 7))
    fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19)
    return [
        result.table.rows[0],
        result,
        CANONICAL_BELL,
        fit_decay([(10.0, 2.6), (40.0, 2.2)], tau_ref=10.0),
        scan_geometry(BeamGeometry(fan_angles(3))),
        avg_entanglement_time(LinkConfig()),
        feedback_success(fb),
    ]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_field_order_is_pinned(cls):
    assert cls._fields == FIELDS[cls]


def test_defaults_are_kept():
    assert CoincidenceRow._field_defaults == {name: 0 for name in FIELDS[CoincidenceRow][1:]}
    assert BellSettings() == BellSettings(0.0, 45.0, 22.5, 67.5)


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable_tuples(record):
    assert type(record) in FIELDS
    assert record == tuple(record) and record._asdict().keys() == set(record._fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[-1], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_only_validated_types_are_dataclasses():
    exported = [getattr(swpemux, name) for name in swpemux.__all__]
    assert {obj.__name__ for obj in exported
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)} == VALIDATED


def test_exported_names_are_pinned():
    assert swpemux.__all__ == EXPORTED == sorted(EXPORTED)


def _references(path: Path) -> set:
    """Names a file's code loads, reads as an attribute, imports or spells as
    a whole string (getattr-style lookups), except inside a function or class
    of the same name: a definition does not count as its own use."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_exported_name_is_used_outside_the_tests():
    files = [p for p in sorted((ROOT / "src" / "swpemux").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(_references(path) for path in files))
    assert sorted(set(swpemux.__all__) - used) == []
