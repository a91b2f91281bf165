"""Shape of the public API: the exported names, the result records
(immutable NamedTuples with pinned fields) and the checked records.

Result records are built positionally, so their field order is part of
the API. CoincidenceTable.rows builds CoincidenceRow records from the count
array; it is a read-only view kept for the traced benchmark, and no table is
built from rows. The seven types whose constructor validates its input are
namedtuples too, and every way to build one (the constructor, _make,
_replace, copy, unpickling) runs its checks. No module imports dataclasses,
whose generated methods every process would compile at import, and no
module but util opens a file: util.read_text reads every input and
util.atomic_write_text writes every output. Every exported name is used
outside tests/, so a test-only helper lives in tests/oracles.py instead.
"""
import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import swpemux
from swpemux.analysis import CANONICAL_BELL, BellSettings, DecayFit, fit_decay
from swpemux.config import ExperimentConfig
from swpemux.engine import HV_PAIR, BatchResult, CoincidenceRow, RunPlan, SettingPair, run_batch
from swpemux.geometry import BeamGeometry, ScanResult, fan_angles, scan_geometry
from swpemux.link import (
    EntanglementTimeReport,
    FeedbackConfig,
    FeedbackReport,
    LinkConfig,
    avg_entanglement_time,
    feedback_success,
)
from swpemux.states import MeasurementSetting

ROOT = Path(__file__).resolve().parents[1]

EXPORTED = [
    "BASIS", "BatchResult", "BeamGeometry", "BellSettings", "CANONICAL_BELL",
    "CoincidenceRow", "CoincidenceTable", "DecayFit", "EntanglementTimeReport",
    "ExperimentConfig", "FeedbackConfig", "FeedbackReport", "HV_PAIR", "LinkConfig",
    "MeasurementSetting", "RunPlan", "ScanResult", "SettingPair",
    "TSIRELSON_BOUND", "analytic_bell_s", "analytic_correlation", "analytic_p_s",
    "analytic_p_sas", "avg_entanglement_time", "bell_s", "bell_state",
    "calibrate_visibility", "communication_time", "correlation_e", "derive_stream",
    "effective_pair_state", "fan_angles", "feedback_success", "fidelity", "fit_decay",
    "joint_probabilities", "p_link_multiplexed", "pmc_residual",
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
                             "t_multiplexed_exact_us", "speedup_linear", "speedup_exact"),
    FeedbackReport: ("p_exact", "p_linear", "total_time_us", "n_deterministic"),
    ExperimentConfig: ("m", "chi", "theta", "eta_d", "eta_as", "gamma", "v1", "beta", "tau_c",
                       "tau_ref", "dark_rate"),
    MeasurementSetting: ("kind", "angle_deg", "transmit_hand"),
    SettingPair: ("stokes", "anti_stokes"),
    RunPlan: ("config", "tau", "settings", "n_trials", "seed"),
    BeamGeometry: ("write_angles", "stokes_angle"),
    LinkConfig: ("l0_km", "c_fiber_km_s", "m", "p1"),
    FeedbackConfig: ("eta", "chi", "n_attempts", "delta_t"),
}

# one record of each checked type, a field value its checks reject and the
# start of their message
CHECKED = [
    (ExperimentConfig(m=3, theta=30.0), "chi", 1.5, "chi must lie"),
    (MeasurementSetting.circular_l(), "transmit_hand", "X", "circular transmit handedness"),
    (RunPlan(ExperimentConfig(), 0.7, CANONICAL_BELL.setting_pairs(), 10, 1), "n_trials", 0,
     "n_trials must lie"),
    (BeamGeometry(fan_angles(3)), "stokes_angle", 90.0, "beam angles must lie"),
    (LinkConfig(m=7), "p1", 0.0, "p1 must lie"),
    (FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19), "n_attempts", 2.5,
     "attempt count n_attempts must be an integer"),
]
VALIDATED = [case[0] for case in CHECKED] + [SettingPair.from_tokens("22.5", "R")]


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


@pytest.mark.parametrize("record", _records() + VALIDATED, ids=lambda record: type(record).__name__)
def test_records_are_immutable_tuples(record):
    assert type(record) in FIELDS
    assert record == tuple(record) and record._asdict().keys() == set(record._fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[-1], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record, name, bad, message", CHECKED,
                         ids=[type(case[0]).__name__ for case in CHECKED])
def test_every_build_path_runs_the_checks(record, name, bad, message):
    cls = type(record)
    values = record._asdict() | {name: bad}
    forged = tuple.__new__(cls, values.values())  # what the checks keep from being built
    builds = [
        lambda: cls(**values),
        lambda: cls._make(values.values()),
        lambda: record._replace(**{name: bad}),
        lambda: copy.copy(forged),
        lambda: pickle.loads(pickle.dumps(forged)),
    ]
    if cls is ExperimentConfig:
        builds.append(lambda: record.replace(**{name: bad}))
    for build in builds:
        with pytest.raises(ValueError, match=f"^{message}"):
            build()


@pytest.mark.parametrize("record", VALIDATED, ids=lambda record: type(record).__name__)
def test_validated_records_round_trip(record):
    cls = type(record)
    assert hash(record) == hash(tuple(record))
    copies = [cls(*record), cls._make(record), record._replace(), copy.copy(record),
              copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for other in copies:
        assert type(other) is cls and other == record and hash(other) == hash(record)


def test_unpickled_records_key_dicts_under_another_hash_seed():
    # a record that stored the hash of its str fields would carry this
    # process's hash into the pickle and miss its key in another process
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    script = (
        "import pickle, sys\n"
        "records = pickle.loads(sys.stdin.buffer.read())\n"
        "table = {record: i for i, record in enumerate(records)}\n"
        "assert [table[type(r)(*r)] for r in records] == list(range(len(records)))\n"
        "print(hash('linear'))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(VALIDATED),
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) != hash("linear")


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted((ROOT / "src" / "swpemux").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []


def test_only_util_opens_files():
    openers = []
    for path in sorted((ROOT / "src" / "swpemux").glob("*.py")):
        if path.name == "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("open", "os.open"):
                openers.append(f"{path.name}:{node.lineno}")
    assert openers == []


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
