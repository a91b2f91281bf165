"""Property tests: physical projection, tomography inversion, config JSON
and its rejection of non-finite values, the outcome law, the validity of
sampled rows, the coincidence CSV round trip and the closed forms of the
Werner pair state.

Examples are derandomized and no example database is kept, so every run
checks the same inputs.
"""
import atexit
import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from swpemux.analysis import (
    CANONICAL_BELL,
    analytic_bell_s,
    exact_coincidence_table,
    fidelity,
    project_physical,
    tomo_reconstruct,
    tomography_setting_pairs,
)
from swpemux.config import ExperimentConfig
from swpemux.engine import (
    CoincidenceRow,
    CoincidenceTable,
    RunPlan,
    SettingPair,
    effective_pair_state,
    outcome_law,
    run_batch,
    run_coincidence_batch,
    visibility,
)
from swpemux.io import read_coincidence_csv, write_coincidence_csv
from swpemux.states import MeasurementSetting, bell_state
from swpemux.util import first_success_probability

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# Hypothesis caches the literals of the code under test in its storage
# directory even without an example database, and it does so while pytest
# collects; keep that directory out of the working tree. It is removed
# explicitly when the interpreter exits, not left to the implicit cleanup
# that warns of a leaked directory.
_STORAGE = tempfile.TemporaryDirectory(prefix="swpemux-hypothesis-")
atexit.register(_STORAGE.cleanup)
set_hypothesis_home_dir(_STORAGE.name)


# 32 numbers are the real and imaginary parts of a 4x4 complex matrix
entries = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False), min_size=32, max_size=32
)


def _matrix(values):
    parts = np.asarray(values).reshape(2, 4, 4)
    return parts[0] + 1j * parts[1]


def _unit_trace_hermitian(values):
    """A Hermitian matrix of trace 1, not necessarily positive."""
    a = _matrix(values)
    h = (a + a.conj().T) / 2.0
    return h + (1.0 - np.trace(h).real) * np.eye(4) / 4.0




@PROPERTY
@given(entries)
def test_project_physical_is_idempotent_and_trace_preserving(values):
    rho = _unit_trace_hermitian(values)
    projected = project_physical(rho)
    assert abs(np.trace(projected) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(projected).min() > -1e-12
    np.testing.assert_allclose(project_physical(projected), projected, rtol=0.0, atol=1e-12)


@PROPERTY
@given(entries)
def test_tomography_inverts_exact_tables(values):
    g = _matrix(values)
    assume(np.linalg.norm(g) > 1e-3)
    rho = g @ g.conj().T / np.linalg.norm(g) ** 2  # a density matrix: G G^dagger / Tr
    table = exact_coincidence_table(rho, tomography_setting_pairs())
    np.testing.assert_allclose(tomo_reconstruct(table), rho, rtol=0.0, atol=1e-12)


def _probability(**bounds):
    return st.floats(0.0, 1.0, **bounds)


def _positive(max_value):
    return st.floats(0.0, max_value, exclude_min=True)


configs = st.builds(
    ExperimentConfig,
    m=st.integers(1, 64),
    chi=_probability(exclude_min=True, exclude_max=True),
    theta=st.floats(0.0, 90.0),
    eta_d=_probability(),
    eta_as=_probability(),
    gamma=_probability(),
    v1=_probability(exclude_min=True),
    beta=st.floats(0.0, 1e6),
    tau_c=_positive(1e9) | st.just(float("inf")),
    tau_ref=st.floats(0.0, 1e6),
    dark_rate=_probability(),
    delta_t_train=_positive(1e6),
    rep_rate=_positive(1e12),
)


@PROPERTY
@given(configs)
def test_config_json_round_trip(config):
    assert ExperimentConfig.loads(config.dumps()) == config


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
@PROPERTY
@given(configs, st.sampled_from([math.nan, math.inf, -math.inf]))
@example(ExperimentConfig(), math.nan)
@example(ExperimentConfig(), math.inf)
@example(ExperimentConfig(), -math.inf)
def test_non_finite_config_field_is_rejected_by_name(name, config, value):
    if name == "tau_c" and value == math.inf:
        config.replace(tau_c=value)  # the one allowed infinity: no memory decay
        return
    with pytest.raises(ValueError, match=rf"^{name} "):
        config.replace(**{name: value})


storage_times = st.floats(0.0, allow_nan=False, allow_infinity=False)
setting_pairs = st.sampled_from(CANONICAL_BELL.setting_pairs() + tomography_setting_pairs())


@PROPERTY
@given(configs, storage_times, setting_pairs)
@example(ExperimentConfig(eta_d=0.0), 0.7, CANONICAL_BELL.setting_pairs()[0])  # a = 0
@example(ExperimentConfig(dark_rate=1.0), 0.7, tomography_setting_pairs()[4])  # a = 1
@example(ExperimentConfig(m=1, v1=1.0, tau_ref=5.0), 0.0, tomography_setting_pairs()[0])  # V = 1
def test_outcome_law_is_a_distribution(config, tau, pair):
    law = outcome_law(config, tau, pair)
    assert 0.0 <= law.p_herald <= 1.0
    for probabilities in (law.cells, law.bins):
        assert np.all(probabilities >= 0.0)
        assert abs(probabilities.sum() - 1.0) < 1e-12


@PROPERTY
@given(
    configs,
    storage_times,
    st.lists(setting_pairs, min_size=1, max_size=13),
    st.integers(1, 2**62),
    st.integers(0, 2**64 - 1),
)
def test_sampled_rows_pass_validate(config, tau, pairs, n, seed):
    """Both samplers return one valid row per setting pair, for any valid
    input: run_coincidence_batch checks its whole count array at once, so
    this pins that check to CoincidenceRow.validate."""
    coincidences = run_coincidence_batch(config, tau, pairs, n, seed)
    batch = run_batch(RunPlan(config, tau, pairs, n, seed))
    for table in (coincidences, batch.table):
        assert [row.pair for row in table.rows] == pairs
        for row in table.rows:
            row.validate()
            assert row.n_total == n
    assert all(row.n_coincidences == n for row in coincidences.rows)


analyzers = st.one_of(
    st.floats(0.0, 180.0, exclude_max=True).map(MeasurementSetting.linear),
    st.sampled_from([MeasurementSetting.circular_r(), MeasurementSetting.circular_l()]),
)


@st.composite
def coincidence_rows(draw):
    """Any row that passes CoincidenceRow.validate, counts up to 10^20."""
    counts = st.integers(0, 10**20)
    n_d1, n_d2, spare = draw(counts), draw(counts), draw(counts)
    c11, c12 = draw(st.integers(0, n_d1)), draw(st.integers(0, n_d1))
    c21, c22 = draw(st.integers(0, n_d2)), draw(st.integers(0, n_d2))
    pair = SettingPair(draw(analyzers), draw(analyzers))
    return CoincidenceRow(pair, c11, c12, c21, c22, n_d1, n_d2, n_d1 + n_d2 + spare)


@PROPERTY
@given(st.lists(coincidence_rows(), max_size=13))
def test_coincidence_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "counts.csv")
        write_coincidence_csv(CoincidenceTable(rows), path)
        assert read_coincidence_csv(path).rows == rows


@PROPERTY
@given(configs, storage_times)
@example(ExperimentConfig(tau_ref=1e6, tau_c=1e-300), 0.0)  # exp((tau_ref - tau)/tau_c) overflows
def test_werner_witnesses_scale_with_visibility(config, tau):
    v = visibility(config, tau=tau)
    rho = effective_pair_state(config, tau=tau)
    pure = bell_state(config.theta)
    assert abs(analytic_bell_s(rho) - v * analytic_bell_s(pure)) < 1e-12
    assert abs(fidelity(rho, pure) - (1.0 + 3.0 * v) / 4.0) < 1e-12


@PROPERTY
@given(_probability(), _probability(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_first_success_probability_is_monotone(p, q, n, k):
    (p, q), (n, k) = sorted((p, q)), sorted((n, k))
    assert first_success_probability(p, n) <= first_success_probability(q, n)
    assert first_success_probability(p, n) <= first_success_probability(p, k)
