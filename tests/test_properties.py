"""Property tests: physical projection, tomography inversion, config JSON
and its rejection of non-finite values, the outcome law, the validity of
sampled rows, the herald-only sampler against run_batch, the coincidence CSV
round trip, the closed forms of the Werner pair state and the indented JSON
text against json.dumps.

Examples are derandomized and no example database is kept, so every run
checks the same inputs.
"""
import atexit
import dataclasses
import json
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
    fidelity,
    project_physical,
    tomo_reconstruct,
    tomography_setting_pairs,
)
from swpemux.config import ExperimentConfig
from swpemux.engine import (
    CoincidenceTable,
    HV_PAIR,
    RunPlan,
    SettingPair,
    _check_counts,
    analytic_p_s,
    effective_pair_state,
    herald_fraction,
    outcome_law,
    run_batch,
    run_coincidence_batch,
    visibility,
)
from swpemux.io import read_coincidence_csv, write_coincidence_csv
from swpemux.states import MeasurementSetting, bell_state
from swpemux.util import first_success_probability, json_dumps

from oracles import exact_coincidence_table

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
    this pins that check to the row rule, _check_counts, row by row."""
    coincidences = run_coincidence_batch(config, tau, pairs, n, seed)
    batch = run_batch(RunPlan(config, tau, pairs, n, seed))
    for table in (coincidences, batch.table):
        assert list(table.pairs) == pairs
        for row in table.counts.tolist():
            _check_counts(*row)
            assert row[6] == n
    assert all(sum(row[:4]) == n for row in coincidences.counts.tolist())


@PROPERTY
@given(
    configs,
    storage_times,
    st.lists(setting_pairs, min_size=1, max_size=13),
    st.integers(1, 2**40),
    st.integers(0, 2**64 - 1),
)
@example(ExperimentConfig(dark_rate=3e-3), 0.7, [HV_PAIR], 50_000, 2**64 - 1)
@example(ExperimentConfig(eta_d=0.0), 0.7, [HV_PAIR], 2**40, 0)  # a = 0: no heralds
@example(ExperimentConfig(dark_rate=1.0), 0.7, [HV_PAIR] * 13, 2**40, 1)  # a = 1: all herald
def test_herald_fraction_is_run_batch_p_s_hat_bitwise(config, tau, pairs, n, seed):
    """fig2 reads p_s_hat from herald_fraction at analytic_p_s's exact value:
    the herald count must be the very draw run_batch makes first for pair 0,
    so the float is the same bits, and analytic_p_s at each m must be the
    p_herald that outcome_law gives run_batch at that m."""
    batch = run_batch(RunPlan(config, tau, pairs, n, seed))
    fraction = herald_fraction(analytic_p_s(config).exact, n, seed)
    if len(pairs) == 1:
        assert fraction.hex() == batch.p_s_hat.hex()
    else:
        n_d1, n_d2 = batch.table.counts[0, 4:6].tolist()
        assert fraction.hex() == ((n_d1 + n_d2) / n).hex()
    for m in range(1, config.m + 1):
        law = outcome_law(config.replace(m=m), tau, pairs[0])
        assert analytic_p_s(config, m).exact.hex() == law.p_herald.hex()


analyzers = st.one_of(
    st.floats(0.0, 180.0, exclude_max=True).map(MeasurementSetting.linear),
    st.sampled_from([MeasurementSetting.circular_r(), MeasurementSetting.circular_l()]),
)


@st.composite
def coincidence_rows(draw):
    """A setting pair and any count row that passes _check_counts, counts up
    to 10^20."""
    counts = st.integers(0, 10**20)
    n_d1, n_d2, spare = draw(counts), draw(counts), draw(counts)
    c11, c12 = draw(st.integers(0, n_d1)), draw(st.integers(0, n_d1))
    c21, c22 = draw(st.integers(0, n_d2)), draw(st.integers(0, n_d2))
    pair = SettingPair(draw(analyzers), draw(analyzers))
    return pair, [c11, c12, c21, c22, n_d1, n_d2, n_d1 + n_d2 + spare]


@PROPERTY
@given(st.lists(coincidence_rows(), max_size=13))
def test_coincidence_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "counts.csv")
        pairs, counts = [pair for pair, _ in rows], [row for _, row in rows]
        table = CoincidenceTable(pairs, np.array(counts, dtype=object).reshape(-1, 7))
        write_coincidence_csv(table, path)
        parsed = read_coincidence_csv(path)
        # exact Python ints: 10^20 does not survive a float or int64 array
        assert parsed.pairs == tuple(pairs) and parsed.counts.tolist() == counts


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


# keys and strings with newlines, quotes, brackets, escapes and non-ASCII text
_json_strings = st.text(st.sampled_from('ab \n\t"\\[]{},:\u00e9\u2028\u65e5\U0001f600'), max_size=5)
_json_scalars = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**70, -(2**70), True, False, None]),
    st.floats(), st.floats().map(np.float64), st.integers(), _json_strings,
)
json_payloads = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_json_strings, children, max_size=4),
    ),
    max_leaves=40,
)


@settings(PROPERTY, max_examples=200)
@given(json_payloads)
@example({"data": [{"m": 1, "p": 0.5}, {}, []], "passed": False, "\n[": ({"x": ()},)})
@example([[[]], {"a": {"b": {"c": [math.nan, -0.0, np.float64(1e300)]}}}])
def test_json_dumps_is_indented_json_dumps_bytewise(payload):
    assert json_dumps(payload) == json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
