"""Property tests: physical projection, tomography inversion, config JSON
and its rejection of non-finite values, the outcome law and its agreement
with the enumerated bin-by-bin law of short trains, the validity of
sampled rows, the batched herald sampler against run_batch, the coincidence CSV
round trip, the closed forms of the Werner pair state and the indented JSON
text against json.dumps.

Examples are derandomized and no example database is kept, so every run
checks the same inputs.
"""
import atexit
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from swpemux.analysis import (
    CANONICAL_BELL,
    TSIRELSON_BOUND,
    analytic_bell_s,
    fidelity,
    fit_decay,
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
    _batch_law,
    _check_counts,
    analytic_p_s,
    effective_pair_state,
    herald_fractions,
    run_batch,
    run_coincidence_batch,
    visibility,
)
from swpemux.io import read_coincidence_csv, write_coincidence_csv
from swpemux.states import MeasurementSetting, bell_state
from swpemux.util import first_success_probability, json_dumps

from oracles import enumerated_law, exact_coincidence_table

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


@pytest.mark.parametrize("name", ExperimentConfig._fields)
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
    p_herald, cells, bins = _batch_law(config, tau, (pair,))
    assert 0.0 <= p_herald <= 1.0
    for probabilities in (cells[0], bins):
        assert np.all(probabilities >= 0.0)
        assert abs(probabilities.sum() - 1.0) < 1e-12


# trains short enough to enumerate, dark counts included; storage times and
# decay constants stay where the visibility needs no overflow guard
short_train_configs = st.builds(
    ExperimentConfig,
    m=st.integers(1, 4),
    chi=st.floats(1e-6, 0.5),
    theta=st.floats(0.0, 90.0),
    eta_d=st.floats(1e-3, 1.0),
    eta_as=_probability(),
    gamma=_probability(),
    v1=_probability(exclude_min=True),
    beta=st.floats(0.0, 10.0),
    tau_c=st.floats(1.0, 1e3) | st.just(float("inf")),
    tau_ref=st.floats(0.0, 10.0),
    dark_rate=st.just(0.0) | _probability(),
)


@PROPERTY
@given(short_train_configs, st.floats(0.0, 100.0), setting_pairs)
@example(ExperimentConfig(m=1), 0.7, HV_PAIR)
@example(ExperimentConfig(m=2, dark_rate=3e-3), 0.0, CANONICAL_BELL.setting_pairs()[1])
@example(ExperimentConfig(m=3, dark_rate=0.3), 30.0, tomography_setting_pairs()[5])
@example(ExperimentConfig(m=4, dark_rate=1.0), 0.7, HV_PAIR)  # a = 1: bin 0 always heralds
def test_outcome_law_is_the_enumerated_law(config, tau, pair):
    p_herald, cells, bins = enumerated_law(config, tau, pair)
    law_herald, law_cells, law_bins = _batch_law(config, tau, (pair,))
    assert abs(law_herald - p_herald) <= 1e-12
    np.testing.assert_allclose(law_cells[0], cells, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(law_bins, bins, rtol=0.0, atol=1e-12)


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
    setting_pairs,
    st.integers(1, 2**40),
    st.lists(st.tuples(st.integers(1, 64), st.integers(0, 2**64 - 1)), min_size=1, max_size=6),
)
@example(ExperimentConfig(dark_rate=3e-3), 0.7, HV_PAIR, 50_000, [(1, 2**64 - 1), (19, 0), (7, 5)])
@example(ExperimentConfig(dark_rate=3e-3), 0.7, HV_PAIR, 1, [(7, 5), (1, 0)])
@example(ExperimentConfig(eta_d=0.0), 0.7, HV_PAIR, 2**40, [(19, 0)])  # a = 0: no heralds
@example(ExperimentConfig(dark_rate=1.0), 0.7, HV_PAIR, 2**40, [(1, 1), (7, 1)])  # a = 1
def test_herald_fraction_is_run_batch_p_s_hat_bitwise(config, tau, pair, n, rows):
    """fig2 draws every row in one herald_fractions call, all at one trial
    count: each row's p_s_hat must be the very draw run_batch makes first for
    a one-pair plan at that count and the row's m and seed, so the float is
    the same bits, and its exact and linear values must be analytic_p_s at
    that m, whose exact value is the p_herald that _batch_law gives run_batch
    there."""
    ms, seeds = zip(*rows)
    fractions = herald_fractions(config, ms, n, seeds)
    assert len(fractions) == len(rows)
    for (m, seed), (p_s_hat, exact, linear) in zip(rows, fractions):
        batch = run_batch(RunPlan(config.replace(m=m), tau, (pair,), n, seed))
        assert p_s_hat.hex() == batch.p_s_hat.hex()
        law = analytic_p_s(config, m)
        assert (exact.hex(), linear.hex()) == (law.exact.hex(), law.linear.hex())
        assert exact.hex() == _batch_law(config.replace(m=m), tau, (pair,))[0].hex()


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


@st.composite
def decay_curves(draw):
    """(storage times, tau_c, v at tau = 0, relative S errors or None): 2 to 8
    distinct storage times in [0, 100], half a microsecond apart at least."""
    taus = [k / 2 for k in draw(st.lists(st.integers(0, 200), min_size=2, max_size=8,
                                         unique=True))]
    tau_c, v0 = draw(st.floats(5.0, 2000.0)), draw(st.floats(0.72, 0.99))
    errors = draw(st.none() | st.lists(st.floats(1e-3, 0.1), min_size=len(taus),
                                       max_size=len(taus)))
    return taus, tau_c, v0, errors


@PROPERTY
@given(decay_curves(), st.floats(allow_nan=False, allow_infinity=False))
@example(([0.7, 30.0], 234.6, 0.81, [0.004, 0.005]), 1e50)  # once a spurious "does not decay"
@example(([0.7, 15.0, 30.0], 234.6, 0.81, None), 1e10)  # once read as singular
@example(([0.7, 30.0], 234.6, 0.81, None), -1e6)  # once an OverflowError
def test_decay_fit_recovers_exact_curves_or_names_tau_ref(curve, tau_ref):
    taus, tau_c, v0, errors = curve
    s_values = [TSIRELSON_BOUND * v0 * math.exp(-tau / tau_c) for tau in taus]
    points = (list(zip(taus, s_values)) if errors is None else
              [(tau, s, s * e) for tau, s, e in zip(taus, s_values, errors)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = fit_decay(points, tau_ref=tau_ref)
        except ValueError as exc:
            assert "tau_ref" in str(exc)
            return
    assert fit.tau_c == pytest.approx(tau_c, rel=1e-9)
    assert fit.v_ref == pytest.approx(math.exp(math.log(v0) - tau_ref / tau_c), rel=1e-9)
    (c00, c01), (c10, c11) = fit.covariance.tolist()
    assert c00 >= 0.0 and c11 >= 0.0 and c01 == c10
    assert c00 * c11 >= c01 * c01 * (1.0 - 1e-12)


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
# lists of two or more flat records (non-empty dicts, lists or tuples of
# scalars), the shape of every record list the CLI writes
_record_values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**70, True, False, None]),
    st.floats(), st.integers(), _json_strings,
)
_flat_records = st.one_of(
    st.dictionaries(_json_strings, _record_values, min_size=1, max_size=4),
    st.lists(_record_values, min_size=1, max_size=4),
    st.lists(_record_values, min_size=1, max_size=3).map(tuple),
)
_record_lists = st.lists(_flat_records, min_size=2, max_size=5)
json_payloads = st.recursive(
    st.one_of(_json_scalars, _record_lists),
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
@example([{"b": 1, "a": 2.5}, {"c": None}])  # dict records
@example([[1, "x"], [True], [math.inf, -0.0, np.float64(0.1)]])  # list records
@example(((1, 2), (3,), (None, "y")))  # tuple records in a tuple
@example([{"a": 1}, [2, 3], (4,), {"b": [], "c": 5}, ("z",)])  # mixed, one not flat
@example([{"a": 1}, {}, {"b": 2}])  # an empty record among non-empty ones
@example([{"a": 1}, {"b": (2, 3)}])  # a record holding a container is not flat
@example([[1], (), [2]])
@example({"x": [[{"y": [{"a": 1}, {"b": 2}]}, [[1, 2], [3, 4]]]]})  # record lists 3+ deep
@example([{"s": "},\n  {", "t": "],\n    ["}, ["},\n      {", "{[]}"], {"\n},": "\n"}])
@example([{"a": 1}, {"b": {1, 2}}])  # a record holding a set
@example([[1], [np.int64(3)]])  # a record holding a numpy integer
def test_json_dumps_is_indented_json_dumps_bytewise(payload):
    try:
        expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            json_dumps(payload)
    else:
        assert json_dumps(payload) == expected
