"""Property tests: physical projection, tomography inversion, config JSON.

Examples are derandomized and no example database is kept, so every run
checks the same inputs.
"""
import tempfile

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from swpemux.analysis import (
    exact_coincidence_table,
    project_physical,
    tomo_reconstruct,
    tomography_setting_pairs,
)
from swpemux.config import ExperimentConfig

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# Hypothesis caches the literals of the code under test in its storage
# directory even without an example database, and it does so while pytest
# collects; keep that directory out of the working tree. It is removed when
# the interpreter exits.
_STORAGE = tempfile.TemporaryDirectory(prefix="swpemux-hypothesis-")
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
