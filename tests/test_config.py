"""Experiment configuration: defaults, validation and the JSON format."""
import json

import numpy as np
import pytest

from swpemux.config import ExperimentConfig
from swpemux.engine import HV_PAIR, _batch_law


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.m == 19
    assert cfg.chi == 0.01
    assert cfg.theta == 45.0
    assert cfg.eta_d == 0.1
    assert cfg.eta_as == 0.5
    assert cfg.gamma == 0.3
    assert cfg.v1 == 0.937
    assert cfg.beta == 0.85
    assert cfg.tau_c == 235.0
    assert cfg.tau_ref == 0.7
    assert cfg.dark_rate == 0.0


@pytest.mark.parametrize(
    "changes",
    [
        {"m": 0},
        {"m": -3},
        {"m": True},
        {"chi": 0.0},
        {"chi": 1.0},
        {"theta": -1.0},
        {"theta": 90.5},
        {"eta_d": 1.5},
        {"eta_as": -0.1},
        {"gamma": 2.0},
        {"v1": 0.0},
        {"v1": 1.5},
        {"beta": -0.2},
        {"tau_c": 0.0},
        {"tau_c": -5.0},
        {"tau_ref": -0.1},
        {"dark_rate": -1e-6},
        {"dark_rate": 1.5},
        {"eta_d": -0.1},
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ValueError):
        ExperimentConfig(**changes)


@pytest.mark.parametrize(
    "name, value",
    [
        ("beta", float("nan")),
        ("beta", float("inf")),
        ("tau_ref", float("nan")),
        ("tau_ref", float("inf")),
    ],
)
def test_non_finite_value_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("m", [np.int64(7), np.int32(7), np.uint8(7)])
def test_numpy_integer_mode_count_stored_as_int(m):
    cfg = ExperimentConfig(m=m)
    assert type(cfg.m) is int and cfg.m == 7
    assert cfg == ExperimentConfig(m=7)
    assert json.loads(cfg.dumps())["m"] == 7
    assert ExperimentConfig.loads(cfg.dumps()) == cfg


@pytest.mark.parametrize("m", [np.True_, np.float64(7.0), 7.0, "7", np.int64(0)])
def test_non_integral_mode_count_rejected(m):
    with pytest.raises(ValueError, match="m must be"):
        ExperimentConfig(m=m)


def test_infinite_memory_allowed():
    cfg = ExperimentConfig(tau_c=float("inf"))
    assert cfg.tau_c == float("inf")


def test_replace_revalidates():
    cfg = ExperimentConfig()
    assert cfg.replace(m=5).m == 5
    with pytest.raises(ValueError):
        cfg.replace(chi=0.0)


class TestReplace:
    def test_unknown_field_is_type_error(self):
        with pytest.raises(TypeError):
            ExperimentConfig().replace(bogus=1)

    @pytest.mark.parametrize("name, value", [
        ("chi", 0.0), ("theta", 91.0), ("eta_d", 1.5), ("v1", 0.0), ("beta", -0.2),
        ("tau_c", 0.0), ("tau_ref", float("nan")), ("m", 0),
    ])
    def test_out_of_range_value_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            ExperimentConfig().replace(**{name: value})

    @pytest.mark.parametrize("m", [19.0, True])
    def test_non_integral_mode_count_rejected(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            ExperimentConfig().replace(m=m)

    def test_no_changes_gives_an_equal_new_object(self):
        cfg = ExperimentConfig(m=7, chi=0.02, dark_rate=1e-3)
        copy = cfg.replace()
        assert copy is not cfg
        assert copy == cfg and hash(copy) == hash(cfg)

    def test_outcome_law_memo_is_hit(self):
        cfg = ExperimentConfig(m=5, chi=0.0123)
        law = _batch_law(cfg, 0.7, (HV_PAIR,))
        hits = _batch_law.cache_info().hits
        assert _batch_law(cfg.replace(m=cfg.m), 0.7, (HV_PAIR,)) is law
        assert _batch_law.cache_info().hits == hits + 1


class TestFromDict:
    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"m": 19, "typo": 1.0})

    def test_integral_float_m(self):
        assert ExperimentConfig.from_dict({"m": 19.0}).m == 19

    def test_fractional_m(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"m": 2.5})

    def test_partial_dict_uses_defaults(self):
        cfg = ExperimentConfig.from_dict({"v1": 0.9})
        assert cfg.v1 == 0.9
        assert cfg.m == 19


def test_json_round_trip():
    cfg = ExperimentConfig(m=7, chi=0.02, v1=0.88)
    assert ExperimentConfig.loads(cfg.dumps()) == cfg


def test_file_round_trip(tmp_path):
    cfg = ExperimentConfig(m=3, tau_c=120.0)
    path = tmp_path / "config.json"
    cfg.save(str(path))
    assert ExperimentConfig.load(str(path)) == cfg
    # sorted keys make the file diff-stable
    text = path.read_text()
    assert text.index('"beta"') < text.index('"chi"') < text.index('"m"')
