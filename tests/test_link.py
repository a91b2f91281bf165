"""Elementary-link timing and the feed-forward equivalence."""
import json
import math
import re

import numpy as np
import pytest

from swpemux.link import (
    FeedbackConfig,
    LinkConfig,
    avg_entanglement_time,
    communication_time,
    feedback_success,
    p_link_multiplexed,
)
from swpemux.util import first_success_probability


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l0_km": 0.0},
            {"c_fiber_km_s": -1.0},
            {"m": 0},
            {"p1": 0.0},
            {"p1": 1.5},
        ],
    )
    def test_link_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkConfig(**kwargs)

    @pytest.mark.parametrize("m", [2.5, 19.0, True])
    def test_link_mode_count_must_be_integer(self, m):
        with pytest.raises(ValueError, match="mode count m"):
            LinkConfig(m=m)

    def test_numpy_integer_counts_stored_as_int(self):
        link = LinkConfig(m=np.int64(19))
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=np.int64(3))
        assert type(link.m) is int and link == LinkConfig(m=19)
        assert type(fb.n_attempts) is int and fb == FeedbackConfig(eta=0.5, chi=0.01, n_attempts=3)
        for config in (link, fb):
            data = config._asdict()
            assert type(config)(**json.loads(json.dumps(data))) == config

    @pytest.mark.parametrize("name", ["l0_km", "c_fiber_km_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_link_lengths_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            LinkConfig(**{name: value})

    @pytest.mark.parametrize("n_attempts", [2.5, 19.0, True])
    def test_feedback_attempt_count_must_be_integer(self, n_attempts):
        with pytest.raises(ValueError, match="n_attempts"):
            FeedbackConfig(eta=0.5, chi=0.01, n_attempts=n_attempts)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_feedback_spacing_must_be_finite(self, value):
        with pytest.raises(ValueError, match="delta_t"):
            FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19, delta_t=value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": -0.1},
            {"eta": 1.1},
            {"chi": 0.0},
            {"n_attempts": 0},
            {"delta_t": 0.0},
        ],
    )
    def test_feedback_validation(self, kwargs):
        base = dict(eta=0.5, chi=0.01, n_attempts=19, delta_t=0.3)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FeedbackConfig(**base)


def test_communication_time_is_exactly_300_us():
    assert communication_time(LinkConfig()) == 300.0


def test_communication_time_scales_with_length():
    assert communication_time(LinkConfig(l0_km=120.0)) == 600.0


class TestMultiplexedProbability:
    def test_default_values(self):
        p = p_link_multiplexed(1e-3, 19)
        assert p.exact == pytest.approx(0.018829965135600922, rel=1e-13)
        assert p.linear == pytest.approx(0.019, rel=1e-14)

    def test_single_mode_is_identity(self):
        p = p_link_multiplexed(0.37, 1)
        assert p.exact == pytest.approx(0.37, rel=1e-15)
        assert p.linear == 0.37

    @pytest.mark.parametrize("m, message", [
        (0, "mode count must be at least 1, got 0"),
        (2.5, "mode count must be an integer, got 2.5"),
        (True, "mode count must be an integer, got True"),
        ("12", "mode count must be an integer, got '12'"),
    ], ids=["zero", "fraction", "bool", "string"])
    def test_mode_count_is_an_integer_of_at_least_one(self, m, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            p_link_multiplexed(0.1, m)


class TestEntanglementTime:
    def test_default_report(self):
        report = avg_entanglement_time(LinkConfig())
        assert report.communication_time_us == 300.0
        assert report.t_single_us == pytest.approx(300000.0, rel=1e-14)
        assert report.t_multiplexed_exact_us == pytest.approx(15932.052865716903, rel=1e-12)
        assert report.t_multiplexed_linear_us == pytest.approx(15789.473684210527, rel=1e-12)
        assert report.speedup_exact == pytest.approx(18.829965135600922, rel=1e-12)
        assert report.speedup_linear == pytest.approx(19.0, rel=1e-14)

    def test_speedup_approaches_mode_count_for_rare_success(self):
        report = avg_entanglement_time(LinkConfig(p1=1e-6))
        assert report.speedup_exact == pytest.approx(19.0, rel=1e-3)
        assert report.speedup_exact == pytest.approx(18.999829000968997, rel=1e-12)

    def test_overflow_sentinel(self):
        report = avg_entanglement_time(LinkConfig(p1=1e-307))
        assert math.isinf(report.t_single_us)


class TestFeedbackSuccess:
    def test_default_report(self):
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19)
        report = feedback_success(fb)
        assert report.p_exact == pytest.approx(first_success_probability(0.005, 19), rel=1e-15)
        assert report.p_linear == pytest.approx(19 * 0.005, rel=1e-14)
        assert report.total_time_us == pytest.approx(19 * 0.3, rel=1e-14)
        assert report.n_deterministic == pytest.approx(200.0, rel=1e-14)

    def test_equals_multiplexed_probability_exactly(self):
        # the two strategies share one geometric kernel: equality is bitwise
        import numpy as np

        rng = np.random.default_rng(1234)
        for _ in range(300):
            eta = float(rng.uniform(0.01, 1.0))
            chi = float(rng.uniform(1e-4, 0.2))
            n = int(rng.integers(1, 200))
            fb = FeedbackConfig(eta=eta, chi=chi, n_attempts=n)
            assert feedback_success(fb).p_exact == p_link_multiplexed(eta * chi, n).exact


class TestStrategyComparison:
    """N feed-forward retries against one m-mode train with N = m, the same
    per-attempt probability eta chi and the same attempt spacing."""

    def test_report_fields(self):
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19)
        retries = feedback_success(fb)
        train = p_link_multiplexed(fb.eta * fb.chi, 19)
        assert (retries.p_exact, retries.p_linear) == (train.exact, train.linear)
        # the memory must survive the whole retry train, as long as the m-mode train
        assert retries.total_time_us == 19 * fb.delta_t

    def test_accepts_anything_with_mode_count(self):
        # the link command's route: the retry count is the LinkConfig's mode count
        link = LinkConfig(m=19, p1=0.5 * 0.01)
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=link.m)
        assert feedback_success(fb).p_exact == p_link_multiplexed(link.p1, link.m).exact

    def test_zero_attempt_probability(self):
        # FeedbackConfig accepts eta = 0; neither strategy can then succeed
        fb = FeedbackConfig(eta=0.0, chi=0.01, n_attempts=3)
        assert feedback_success(fb).p_exact == first_success_probability(0.0, 3) == 0.0


class TestGeometricKernel:
    def test_matches_naive_formula(self):
        assert first_success_probability(0.25, 3) == pytest.approx(
            1.0 - 0.75**3, rel=1e-15
        )

    def test_precise_for_tiny_probabilities(self):
        # naive 1-(1-p)^n loses digits; log1p/expm1 keeps them
        p = 1e-12
        assert first_success_probability(p, 19) == pytest.approx(19e-12, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            first_success_probability(-0.1, 3)
        with pytest.raises(ValueError):
            first_success_probability(1.1, 3)
        with pytest.raises(ValueError):
            first_success_probability(0.5, -1)

    def test_edge_cases(self):
        assert first_success_probability(1.0, 5) == 1.0
        assert first_success_probability(0.5, 0) == 0.0
