"""Elementary-link timing and the feed-forward equivalence."""
import math

import pytest

from swpemux.link import (
    FeedbackConfig,
    LinkConfig,
    avg_entanglement_time,
    communication_time,
    feedback_success,
    feedback_vs_multiplexed_report,
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


class TestEntanglementTime:
    def test_default_report(self):
        report = avg_entanglement_time(LinkConfig())
        assert report.communication_time_us == 300.0
        assert report.t_single_us == pytest.approx(300000.0, rel=1e-14)
        assert report.t_multiplexed_exact_us == pytest.approx(15932.052865716903, rel=1e-12)
        assert report.t_multiplexed_linear_us == pytest.approx(15789.473684210527, rel=1e-12)
        assert report.speedup_exact == pytest.approx(18.829965135600922, rel=1e-12)
        assert report.speedup_linear == pytest.approx(19.0, rel=1e-14)
        assert not report.overflowed

    def test_speedup_approaches_mode_count_for_rare_success(self):
        report = avg_entanglement_time(LinkConfig(p1=1e-6))
        assert report.speedup_exact == pytest.approx(19.0, rel=1e-3)
        assert report.speedup_exact == pytest.approx(18.999829000968997, rel=1e-12)

    def test_overflow_sentinel(self):
        report = avg_entanglement_time(LinkConfig(p1=1e-307))
        assert report.overflowed
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
    def test_report_fields(self):
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19)
        report = feedback_vs_multiplexed_report(fb, 19)
        assert report.equivalent
        assert report.p_feedback == report.p_multiplexed
        assert report.time_feedback_us == report.time_multiplexed_us
        assert report.required_memory_lifetime_feedback_us == report.time_feedback_us
        assert report.n_attempts == report.m == 19

    def test_accepts_anything_with_mode_count(self):
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19)
        report = feedback_vs_multiplexed_report(fb, LinkConfig(m=19))
        assert report.m == 19

    def test_zero_attempt_probability(self):
        # FeedbackConfig accepts eta = 0; neither strategy can then succeed
        fb = FeedbackConfig(eta=0.0, chi=0.01, n_attempts=3)
        report = feedback_vs_multiplexed_report(fb, 3)
        assert report.p_attempt == 0.0
        assert report.p_feedback == report.p_multiplexed == 0.0

    def test_mismatched_counts_rejected(self):
        fb = FeedbackConfig(eta=0.5, chi=0.01, n_attempts=19)
        with pytest.raises(ValueError):
            feedback_vs_multiplexed_report(fb, 7)


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
