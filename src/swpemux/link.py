"""Elementary-link budget for the memory-based repeater segment.

Covers the fiber signaling time over half the link, the entanglement
probability with and without multiplexing, and the equivalence between an
m-mode train and N feed-forward retries of a single mode. Times are
microseconds, distances kilometers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .util import ProbabilityPair, first_success_probability


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class LinkConfig:
    """Half-link length, fiber signal velocity, mode count and the
    single-mode entanglement probability per attempt."""

    l0_km: float = 60.0
    c_fiber_km_s: float = 2.0e5
    m: int = 19
    p1: float = 1e-3

    def __post_init__(self) -> None:
        _check_positive("link length l0_km", self.l0_km)
        _check_positive("fiber velocity c_fiber_km_s", self.c_fiber_km_s)
        _check_count("mode count m", self.m)
        if not 0.0 < self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in (0, 1], got {self.p1}")


@dataclass(frozen=True)
class FeedbackConfig:
    """Feed-forward retry loop: per-attempt herald efficiency eta, excitation
    probability chi, number of attempts and attempt spacing (microseconds)."""

    eta: float
    chi: float
    n_attempts: int
    delta_t: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 < self.chi < 1.0:
            raise ValueError(f"chi must lie strictly inside (0, 1), got {self.chi}")
        _check_count("attempt count n_attempts", self.n_attempts)
        _check_positive("attempt spacing delta_t", self.delta_t)


def communication_time(link: LinkConfig) -> float:
    """One-way classical signaling time over the half link, microseconds.

    Computed as l0 * 1e6 / c so the default 60 km over 2e5 km/s is exactly
    300.0 in floating point.
    """
    return link.l0_km * 1e6 / link.c_fiber_km_s


def p_link_multiplexed(p1: float, m: int) -> ProbabilityPair:
    """Entanglement probability per attempt cycle with m parallel modes: the
    exact 1 - (1 - p1)^m and the linear approximation m p1."""
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 must lie in (0, 1], got {p1}")
    if m < 1:
        raise ValueError(f"mode count must be at least 1, got {m}")
    return ProbabilityPair(first_success_probability(p1, m), m * p1)


@dataclass(frozen=True)
class EntanglementTimeReport:
    """Average times to herald one entangled pair over the half link.

    Attempt cycles are paced by the signaling time L0/c; the write-train
    duration is three orders of magnitude shorter and is neglected. linear
    fields use the m p1 approximation, exact fields the geometric series.
    overflowed flags averages that exceeded the floating point range (then
    reported as +inf rather than raising).
    """

    communication_time_us: float
    t_single_us: float
    t_multiplexed_linear_us: float
    t_multiplexed_exact_us: float
    speedup_linear: float
    speedup_exact: float
    overflowed: bool


def avg_entanglement_time(link: LinkConfig) -> EntanglementTimeReport:
    """Average entanglement time (L0/c)/P for the single-mode and m-mode
    link, with the multiplexing speedup."""
    t_comm = communication_time(link)
    p_multi = p_link_multiplexed(link.p1, link.m)
    t_single = t_comm / link.p1
    t_multi_linear = t_comm / p_multi.linear
    t_multi_exact = t_comm / p_multi.exact if p_multi.exact > 0.0 else math.inf
    overflowed = any(
        math.isinf(t) for t in (t_single, t_multi_linear, t_multi_exact)
    )
    return EntanglementTimeReport(
        communication_time_us=t_comm,
        t_single_us=t_single,
        t_multiplexed_linear_us=t_multi_linear,
        t_multiplexed_exact_us=t_multi_exact,
        speedup_linear=float(link.m),
        speedup_exact=p_multi.exact / link.p1,
        overflowed=overflowed,
    )


@dataclass(frozen=True)
class FeedbackReport:
    """Success statistics of N feed-forward retries."""

    p_exact: float
    p_linear: float
    total_time_us: float
    n_deterministic: float


def feedback_success(fb: FeedbackConfig) -> FeedbackReport:
    """Probability that N retries with per-attempt success eta chi herald at
    least once, the linear approximation N eta chi, the wall-clock time of
    the retry train, and the expected attempt count 1/(eta chi) for a
    near-deterministic herald."""
    p_attempt = fb.eta * fb.chi
    exact = first_success_probability(p_attempt, fb.n_attempts)
    n_det = 1.0 / p_attempt if p_attempt > 0.0 else math.inf
    return FeedbackReport(
        p_exact=exact,
        p_linear=fb.n_attempts * p_attempt,
        total_time_us=fb.n_attempts * fb.delta_t,
        n_deterministic=n_det,
    )


@dataclass(frozen=True)
class StrategyComparison:
    """Side-by-side of N-retry feed-forward against an m-mode train with the
    same per-attempt success probability and pacing."""

    n_attempts: int
    m: int
    p_attempt: float
    p_feedback: float
    p_multiplexed: float
    time_feedback_us: float
    time_multiplexed_us: float
    required_memory_lifetime_feedback_us: float
    required_memory_lifetime_multiplexed_us: float
    equivalent: bool


def feedback_vs_multiplexed_report(fb: FeedbackConfig, config) -> StrategyComparison:
    """Compare N feed-forward retries against one m-mode write train.

    config supplies the mode count: anything with an .m attribute (LinkConfig,
    the experiment configuration) or a plain integer. Requires
    n_attempts == m; both strategies then share the per-attempt probability
    eta chi and the attempt spacing delta_t, so their success probabilities
    and wall-clock times are identical by construction: one geometric kernel,
    first_success_probability, backs both. The memory must survive the full
    retry train either way, which is also the multiplexed train duration.
    With eta = 0 no attempt can succeed, and both probabilities are 0.
    """
    m = config if isinstance(config, int) else config.m
    if m != fb.n_attempts:
        raise ValueError(
            f"comparison needs matching attempt counts, got N={fb.n_attempts} and m={m}"
        )
    p_attempt = fb.eta * fb.chi
    feedback = feedback_success(fb)
    time_feedback = feedback.total_time_us
    time_multiplexed = m * fb.delta_t
    return StrategyComparison(
        n_attempts=fb.n_attempts,
        m=m,
        p_attempt=p_attempt,
        p_feedback=feedback.p_exact,
        p_multiplexed=first_success_probability(p_attempt, m),
        time_feedback_us=time_feedback,
        time_multiplexed_us=time_multiplexed,
        required_memory_lifetime_feedback_us=time_feedback,
        required_memory_lifetime_multiplexed_us=time_multiplexed,
        equivalent=True,
    )
