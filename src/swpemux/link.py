"""Elementary-link budget for the memory-based repeater segment.

Covers the fiber signaling time over half the link, the entanglement
probability with and without multiplexing, and the success statistics of N
feed-forward retries of a single mode. An m-mode train and m retries with the
same per-attempt probability share one geometric series,
first_success_probability, so feedback_success(...).p_exact equals
p_link_multiplexed(eta chi, m).exact. Times are microseconds, distances
kilometers.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .util import ProbabilityPair, as_count, checked_record, first_success_probability


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


class LinkConfig(checked_record("LinkConfig", "l0_km c_fiber_km_s m p1")):
    """Half-link length, fiber signal velocity, mode count and the
    single-mode entanglement probability per attempt."""

    __slots__ = ()

    def __new__(cls, l0_km: float = 60.0, c_fiber_km_s: float = 2.0e5, m: int = 19,
                p1: float = 1e-3):
        _check_positive("link length l0_km", l0_km)
        _check_positive("fiber velocity c_fiber_km_s", c_fiber_km_s)
        m = as_count("mode count m", m)
        if not 0.0 < p1 <= 1.0:
            raise ValueError(f"p1 must lie in (0, 1], got {p1}")
        return super().__new__(cls, l0_km, c_fiber_km_s, m, p1)


class FeedbackConfig(checked_record("FeedbackConfig", "eta chi n_attempts delta_t")):
    """Feed-forward retry loop: per-attempt herald efficiency eta, excitation
    probability chi, number of attempts and attempt spacing (microseconds)."""

    __slots__ = ()

    def __new__(cls, eta: float, chi: float, n_attempts: int, delta_t: float = 0.3):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if not 0.0 < chi < 1.0:
            raise ValueError(f"chi must lie strictly inside (0, 1), got {chi}")
        n_attempts = as_count("attempt count n_attempts", n_attempts)
        _check_positive("attempt spacing delta_t", delta_t)
        return super().__new__(cls, eta, chi, n_attempts, delta_t)


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
    m = as_count("mode count", m)
    return ProbabilityPair(first_success_probability(p1, m), m * p1)


class EntanglementTimeReport(NamedTuple):
    """Average times to herald one entangled pair over the half link.

    Attempt cycles are paced by the signaling time L0/c; the write-train
    duration is three orders of magnitude shorter and is neglected. linear
    fields use the m p1 approximation, exact fields the geometric series.
    """

    communication_time_us: float
    t_single_us: float
    t_multiplexed_linear_us: float
    t_multiplexed_exact_us: float
    speedup_linear: float
    speedup_exact: float


def avg_entanglement_time(link: LinkConfig) -> EntanglementTimeReport:
    """Average entanglement time (L0/c)/P for the single-mode and m-mode
    link, with the multiplexing speedup."""
    t_comm = communication_time(link)
    p_multi = p_link_multiplexed(link.p1, link.m)
    t_single = t_comm / link.p1
    t_multi_linear = t_comm / p_multi.linear
    t_multi_exact = t_comm / p_multi.exact if p_multi.exact > 0.0 else math.inf
    return EntanglementTimeReport(
        communication_time_us=t_comm,
        t_single_us=t_single,
        t_multiplexed_linear_us=t_multi_linear,
        t_multiplexed_exact_us=t_multi_exact,
        speedup_linear=float(link.m),
        speedup_exact=p_multi.exact / link.p1,
    )


class FeedbackReport(NamedTuple):
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
