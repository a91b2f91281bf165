"""Discrete-trial Monte Carlo engine for the multiplexed write/read source.

One trial is one write train: m time bins, each holding at most one spin-wave
excitation. The first Stokes detector click (real or dark) heralds the train
and freezes the feed-forward logic; every later bin is ignored. After a
storage time tau the surviving spin wave is read out and the anti-Stokes
polarization is sampled from the effective pair state conditioned on which
Stokes detector fired.

Trials are i.i.d., so one closed-form law per setting pair (outcome_law)
gives the exact distribution of everything run_batch reports: the herald
count is binomial, and the outcome cells and the herald-bin histogram are
multinomial given it. run_batch draws those aggregates directly, at a cost
that does not grow with the trial count, and run_trial draws one train's
herald, outcome cell and herald bin from the same law.

Randomness comes from counter-mode Philox streams keyed by
(seed, domain, setting index). Each setting pair draws from its own stream in
a fixed order, so a batch is bitwise reproducible for a given seed. A batch
builds one Philox generator and re-keys it for each setting pair by setting
its state (counter 0, the pair's key, empty buffer), so the stream of pair s
is still exactly derive_stream(seed, domain, s). Sampling runs on the calling
thread; there is no thread count to choose.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .states import (
    MeasurementSetting,
    joint_probabilities,
    werner_state,
)
from .util import ProbabilityPair, first_success_probability

_DOMAIN_TRIALS = 0
_DOMAIN_COINCIDENCE = 1

_MAX_SEED = 1 << 64
_MAX_SETTINGS = 1 << 20
_MAX_TRIALS = 1 << 63  # the binomial draw takes a signed 64-bit trial count
_KEY_WORD = (1 << 64) - 1


def _stream_key(seed: int, domain: int, setting_index: int) -> int:
    """128-bit Philox key seed | domain<<64 | setting<<68 of one stream."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if not 0 <= domain < 16:
        raise ValueError(f"domain must lie in [0, 16), got {domain}")
    if not 0 <= setting_index < _MAX_SETTINGS:
        raise ValueError(f"setting index must lie in [0, 2^20), got {setting_index}")
    return seed | (domain << 64) | (setting_index << 68)


def derive_stream(seed: int, domain: int, setting_index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, domain, setting) cell.

    The 128-bit Philox key is seed | domain<<64 | setting<<68. Distinct keys
    give statistically independent counter-mode streams, so each setting
    pair of a batch draws from its own stream. The batch samplers do not
    build one generator per pair: they re-key a single generator (see
    _setting_streams), which yields exactly this stream.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, domain, setting_index)))


def _setting_streams(seed: int, domain: int, count: int):
    """Yield derive_stream(seed, domain, s) for s = 0, ..., count - 1.

    One Philox generator is built and re-keyed for each s by setting its
    state to counter 0, key s and an empty buffer, which is the state a fresh
    Philox(key=...) starts in; building a Philox costs about ten times as
    much, most of it a seed sequence that the key makes unused. Every item is
    the same Generator object, valid until the next one is drawn.
    """
    bit_generator = np.random.Philox(key=0)
    gen = np.random.Generator(bit_generator)
    for s in range(count):
        key = _stream_key(seed, domain, s)
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & _KEY_WORD, key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


# ---------------------------------------------------------------------------
# model quantities


def _check_storage_time(tau: float) -> None:
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"storage time tau must be finite and non-negative, got {tau}")


def visibility(
    config: ExperimentConfig,
    m: Optional[int] = None,
    tau: Optional[float] = None,
    *,
    form: str = "saturating",
) -> float:
    """Two-photon interference visibility of mode pairs in an m-bin train
    after a storage time tau (microseconds).

    The cross-mode background divides the single-mode visibility by
    1 + beta (m - 1) chi ("saturating", the default) or multiplies it by
    1 - beta (m - 1) chi ("linear"); both forms agree to first order and the
    data cannot tell them apart, so the choice is an explicit argument.
    Memory decay contributes exp(-(tau - tau_ref)/tau_c). The result is
    clamped to [0, 1].
    """
    if m is None:
        m = config.m
    if tau is None:
        tau = config.tau_ref
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    _check_storage_time(tau)
    load = config.beta * (m - 1) * config.chi
    if form == "saturating":
        base = config.v1 / (1.0 + load)
    elif form == "linear":
        base = config.v1 * (1.0 - load)
    else:
        raise ValueError(f"unknown visibility form {form!r}")
    value = base * math.exp(-(tau - config.tau_ref) / config.tau_c)
    return min(max(value, 0.0), 1.0)


def effective_pair_state(
    config: ExperimentConfig,
    m: Optional[int] = None,
    tau: Optional[float] = None,
    *,
    form: str = "saturating",
) -> np.ndarray:
    """Werner-form effective state of one heralded mode pair:
    V(m, tau) rho_pair(theta) + (1 - V) I/4."""
    return werner_state(config.theta, visibility(config, m, tau, form=form))


def _trial_law(config: ExperimentConfig, m: int) -> tuple:
    """(a, p_herald, p_real, p_read, p_background) of an m-bin train.

    A bin clicks with probability a = 1 - (1 - chi eta_d)(1 - d)^2, from a
    real photon or a dark count on either detector (written so that
    a = chi eta_d exactly when d = 0). The first clicking bin heralds, so
    p_herald = 1 - (1 - a)^m, and a real click in it wins over a dark one,
    so the herald is real with probability chi eta_d / a. The anti-Stokes
    arm then clicks with p_read after a real herald and with p_background
    (dark counts plus cross-mode background) after a dark one.
    """
    q = config.chi * config.eta_d
    d = config.dark_rate
    a = min(1.0, q + (1.0 - q) * d * (2.0 - d))
    p_real = q / a if a > 0.0 else 1.0  # with a = 0 nothing ever heralds
    p_read = config.gamma * config.eta_as
    p_background = min(1.0, d + config.beta * (m - 1) * config.chi * p_read)
    return a, first_success_probability(a, m), p_real, p_read, p_background


def analytic_p_s(config: ExperimentConfig, m: Optional[int] = None) -> ProbabilityPair:
    """Per-train herald probability 1 - (1 - a)^m, with the linear
    approximation m a for reporting; a is the dark-inclusive probability that
    a bin clicks (chi eta_d when dark_rate is 0)."""
    m = config.m if m is None else m
    a, p_herald = _trial_law(config, m)[:2]
    return ProbabilityPair(p_herald, m * a)


def analytic_p_sas(config: ExperimentConfig, m: Optional[int] = None) -> ProbabilityPair:
    """Per-train heralded coincidence probability: herald probability times
    the readout click probability, gamma eta_as after a real herald and the
    background probability after a dark one."""
    m = config.m if m is None else m
    a, p_herald, p_real, p_read, p_background = _trial_law(config, m)
    readout = p_real * p_read + (1.0 - p_real) * p_background
    return ProbabilityPair(p_herald * readout, m * a * readout)


# ---------------------------------------------------------------------------
# plan and result records


@dataclass(frozen=True)
class SettingPair:
    """Analyzer settings for the Stokes arm and the anti-Stokes arm."""

    stokes: MeasurementSetting
    anti_stokes: MeasurementSetting

    def tokens(self) -> tuple[str, str]:
        return (self.stokes.token(), self.anti_stokes.token())

    @staticmethod
    def from_tokens(stokes: str, anti_stokes: str) -> "SettingPair":
        return SettingPair(
            MeasurementSetting.from_token(stokes), MeasurementSetting.from_token(anti_stokes)
        )


HV_PAIR = SettingPair(MeasurementSetting.linear(0.0), MeasurementSetting.linear(0.0))


@dataclass(frozen=True)
class RunPlan:
    """Everything a batch needs: configuration, storage time, analyzer
    setting pairs, trials per pair and the RNG seed."""

    config: ExperimentConfig
    tau: float
    settings: tuple[SettingPair, ...]
    n_trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "settings", tuple(self.settings))
        _check_storage_time(self.tau)
        if not self.settings:
            raise ValueError("a run plan needs at least one analyzer setting pair")
        if not 1 <= self.n_trials < _MAX_TRIALS:
            raise ValueError(f"n_trials must lie in [1, 2^63) per pair, got {self.n_trials}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if len(self.settings) >= _MAX_SETTINGS:
            raise ValueError("too many setting pairs for the stream layout")

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "tau": self.tau,
            "settings": [
                {"stokes": p.stokes.token(), "anti_stokes": p.anti_stokes.token()}
                for p in self.settings
            ],
            "n_trials": self.n_trials,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunPlan":
        known = {"config", "tau", "settings", "n_trials", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown run plan keys: {', '.join(unknown)}")
        missing = sorted(known - set(data))
        if missing:
            raise ValueError(f"run plan is missing keys: {', '.join(missing)}")
        pairs = []
        for entry in data["settings"]:
            pairs.append(SettingPair.from_tokens(entry["stokes"], entry["anti_stokes"]))
        return RunPlan(
            config=ExperimentConfig.from_dict(data["config"]),
            tau=float(data["tau"]),
            settings=tuple(pairs),
            n_trials=int(data["n_trials"]),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single write train.

    herald_bin is 1-based. All herald and readout fields are None when no
    click occurred; a trial that was never heralded cannot have a readout.
    """

    trial_index: int
    herald_bin: Optional[int]
    herald_detector: Optional[int]
    herald_was_dark: bool
    readout_detector: Optional[int]
    storage_time: float

    @property
    def heralded(self) -> bool:
        return self.herald_bin is not None


@dataclass
class CoincidenceRow:
    """Counts for one analyzer setting pair.

    c_dXtY counts coincidences between Stokes detector X and anti-Stokes
    detector Y; n_d1/n_d2 are herald singles and n_total the number of trials.
    """

    pair: SettingPair
    c_d1t1: int = 0
    c_d1t2: int = 0
    c_d2t1: int = 0
    c_d2t2: int = 0
    n_d1: int = 0
    n_d2: int = 0
    n_total: int = 0

    def counts(self) -> np.ndarray:
        # no dtype cast: simulated rows hold ints, exact tables hold probabilities
        return np.array([[self.c_d1t1, self.c_d1t2], [self.c_d2t1, self.c_d2t2]])

    @property
    def n_coincidences(self) -> int:
        return self.c_d1t1 + self.c_d1t2 + self.c_d2t1 + self.c_d2t2

    def validate(self) -> None:
        values = (
            self.c_d1t1, self.c_d1t2, self.c_d2t1, self.c_d2t2,
            self.n_d1, self.n_d2, self.n_total,
        )
        if any(v < 0 for v in values):
            raise ValueError("coincidence counts must be non-negative")
        if self.c_d1t1 > self.n_d1 or self.c_d1t2 > self.n_d1:
            raise ValueError("D1 coincidences exceed D1 herald singles")
        if self.c_d2t1 > self.n_d2 or self.c_d2t2 > self.n_d2:
            raise ValueError("D2 coincidences exceed D2 herald singles")
        if self.n_d1 > self.n_total or self.n_d2 > self.n_total:
            raise ValueError("herald singles exceed the number of trials")
        if self.n_d1 + self.n_d2 > self.n_total:
            raise ValueError("total heralds exceed the number of trials")


@dataclass
class CoincidenceTable:
    """Ordered coincidence rows, one per analyzer setting pair."""

    rows: list = field(default_factory=list)

    def validate(self) -> None:
        for row in self.rows:
            row.validate()

    def find(self, pair: SettingPair) -> CoincidenceRow:
        for row in self.rows:
            if row.pair == pair:
                return row
        raise KeyError(f"no row for setting pair {pair.tokens()}")


@dataclass
class BatchResult:
    """Aggregate outcome of run_batch."""

    table: CoincidenceTable
    herald_bin_histogram: np.ndarray
    n_trials_total: int
    n_heralds: int
    n_dark_heralds: int
    n_coincidences: int
    p_s_hat: float
    p_sas_hat: float
    tau: float
    seed: int


# ---------------------------------------------------------------------------
# sampling


class OutcomeLaw(NamedTuple):
    """Exact law of one write train for one analyzer setting pair: everything
    run_batch and run_trial sample from. Both arrays are shared by every
    caller and read-only."""

    p_herald: float        # P(some bin clicks) = 1 - (1 - a)^m
    cells: np.ndarray      # P(cell | herald), {real, dark} x {D1, D2} x {T1, T2, no click}
    bins: np.ndarray       # P(herald in bin k | herald), proportional to (1 - a)^k


@functools.lru_cache(maxsize=256)
def outcome_law(config: ExperimentConfig, tau: float, pair: SettingPair) -> OutcomeLaw:
    """The per-trial outcome law at storage time tau for one setting pair.

    A real herald lands on D_i with the pair state's port probability and
    reads out with probability gamma eta_as, on T1 with probability
    P(T1 | D_i). A dark herald lands on D1 or D2 with probability 1/2 each
    (one detector alone, or both and a fair coin) and reads out an
    unpolarized background click. Memoized per (config, tau, pair), so
    run_trial and repeated batches do not rebuild it; the cache is bounded
    because sweeps visit arbitrary storage times.
    """
    rho = effective_pair_state(config, config.m, tau)
    joint = joint_probabilities(rho, pair.stokes, pair.anti_stokes)
    p_det = joint.sum(axis=1)
    total = p_det.sum()
    p_d1 = float(p_det[0] / total) if total > 0.0 else 0.5
    a, p_herald, p_real, p_read, p_bg = _trial_law(config, config.m)
    cells = np.empty((2, 2, 3))
    for i, p_port in enumerate((p_d1, 1.0 - p_d1)):
        # a port with zero herald probability is never sampled; 0.5 keeps the
        # arithmetic finite
        p_t1 = float(joint[i, 0] / p_det[i]) if p_det[i] > 0.0 else 0.5
        read = (p_read * p_t1, p_read * (1.0 - p_t1), 1.0 - p_read)
        cells[0, i] = p_real * p_port * np.array(read)
    cells[1, :] = (1.0 - p_real) * 0.5 * np.array([0.5 * p_bg, 0.5 * p_bg, 1.0 - p_bg])
    bins = (1.0 - a) ** np.arange(config.m)
    bins /= bins.sum()
    cells.flags.writeable = False
    bins.flags.writeable = False
    return OutcomeLaw(p_herald, cells, bins)


def _draw_index(probabilities: np.ndarray, u: float) -> int:
    """Inverse-CDF draw of one category from a uniform u in [0, 1). A u at
    or beyond the rounded total falls to the last category that can occur."""
    weights = probabilities.ravel().tolist()
    index = bisect.bisect_right(list(itertools.accumulate(weights)), u)
    if index == len(weights):
        index = max(i for i, w in enumerate(weights) if w > 0.0)
    return index


def run_trial(
    config: ExperimentConfig,
    tau: float,
    pair: SettingPair,
    rng: np.random.Generator,
    trial_index: int = 0,
) -> TrialRecord:
    """Sample one write train from outcome_law and return its TrialRecord.

    rng must be a stream dedicated to this trial (see derive_stream). Fixed
    draw order, part of the reproducibility contract: one uniform for the
    herald, against p_herald; then, only when heralded, one uniform for the
    outcome cell, which gives the herald detector, whether the herald was
    dark and the readout detector, and one uniform for the herald bin.
    """
    _check_storage_time(tau)
    law = outcome_law(config, tau, pair)
    if not rng.random() < law.p_herald:
        return TrialRecord(trial_index, None, None, False, None, tau)
    dark, cell = divmod(_draw_index(law.cells, rng.random()), 6)
    detector, readout = divmod(cell, 3)
    return TrialRecord(
        trial_index=trial_index,
        herald_bin=_draw_index(law.bins, rng.random()) + 1,
        herald_detector=detector + 1,
        herald_was_dark=bool(dark),
        readout_detector=readout + 1 if readout < 2 else None,
        storage_time=tau,
    )


def run_batch(plan: RunPlan) -> BatchResult:
    """Run n_trials write trains per analyzer setting pair.

    The aggregates are drawn from the exact outcome law instead of simulating
    every bin. Setting pair s draws from derive_stream(seed, trials domain, s),
    through one generator re-keyed per pair, in this fixed order: the herald
    count ~ Binomial(n_trials, p_herald); the twelve outcome cells of
    outcome_law ~ Multinomial(heralds, cells); the herald-bin histogram ~
    Multinomial(heralds, bins). The cost per pair is
    O(m), whatever n_trials is, and the result depends only on the plan.
    Totals are Python integers.

    p_s_hat is heralds/trials over the whole batch. p_sas_hat is
    coincidences/trials restricted to H/V-basis setting pairs when the plan
    contains any (readout success is polarization independent in this model,
    so other pairs estimate the same number); otherwise all pairs count.
    """
    n = plan.n_trials
    table = CoincidenceTable()
    histogram = np.zeros(plan.config.m, dtype=np.int64)
    n_dark = 0
    streams = _setting_streams(plan.seed, _DOMAIN_TRIALS, len(plan.settings))
    for pair, gen in zip(plan.settings, streams):
        law = outcome_law(plan.config, plan.tau, pair)
        heralds = int(gen.binomial(n, law.p_herald))
        cells = gen.multinomial(heralds, law.cells.ravel()).reshape(2, 2, 3)
        histogram += gen.multinomial(heralds, law.bins)
        (c11, c12, miss1), (c21, c22, miss2) = cells.sum(axis=0).tolist()
        row = CoincidenceRow(
            pair,
            c_d1t1=c11, c_d1t2=c12, c_d2t1=c21, c_d2t2=c22,
            n_d1=c11 + c12 + miss1, n_d2=c21 + c22 + miss2, n_total=n,
        )
        row.validate()
        table.rows.append(row)
        n_dark += int(cells[1].sum())

    n_heralds = sum(row.n_d1 + row.n_d2 for row in table.rows)
    n_coincidences = sum(row.n_coincidences for row in table.rows)
    n_trials_total = n * len(plan.settings)
    sas_rows = [row for row in table.rows if row.pair == HV_PAIR] or table.rows
    p_sas_hat = sum(row.n_coincidences for row in sas_rows) / (n * len(sas_rows))
    return BatchResult(
        table=table,
        herald_bin_histogram=histogram,
        n_trials_total=n_trials_total,
        n_heralds=n_heralds,
        n_dark_heralds=n_dark,
        n_coincidences=n_coincidences,
        p_s_hat=n_heralds / n_trials_total,
        p_sas_hat=p_sas_hat,
        tau=plan.tau,
        seed=plan.seed,
    )


def run_coincidence_batch(
    config: ExperimentConfig,
    tau: float,
    settings: Sequence[SettingPair],
    n_coincidences: int,
    seed: int,
) -> CoincidenceTable:
    """Sample n heralded coincidences per setting pair directly.

    This draws from the conditional law of run_batch given a real herald and
    a successful readout, P(D_i, T_j) = Tr[rho_eff (P_i x Q_j)], as one
    multinomial per pair. Use it where published statistics are quoted per
    heralded coincidence; the full per-trial engine would need about
    1/(p_s gamma eta_as) trials per coincidence to reach the same counts.
    Dark heralds are not part of the conditional law. Setting pair s draws
    from derive_stream(seed, coincidence domain, s); one generator is
    re-keyed per pair, so no pair builds its own.
    """
    if n_coincidences < 1:
        raise ValueError(f"n_coincidences must be at least 1, got {n_coincidences}")
    _check_storage_time(tau)
    settings = tuple(settings)
    if not settings:
        raise ValueError("need at least one analyzer setting pair")
    rho = effective_pair_state(config, config.m, tau)
    table = CoincidenceTable()
    streams = _setting_streams(seed, _DOMAIN_COINCIDENCE, len(settings))
    for pair, gen in zip(settings, streams):
        joint = joint_probabilities(rho, pair.stokes, pair.anti_stokes)
        probabilities = (joint / joint.sum()).ravel()
        c11, c12, c21, c22 = (int(v) for v in gen.multinomial(n_coincidences, probabilities))
        row = CoincidenceRow(
            pair,
            c_d1t1=c11, c_d1t2=c12, c_d2t1=c21, c_d2t2=c22,
            n_d1=c11 + c12, n_d2=c21 + c22, n_total=n_coincidences,
        )
        row.validate()
        table.rows.append(row)
    return table
