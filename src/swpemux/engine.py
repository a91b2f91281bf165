"""Discrete-trial Monte Carlo engine for the multiplexed write/read source.

One trial is one write train: m time bins, each holding at most one spin-wave
excitation. The first Stokes detector click (real or dark) heralds the train
and freezes the feed-forward logic; every later bin is ignored. After a
storage time tau the surviving spin wave is read out and the anti-Stokes
polarization is sampled from the effective pair state conditioned on which
Stokes detector fired.

The pair state is the Werner mixture V |psi(theta)><psi(theta)| + (1 - V) I/4,
so a setting pair's joint table is V J_pure(theta, pair) + (1 - V)/4. The
(P, 4) stack of these tables for P setting pairs (_pair_tables, one row per
pair, over J_pure memoized per pair tuple) is the one source of
P(D_i, T_j) for both samplers.

Trials are i.i.d., so one closed-form law per batch (_batch_law) gives the
exact distribution of everything run_batch reports: the herald count is
binomial, and the outcome cells and the herald-bin histogram are
multinomial given it. run_batch draws those aggregates for n trains, once
per setting pair, at a cost that does not grow with n; run_coincidence_batch
draws heralded coincidences from the stacked pair tables alone. Both build a
CoincidenceTable from its pairs and (P, 7) count array and check each row
against the one row rule, _check_counts. herald_fractions makes run_batch's
first draw, one herald count, for every row of a herald sweep at once.

Randomness comes from counter-mode Philox streams keyed by
(seed, domain, setting index). Each setting pair draws from its own stream in
a fixed order, so a batch is bitwise reproducible for a given seed. A batch
checks its seed, domain and last setting index once; each thread keeps one
Philox generator and re-keys it per pair by setting its state (counter 0,
key words (seed, domain | s << 4), empty buffer), so the stream of pair s is
exactly derive_stream(seed, domain, s) and no batch builds a generator.
Sampling runs on the calling thread; there is no thread count to choose.
"""
from __future__ import annotations

import functools
import math
import threading
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .states import MeasurementSetting, bell_state, joint_probabilities, werner_state
from .util import ProbabilityPair, as_count, checked_record, first_success_probability

_DOMAIN_TRIALS = 0
_DOMAIN_COINCIDENCE = 1

_MAX_SEED = 1 << 64
_MAX_SETTINGS = 1 << 20
_MAX_TRIALS = 1 << 63  # the binomial and multinomial draws take a signed 64-bit count


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
    build one generator per pair: they re-key their thread's generator (see
    _setting_streams), which yields exactly this stream.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, domain, setting_index)))


# each thread's (bit generator, Generator, counter-and-key dict, state dict),
# built by its first batch: at import, Philox's entropy imports cost about 4 ms
_THREAD = threading.local()


def _setting_streams(seeds: Sequence[int], domain: int, count: int):
    """Yield derive_stream(seed, domain, s) for each seed and s < count in turn,
    checking every key before the first. Each item is the thread's one
    Generator, valid until the next: a state write re-keys it (counter 0, key
    words (seed, domain | s << 4), empty buffer) at a tenth of the cost of a
    new Philox, most of it an unused seed sequence. The setter keeps no reference."""
    for seed in seeds:  # each seed's last key checks every key of its batch
        _stream_key(seed, domain, count - 1)
    if not hasattr(_THREAD, "parts"):
        bit_generator = np.random.Philox(key=0)
        counter_and_key = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        state = {"bit_generator": "Philox", "state": counter_and_key, "buffer": (0, 0, 0, 0),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _THREAD.parts = (bit_generator, np.random.Generator(bit_generator), counter_and_key, state)
    bit_generator, gen, counter_and_key, state = _THREAD.parts
    for seed in seeds:
        for s in range(count):
            counter_and_key["key"] = (seed, domain | s << 4)
            bit_generator.state = state
            yield gen


# ---------------------------------------------------------------------------
# model quantities


def _check_storage_time(tau: float) -> None:
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"storage time tau must be finite and non-negative, got {tau}")


def _check_draw_count(name: str, count: int) -> int:
    """count as an int in [1, 2^63), checked as an integer by name first."""
    count = as_count(name, count, -math.inf)
    if not 1 <= count < _MAX_TRIALS:
        raise ValueError(f"{name} must lie in [1, 2^63) per pair, got {count}")
    return count


def visibility(config: ExperimentConfig, *, tau: Optional[float] = None) -> float:
    """Two-photon interference visibility of mode pairs in a config.m-bin
    train after a storage time tau (microseconds).

    The cross-mode background divides the single-mode visibility by
    1 + beta (m - 1) chi, and memory decay contributes
    exp(-(tau - tau_ref)/tau_c). The result is clamped to [0, 1].
    """
    tau = config.tau_ref if tau is None else tau
    _check_storage_time(tau)
    base = config.v1 / (1.0 + config.beta * (config.m - 1) * config.chi)
    if base <= 0.0:  # the quotient can underflow to 0, where log would raise
        return 0.0
    exponent = -(tau - config.tau_ref) / config.tau_c
    if exponent > 700.0:  # exp would overflow; decide the clamp at 1 in logs
        return math.exp(min(math.log(base) + exponent, 0.0))
    return min(base * math.exp(exponent), 1.0)


def effective_pair_state(config: ExperimentConfig, *, tau: Optional[float] = None) -> np.ndarray:
    """Werner-form effective state of one heralded mode pair:
    V(config.m, tau) rho_pair(theta) + (1 - V) I/4."""
    return werner_state(config.theta, visibility(config, tau=tau))


def _trial_law(config: ExperimentConfig, m: int) -> tuple:
    """(a, p_herald, p_real, p_read, p_background) of an m-bin train (never config.m).

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


def analytic_p_s(config: ExperimentConfig) -> ProbabilityPair:
    """Per-train herald probability 1 - (1 - a)^m at m = config.m, with the
    linear approximation m a for reporting; a is the dark-inclusive
    probability that a bin clicks (chi eta_d when dark_rate is 0). The exact
    value is bitwise the p_herald of _batch_law."""
    a, p_herald = _trial_law(config, config.m)[:2]
    return ProbabilityPair(p_herald, config.m * a)


def analytic_p_sas(config: ExperimentConfig) -> ProbabilityPair:
    """Per-train heralded coincidence probability at m = config.m: herald
    probability times the readout click probability, gamma eta_as after a
    real herald and the background probability after a dark one."""
    a, p_herald, p_real, p_read, p_background = _trial_law(config, config.m)
    readout = p_real * p_read + (1.0 - p_real) * p_background
    return ProbabilityPair(p_herald * readout, config.m * a * readout)


# ---------------------------------------------------------------------------
# plan and result records


class SettingPair(NamedTuple):
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


class RunPlan(checked_record("RunPlan", "config tau settings n_trials seed")):
    """Everything a batch needs: configuration, storage time, analyzer
    setting pairs, trials per pair and the RNG seed."""

    __slots__ = ()

    def __new__(cls, config: ExperimentConfig, tau: float, settings: Iterable[SettingPair],
                n_trials: int, seed: int):
        settings = tuple(settings)
        if not all(isinstance(pair, SettingPair) for pair in settings):
            raise TypeError("run plan settings must be a sequence of SettingPair records")
        n_trials = _check_draw_count("n_trials", n_trials)
        seed = as_count("seed", seed, minimum=0)
        _check_storage_time(tau)
        if not settings:
            raise ValueError("a run plan needs at least one analyzer setting pair")
        if seed >= _MAX_SEED:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
        if len(settings) >= _MAX_SETTINGS:
            raise ValueError("too many setting pairs for the stream layout")
        return super().__new__(cls, config, tau, settings, n_trials, seed)


COUNT_COLUMNS = ("c_d1t1", "c_d1t2", "c_d2t1", "c_d2t2", "n_d1", "n_d2", "n_total")

def _check_counts(c_d1t1, c_d1t2, c_d2t1, c_d2t2, n_d1, n_d2, n_total) -> None:
    """The row rule of a coincidence table: raises the message of the first
    failing check. On Python numbers sums cannot wrap, and a NaN fails no
    comparison, so it passes each check on its own."""
    if (c_d1t1 < 0 or c_d1t2 < 0 or c_d2t1 < 0 or c_d2t2 < 0
            or n_d1 < 0 or n_d2 < 0 or n_total < 0):
        raise ValueError("coincidence counts must be non-negative")
    if c_d1t1 > n_d1 or c_d1t2 > n_d1:
        raise ValueError("D1 coincidences exceed D1 herald singles")
    if c_d2t1 > n_d2 or c_d2t2 > n_d2:
        raise ValueError("D2 coincidences exceed D2 herald singles")
    if n_d1 > n_total or n_d2 > n_total:
        raise ValueError("herald singles exceed the number of trials")
    if n_d1 + n_d2 > n_total:
        raise ValueError("total heralds exceed the number of trials")


class CoincidenceRow(NamedTuple):
    """Counts for one analyzer setting pair, as CoincidenceTable.rows reads
    them back; no table is built from these records.

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


@functools.lru_cache(maxsize=256)
def _positions(table_pairs: tuple, pairs: tuple) -> np.ndarray:
    """Index of each of pairs' first row in table_pairs, memoized."""
    for pair in pairs:
        if pair not in table_pairs:
            raise KeyError(f"no row for setting pair {pair.tokens()}")
    positions = np.array([table_pairs.index(pair) for pair in pairs])
    positions.flags.writeable = False
    return positions


class CoincidenceTable:
    """Coincidence counts of an ordered tuple of analyzer setting pairs:
    row s of counts, a (P, 7) array in COUNT_COLUMNS order kept uncopied,
    belongs to pairs[s]. Sampled counts are int64, exact tables hold
    probabilities as floats, and a parsed CSV file holds exact Python ints
    in an object array. rows is a read-only view kept for the traced
    benchmark, which reads n_total from it."""

    def __init__(self, pairs: Iterable[SettingPair], counts: np.ndarray) -> None:
        self.pairs, self.counts = tuple(pairs), counts

    @property
    def rows(self) -> list:
        """The table as CoincidenceRow objects, built on each access."""
        return [CoincidenceRow(pair, *c) for pair, c in zip(self.pairs, self.counts.tolist())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoincidenceTable):
            return NotImplemented
        return self.pairs == other.pairs and np.array_equal(self.counts, other.counts)

    def positions(self, pairs: Sequence[SettingPair]) -> np.ndarray:
        """Index of each pair's first row; KeyError names a missing pair."""
        return _positions(self.pairs, tuple(pairs))


class BatchResult(NamedTuple):
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


@functools.lru_cache(maxsize=1024)
def _pure_tables(theta: float, pairs: tuple[SettingPair, ...]) -> np.ndarray:
    """Joint tables of the pure pair state bell_state(theta), one setting
    pair per row (D1T1, D1T2, D2T1, D2T2) of a (P, 4) array. Memoized per
    pair tuple, bounded because sweeps use arbitrary angles, and read-only
    because every caller shares it."""
    rho = bell_state(theta)
    stack = np.array([
        joint_probabilities(rho, pair.stokes, pair.anti_stokes).ravel() for pair in pairs
    ])
    stack.flags.writeable = False
    return stack


def _pair_tables(
    config: ExperimentConfig, tau: float, pairs: tuple[SettingPair, ...]
) -> np.ndarray:
    """P(D_i, T_j) of a heralded real pair at storage time tau: row s is
    pair s's Werner table V J_pure + (1 - V)/4, normalized. Every entry is
    non-negative and every row sums to 1, so callers need no guard against
    empty ports."""
    v = visibility(config, tau=tau)
    tables = v * _pure_tables(config.theta, pairs)
    tables += (1.0 - v) / 4.0
    tables /= np.add.reduce(tables, axis=1, keepdims=True)
    return tables


@functools.lru_cache(maxsize=256)
def _batch_law(config: ExperimentConfig, tau: float, pairs: tuple[SettingPair, ...]) -> tuple:
    """(p_herald, cells, bins): the exact law of one write train at storage
    time tau, everything run_batch samples from, with one row of cells per
    setting pair. cells[s] is P(cell | herald) over {real, dark} x {D1, D2} x
    {T1, T2, no click}: a real herald lands on (D_i, T_j) with pair s's table
    probability (_pair_tables) when it reads out, with probability gamma
    eta_as, and on D_i with the table's row sum when it does not; a dark
    herald lands on D1 or D2 with probability 1/2 each (one detector alone,
    or both and a fair coin) and reads out an unpolarized background click.
    bins[k] = P(herald in bin k | herald) is proportional to (1 - a)^k.
    cells[s] is bitwise the law of (pairs[s],) alone. Memoized per (config,
    tau, pairs) and bounded, as sweeps visit arbitrary storage times; the
    arrays are shared by every caller and read-only."""
    tables = _pair_tables(config, tau, pairs).reshape(-1, 2, 2)
    a, p_herald, p_real, p_read, p_bg = _trial_law(config, config.m)
    cells = np.empty((len(pairs), 2, 2, 3))
    cells[:, 0, :, :2] = p_real * p_read * tables
    cells[:, 0, :, 2] = p_real * (1.0 - p_read) * tables.sum(axis=2)
    cells[:, 1, :] = (1.0 - p_real) * 0.5 * np.array([0.5 * p_bg, 0.5 * p_bg, 1.0 - p_bg])
    bins = (1.0 - a) ** np.arange(config.m)
    bins /= bins.sum()
    cells.flags.writeable = False
    bins.flags.writeable = False
    return p_herald, cells, bins


def run_batch(plan: RunPlan) -> BatchResult:
    """Run n_trials write trains per analyzer setting pair.

    The aggregates are drawn from the batch's exact outcome law, read once
    (_batch_law), instead of simulating every bin. Setting pair s draws from derive_stream(seed, trials domain,
    s), through the thread's generator re-keyed per pair, in the fixed order
    of the reproducibility contract: the herald count ~ Binomial(n_trials,
    p_herald), then its (2, 2, 3) outcome cells ~ Multinomial(heralds,
    cells[s]), then the herald-bin histogram ~ Multinomial(heralds, bins). The
    cells, summed over real and dark heralds, form row s of the table's
    count array, checked by _check_counts as it is built; the counts and
    totals are Python integers until that array is built. The cost per pair
    is O(m), whatever n_trials is, and the result depends only on the plan.

    p_s_hat is heralds/trials and p_sas_hat coincidences/trials, both pooled
    over every setting pair: the law gives every pair the same herald and
    coincidence probabilities, since readout success does not depend on the
    analyzer settings.
    """
    n, pairs = plan.n_trials, plan.settings
    histogram = np.zeros(plan.config.m, dtype=np.int64)
    rows = []
    n_heralds = n_dark = n_coincidences = 0
    p_herald, cells, bins = _batch_law(plan.config, plan.tau, pairs)
    streams = _setting_streams((plan.seed,), _DOMAIN_TRIALS, len(pairs))
    for pair_cells, gen in zip(cells, streams):
        heralds = int(gen.binomial(n, p_herald))
        # {real, dark} x {D1, D2} x {T1, T2, no readout}, as Python ints
        (r11, r12, r10, r21, r22, r20,
         k11, k12, k10, k21, k22, k20) = gen.multinomial(heralds, pair_cells.ravel()).tolist()
        histogram += gen.multinomial(heralds, bins)
        row = [r11 + k11, r12 + k12, r21 + k21, r22 + k22,
               r11 + r12 + r10 + k11 + k12 + k10, r21 + r22 + r20 + k21 + k22 + k20, n]
        _check_counts(*row)
        rows.append(row)
        n_coincidences += row[0] + row[1] + row[2] + row[3]
        n_heralds += row[4] + row[5]
        n_dark += k11 + k12 + k10 + k21 + k22 + k20
    # every count is at most n < 2^63
    table = CoincidenceTable(pairs, np.array(rows, dtype=np.int64))
    n_trials_total = n * len(pairs)
    return BatchResult(
        table=table,
        herald_bin_histogram=histogram,
        n_trials_total=n_trials_total,
        n_heralds=n_heralds,
        n_dark_heralds=n_dark,
        n_coincidences=n_coincidences,
        p_s_hat=n_heralds / n_trials_total,
        p_sas_hat=n_coincidences / n_trials_total,
        tau=plan.tau,
        seed=plan.seed,
    )


def herald_fractions(config: ExperimentConfig, n_trials: int, seeds: Sequence[int]) -> list:
    """(p_s_hat, *analytic_p_s(config.replace(m=m))) of each row m = 1 ...
    config.m, every row n_trials trains from its own seed, seeds[m - 1]:
    p_s_hat is run_batch's first draw, bitwise a one-pair plan's p_s_hat at
    config.replace(m=m). The count and each seed are checked as RunPlan and
    derive_stream check them, and seeds must hold config.m seeds, before any
    draw."""
    n = _check_draw_count("n_trials", n_trials)
    if len(seeds) != config.m:
        raise ValueError(f"need one seed per mode count 1..{config.m}, got {len(seeds)}")
    a = _trial_law(config, 1)[0]  # the bin-click probability, whatever m is
    streams = _setting_streams(seeds, _DOMAIN_TRIALS, 1)
    rows = []
    for m, gen in enumerate(streams, start=1):
        exact = first_success_probability(a, m)
        rows.append((int(gen.binomial(n, exact)) / n, exact, m * a))
    return rows


def run_coincidence_batch(
    config: ExperimentConfig,
    tau: float,
    settings: Sequence[SettingPair],
    n_coincidences: int,
    seed: int,
) -> CoincidenceTable:
    """Sample n heralded coincidences per setting pair directly.

    This draws from the conditional law of run_batch given a real herald and
    a successful readout, the stacked pair tables P(D_i, T_j) that
    _batch_law also reads, as one multinomial per pair into the table's
    count array. Use it where published statistics are quoted per heralded
    coincidence; the full per-trial engine would need about
    1/(p_s gamma eta_as) trials per coincidence to reach the same counts.
    Dark heralds are not part of the conditional law. Setting pair s draws
    from derive_stream(seed, coincidence domain, s), through the thread's
    generator re-keyed per pair. The herald singles are the row sums, and
    each row is checked by _check_counts as it is drawn.
    """
    n_coincidences = _check_draw_count("n_coincidences", n_coincidences)
    _check_storage_time(tau)
    settings = tuple(settings)
    if not settings:
        raise ValueError("need at least one analyzer setting pair")
    probabilities = _pair_tables(config, tau, settings)
    rows = []
    streams = _setting_streams((seed,), _DOMAIN_COINCIDENCE, len(settings))
    for s, gen in enumerate(streams):
        c11, c12, c21, c22 = gen.multinomial(n_coincidences, probabilities[s]).tolist()
        row = (c11, c12, c21, c22, c11 + c12, c21 + c22, n_coincidences)
        _check_counts(*row)
        rows.append(row)
    return CoincidenceTable(settings, np.array(rows, dtype=np.int64))
