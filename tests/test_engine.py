"""Discrete-trial engine: analytic laws, sampling statistics, determinism."""
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from swpemux import engine
from swpemux.config import ExperimentConfig
from swpemux.engine import (
    HV_PAIR,
    CoincidenceTable,
    RunPlan,
    SettingPair,
    _batch_law,
    _check_counts,
    _pair_tables,
    _pure_tables,
    _setting_streams,
    analytic_p_s,
    analytic_p_sas,
    derive_stream,
    effective_pair_state,
    run_batch,
    run_coincidence_batch,
    visibility,
)
from swpemux.states import MeasurementSetting, bell_state, joint_probabilities
from swpemux.analysis import (
    CANONICAL_BELL,
    correlation_e,
    tomography_setting_pairs,
)
from swpemux.io import coincidence_table_to_csv, parse_coincidence_csv
from swpemux.util import first_success_probability

from oracles import enumerated_law, exact_coincidence_table

CFG = ExperimentConfig()


class TestDeriveStream:
    def test_reproducible(self):
        a = derive_stream(123, 0, 2).random(8)
        b = derive_stream(123, 0, 2).random(8)
        assert np.array_equal(a, b)

    def test_distinct_coordinates(self):
        base = derive_stream(123, 0, 0).random(4)
        for args in [(124, 0, 0), (123, 1, 0), (123, 0, 1)]:
            assert not np.array_equal(base, derive_stream(*args).random(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0, 0)
        with pytest.raises(ValueError):
            derive_stream(2**64, 0, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 16, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 0, 1 << 20)


def fresh_stream(seed, domain, setting_index):
    """The stream of one setting pair, built from its key here rather than
    through the samplers' re-keyed generator."""
    return np.random.Generator(
        np.random.Philox(key=seed | domain << 64 | setting_index << 68)
    )


PLANS = {
    "bell": CANONICAL_BELL.setting_pairs(),
    "tomo": tomography_setting_pairs(),
    "bell+tomo": CANONICAL_BELL.setting_pairs() + tomography_setting_pairs(),
}


class TestStreamsAgainstFreshPhilox:
    @pytest.mark.parametrize("seed", [0, 61, 2**64 - 1])
    def test_derive_stream_key_layout(self, seed):
        for domain, s in [(0, 0), (1, 0), (0, 12), (15, 2**20 - 1)]:
            expected = fresh_stream(seed, domain, s).random(6)
            assert np.array_equal(derive_stream(seed, domain, s).random(6), expected)

    @pytest.mark.parametrize("seed", [0, 61, 1905, 2**64 - 1])
    @pytest.mark.parametrize("domain", [0, 1])
    def test_setting_streams_are_derive_stream(self, seed, domain):
        # an odd number of int32 draws leaves a buffered half word, which the
        # next re-key must discard like a fresh Philox does
        def draws(gen):
            return (
                gen.multinomial(1000, [0.1, 0.2, 0.3, 0.4]).tolist(),
                int(gen.binomial(10**12, 0.37)),
                gen.random(3).tobytes(),
                gen.integers(0, 2**31, size=3, dtype=np.int32).tolist(),
                gen.integers(0, 2**62, size=2).tolist(),
            )

        streams = list(map(draws, _setting_streams((seed,), domain, 13)))
        assert streams == [draws(derive_stream(seed, domain, s)) for s in range(13)]

    @pytest.mark.parametrize("seed, domain, field", [(-1, 0, "seed"), (2**64, 0, "seed"),
                                                     (0, 16, "domain")])
    def test_first_stream_checks_seed_and_domain(self, seed, domain, field):
        with pytest.raises(ValueError, match=f"{field} must lie in"):
            next(_setting_streams((seed,), domain, 3))

    def test_several_seeds_yield_their_streams_in_turn(self):
        seeds = (5, 2**64 - 1, 0)
        draws = [gen.random(2).tobytes() for gen in _setting_streams(seeds, 1, 3)]
        assert draws == [derive_stream(seed, 1, s).random(2).tobytes()
                         for seed in seeds for s in range(3)]
        # a bad later seed is found before the first stream
        with pytest.raises(ValueError, match=re.escape("seed must lie in [0, 2^64), got -1")):
            next(_setting_streams((0, -1), 0, 1))

    def test_first_stream_checks_the_last_setting_index(self):
        # checked once per batch, before any pair draws
        message = re.escape("setting index must lie in [0, 2^20), got 1048576")
        with pytest.raises(ValueError, match=message):
            next(_setting_streams((0,), 0, 2**20 + 1))

    @pytest.mark.parametrize("seed, domain", [(2**64 - 1, 15), (0, 0), (61, 1)])
    def test_key_words_are_the_stream_key(self, seed, domain):
        for s, gen in enumerate(_setting_streams((seed,), domain, 13)):
            key = engine._stream_key(seed, domain, s)
            words = gen.bit_generator.state["state"]["key"].tolist()
            assert words == [key & (2**64 - 1), key >> 64]

    def test_concurrent_batches_equal_sequential_ones(self):
        # each thread re-keys its own generator: two threads sampling at once,
        # switching every microsecond, get exactly the sequential tables
        config, pairs = CFG.replace(m=7, dark_rate=2e-2), PLANS["bell+tomo"]

        def work(seed):
            out = []
            for i in range(40):
                table = run_coincidence_batch(config, 4.0, pairs, 50_000, seed + i)
                result = run_batch(RunPlan(config, 4.0, pairs, 300_000, seed + i))
                out.append((table, result.table, result.herald_bin_histogram.tolist(),
                            result.n_dark_heralds))
            return out

        seeds = (61, 1905)
        expected = [work(seed) for seed in seeds]
        got = [None, None]

        def run(i):
            got[i] = work(seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    @pytest.mark.parametrize("seed", [0, 61, 2**64 - 1])
    @pytest.mark.parametrize("plan", PLANS, ids=PLANS)
    def test_coincidence_rows(self, plan, seed):
        pairs, n, tau = PLANS[plan], 50_000, 4.0
        table = run_coincidence_batch(CFG, tau, pairs, n, seed)
        v = visibility(CFG, CFG.m, tau)
        assert table.pairs == tuple(pairs)
        for s, pair in enumerate(pairs):
            # the Werner table in closed form: V J_pure + (1 - V)/4, normalized
            pure = joint_probabilities(bell_state(CFG.theta), pair.stokes, pair.anti_stokes)
            joint = v * pure + (1.0 - v) / 4.0
            counts = fresh_stream(seed, 1, s).multinomial(n, (joint / joint.sum()).ravel())
            assert table.counts[s, :4].tolist() == counts.tolist()

    @pytest.mark.parametrize("seed", [0, 61, 2**64 - 1])
    @pytest.mark.parametrize("plan", PLANS, ids=PLANS)
    def test_batch_rows(self, plan, seed):
        config = CFG.replace(m=7, dark_rate=2e-2)
        pairs, n, tau = PLANS[plan], 300_000, 4.0
        result = run_batch(RunPlan(config, tau, pairs, n, seed))
        histogram = np.zeros(config.m, dtype=np.int64)
        n_dark = 0
        for s, (pair, row) in enumerate(zip(pairs, result.table.counts.tolist())):
            p_herald, cells, bins = _batch_law(config, tau, (pair,))
            gen = fresh_stream(seed, 0, s)
            heralds = gen.binomial(n, p_herald)
            cells = gen.multinomial(heralds, cells[0].ravel()).reshape(2, 2, 3)
            histogram += gen.multinomial(heralds, bins)
            n_dark += int(cells[1].sum())
            by_detector = cells.sum(axis=0)
            assert row[:4] == by_detector[:, :2].ravel().tolist()
            assert row[4:6] == by_detector.sum(axis=1).tolist()
        assert result.herald_bin_histogram.tolist() == histogram.tolist()
        assert result.n_dark_heralds == n_dark


class TestStorageTimeBoundary:
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_run_plan(self, tau):
        with pytest.raises(ValueError, match="storage time tau"):
            RunPlan(CFG, tau, (HV_PAIR,), 10, 1)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_run_coincidence_batch(self, tau):
        with pytest.raises(ValueError, match="storage time tau"):
            run_coincidence_batch(CFG, tau, (HV_PAIR,), 10, 1)


class TestVisibility:
    def test_saturating_defaults(self):
        assert visibility(CFG) == pytest.approx(0.8126626192541198, rel=1e-14)
        assert visibility(CFG, m=1) == pytest.approx(0.937, rel=1e-14)
        assert visibility(CFG, tau=30.0) == pytest.approx(0.7174011656249258, rel=1e-14)

    def test_clamped_to_unit_interval(self):
        # tau below the reference would push the exponential above one
        assert visibility(CFG.replace(m=1, v1=1.0), tau=0.0) == 1.0

    def test_storage_time_far_below_reference_saturates(self):
        # exp((tau_ref - tau)/tau_c) overflows a float here; the clamp holds
        cfg = CFG.replace(tau_ref=1e6, tau_c=1e-300)
        assert visibility(cfg, tau=0.0) == 1.0
        assert visibility(cfg.replace(v1=5e-324), tau=0.0) == 1.0
        # v1 / (1 + beta (m - 1) chi) underflows to 0 before the log is taken
        assert visibility(cfg.replace(v1=5e-324, beta=10.0), tau=0.0) == 0.0

    def test_infinite_memory(self):
        cfg = CFG.replace(tau_c=float("inf"))
        assert visibility(cfg, tau=1e6) == visibility(cfg, tau=0.7)


@pytest.mark.parametrize("m", [0, -1, 2.5, True])
@pytest.mark.parametrize("law", [analytic_p_s, analytic_p_sas, visibility, effective_pair_state])
def test_explicit_mode_count_is_checked(law, m):
    with pytest.raises(ValueError, match=r"^m must be (at least 1|an integer), got"):
        law(CFG, m)


def test_law_tables_leave_the_config_mode_count_unchecked(monkeypatch):
    # config.m was checked when the config was built: the per-point path of
    # the witness sweeps passes no m, so it checks no count again
    def no_check(*args):
        raise AssertionError("the law tables must not check a count")

    v = visibility(CFG, CFG.m, 0.123)
    monkeypatch.setattr(engine, "as_count", no_check)
    pair = CANONICAL_BELL.setting_pairs()[2]
    assert _pair_tables(CFG, 0.123, (pair,)).shape == (1, 4)
    assert _batch_law(CFG, 0.123, (pair,))[0] == analytic_p_s(CFG).exact
    assert visibility(CFG, tau=0.123) == v


def test_effective_pair_state_is_werner():
    rho = effective_pair_state(CFG, tau=0.7)
    v = visibility(CFG)
    assert rho[0, 0].real == pytest.approx(v / 2.0 + (1.0 - v) / 4.0, rel=1e-13)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


class TestAnalyticProbabilities:
    def test_herald_probability(self):
        pair = analytic_p_s(CFG)
        assert pair.exact == pytest.approx(0.018829965135600922, rel=1e-13)
        assert pair.linear == pytest.approx(0.019, rel=1e-14)
        assert analytic_p_s(CFG, m=1).exact == pytest.approx(1e-3, rel=1e-14)

    def test_multiplexing_ratio(self):
        ratio = analytic_p_s(CFG).exact / analytic_p_s(CFG, m=1).exact
        assert ratio == pytest.approx(18.829965135600922, rel=1e-12)

    def test_coincidence_probability(self):
        pair = analytic_p_sas(CFG)
        assert pair.exact == pytest.approx(0.002824494770340138, rel=1e-13)
        assert pair.linear == pytest.approx(0.00285, rel=1e-13)
        # herald and coincidence gains are the same geometric factor
        r_s = analytic_p_s(CFG).exact / analytic_p_s(CFG, m=1).exact
        r_sas = analytic_p_sas(CFG).exact / analytic_p_sas(CFG, m=1).exact
        assert r_sas == pytest.approx(r_s, rel=1e-12)

    def test_dark_free_values_are_the_geometric_series(self):
        # bitwise: the dark-inclusive law reduces to the dark-free one at d = 0
        p_bin = CFG.chi * CFG.eta_d
        for m in (1, 7, 19):
            assert analytic_p_s(CFG, m).exact == first_success_probability(p_bin, m)
            readout = CFG.gamma * CFG.eta_as
            assert analytic_p_sas(CFG, m).exact == first_success_probability(p_bin, m) * readout

    def test_dark_counts_included(self):
        cfg = CFG.replace(dark_rate=3e-3)
        a = 1.0 - (1.0 - cfg.chi * cfg.eta_d) * (1.0 - cfg.dark_rate) ** 2
        assert analytic_p_s(cfg).exact == pytest.approx(1.0 - (1.0 - a) ** cfg.m, rel=1e-12)
        p_real = cfg.chi * cfg.eta_d / a
        background = cfg.dark_rate + cfg.beta * (cfg.m - 1) * cfg.chi * cfg.gamma * cfg.eta_as
        readout = p_real * cfg.gamma * cfg.eta_as + (1.0 - p_real) * background
        assert analytic_p_sas(cfg).exact == pytest.approx(
            analytic_p_s(cfg).exact * readout, rel=1e-12
        )


class TestOutcomeLaw:
    """The one outcome law of a batch, _batch_law: (p_herald, cells, bins)
    with one (2, 2, 3) cell row per setting pair."""

    PAIRS = CANONICAL_BELL.setting_pairs() + tomography_setting_pairs()

    @pytest.mark.parametrize("dark_rate", [0.0, 3e-3, 1.0])
    def test_normalized(self, dark_rate):
        pair = CANONICAL_BELL.setting_pairs()[1]
        _, cells, bins = _batch_law(CFG.replace(dark_rate=dark_rate), 0.7, (pair,))
        assert cells.shape == (1, 2, 2, 3)
        assert np.all(cells >= 0.0)
        assert cells.sum() == pytest.approx(1.0, abs=1e-15)
        assert bins.shape == (CFG.m,)
        assert bins.sum() == pytest.approx(1.0, abs=1e-15)

    def test_memoized_and_read_only(self):
        pairs = tuple(CANONICAL_BELL.setting_pairs())
        law = _batch_law(CFG, 1.5, pairs)
        assert _batch_law(CFG.replace(), 1.5, pairs) is law
        for table in law[1:]:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0.0

    @pytest.mark.parametrize("m", [1, 2, 7, 19])
    def test_stacked_rows_are_the_one_pair_laws(self, m):
        """Bitwise: row s of a batch's law is the law of pairs[s] alone, so a
        pair's draws never depend on which pairs share its batch."""
        for dark_rate in (0.0, 3e-3, 0.3):
            config = CFG.replace(m=m, dark_rate=dark_rate)
            for tau in (0.0, 0.7, 13.3, 30.0):
                p_herald, cells, bins = _batch_law(config, tau, self.PAIRS)
                assert cells.shape == (len(self.PAIRS), 2, 2, 3)
                for s, pair in enumerate(self.PAIRS):
                    one_herald, one_cells, one_bins = _batch_law(config, tau, (pair,))
                    assert one_herald.hex() == p_herald.hex()
                    assert one_cells[0].tobytes() == cells[s].tobytes()
                    assert one_bins.tobytes() == bins.tobytes()

    def test_no_click_possible(self):
        # a = 0 (no detection, no dark counts): the chi eta_d / a share must
        # not divide by zero
        cfg = CFG.replace(eta_d=0.0)
        p_herald, cells, bins = _batch_law(cfg, 0.7, (HV_PAIR,))
        assert p_herald == 0.0
        assert np.all(np.isfinite(cells)) and np.all(np.isfinite(bins))
        result = run_batch(RunPlan(cfg, 0.7, (HV_PAIR,), 100_000, 3))
        assert result.n_heralds == 0 and result.n_coincidences == 0
        assert result.herald_bin_histogram.sum() == 0
        result.table.validate()

    def test_every_bin_clicks(self):
        # a = 1: every train heralds in its first bin; a real click wins it
        # with probability chi eta_d, and the background readout always clicks
        cfg = CFG.replace(dark_rate=1.0)
        n = 1_000_000
        result = run_batch(RunPlan(cfg, 0.7, (HV_PAIR,), n, 4))
        assert result.n_heralds == n
        assert result.herald_bin_histogram.tolist() == [n] + [0] * (cfg.m - 1)
        p_dark = 1.0 - cfg.chi * cfg.eta_d
        se = math.sqrt(n * p_dark * (1.0 - p_dark))
        assert abs(result.n_dark_heralds - n * p_dark) < 4.0 * se
        # every dark herald reads out; real ones with probability gamma eta_as
        n_real = n - result.n_dark_heralds
        real_coincidences = result.n_coincidences - result.n_dark_heralds
        p_read = cfg.gamma * cfg.eta_as
        se = math.sqrt(n_real * p_read * (1.0 - p_read))
        assert abs(real_coincidences - n_real * p_read) < 4.0 * se
        result.table.validate()


class TestPairTable:
    PAIRS = TestOutcomeLaw.PAIRS

    def test_pure_table_is_memoized_and_read_only(self):
        pairs = (SettingPair(MeasurementSetting.linear(22.5), MeasurementSetting.circular_l()),)
        table = _pure_tables(CFG.theta, pairs)
        assert _pure_tables(CFG.theta, pairs) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        # a caller may modify the table it gets without touching the memo
        derived = _pair_tables(CFG, 0.7, pairs)
        derived[:] = -1.0
        assert np.all(_pure_tables(CFG.theta, pairs) >= 0.0)
        assert np.all(_pair_tables(CFG, 0.7, pairs) >= 0.0)

    def test_matches_werner_state_and_old_per_port_law(self):
        """Over the m = 1..19, tau = 0..30 grid and the 13 Bell and
        tomography pairs: the affine table equals the normalized joint table
        of the Werner state, and _batch_law's real-herald cells equal the
        per-port split of that table."""
        tables, joints, cells, per_port = [], [], [], []
        for m in range(1, 20):
            config = CFG.replace(m=m, dark_rate=3e-3)
            p_real = config.chi * config.eta_d / _click_probability(config)
            p_read = config.gamma * config.eta_as
            for tau in np.arange(31.0):
                rho = effective_pair_state(config, m, tau)
                tables.extend(_pair_tables(config, tau, self.PAIRS).reshape(-1, 2, 2))
                cells.extend(_batch_law(config, tau, self.PAIRS)[1][:, 0])
                for pair in self.PAIRS:
                    joint = joint_probabilities(rho, pair.stokes, pair.anti_stokes)
                    joints.append(joint / joint.sum())
                    p_det = joint.sum(axis=1)
                    p_d1 = p_det[0] / p_det.sum()
                    for i, p_port in enumerate((p_d1, 1.0 - p_d1)):
                        p_t1 = joint[i, 0] / p_det[i]
                        read = (p_read * p_t1, p_read * (1.0 - p_t1), 1.0 - p_read)
                        per_port.append([p_real * p_port * r for r in read])
        assert len(tables) == 19 * 31 * 13
        np.testing.assert_allclose(np.array(tables), np.array(joints), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            np.array(cells).reshape(-1, 3), np.array(per_port), rtol=0.0, atol=1e-15
        )


def _click_probability(config):
    """Probability a = 1 - (1 - chi eta_d)(1 - d)^2 that a bin clicks, from a
    real photon or a dark count on either Stokes detector."""
    return 1.0 - (1.0 - config.chi * config.eta_d) * (1.0 - config.dark_rate) ** 2


def _port_kets(setting):
    """Transmit and reflect kets of one analyzer, written out here rather than
    taken from swpemux.states."""
    if setting.kind == "linear":
        angle = math.radians(setting.angle_deg)
        c, s = math.cos(angle), math.sin(angle)
        return np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex)
    r_ket = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    return (r_ket, r_ket.conj()) if setting.transmit_hand == "R" else (r_ket.conj(), r_ket)


def _readout_parameters(config, tau, pair):
    """The per-pair readout parameters, computed from scratch: the Werner
    state from visibility(), Tr[rho (P_i x Q_j)] with the port projectors
    built through np.kron. Returns P(D1 | real herald), (P(T1 | D1),
    P(T1 | D2)), the readout probability gamma eta_as after a real herald and
    the background click probability after a dark one."""
    v = visibility(config, config.m, tau)
    theta = math.radians(config.theta)
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    rho = v * np.outer(psi, psi) + (1.0 - v) * np.eye(4) / 4.0
    joint = np.empty((2, 2))
    for i, ket_s in enumerate(_port_kets(pair.stokes)):
        for j, ket_a in enumerate(_port_kets(pair.anti_stokes)):
            projector = np.kron(np.outer(ket_s, ket_s.conj()), np.outer(ket_a, ket_a.conj()))
            joint[i, j] = np.trace(rho @ projector).real
    p_det = joint.sum(axis=1)
    p_read = config.gamma * config.eta_as
    p_background = min(1.0, config.dark_rate + config.beta * (config.m - 1) * config.chi * p_read)
    return p_det[0] / p_det.sum(), tuple(joint[:, 0] / p_det), p_read, p_background


def _simulate_trains(gen, n, config, params):
    """Simulate n write trains bin by bin: per-bin excitation, Stokes
    detection and dark counts on D1 and D2; the first clicking bin heralds,
    and a real click in it wins over a simultaneous dark count.
    Returns (heralded, first_bin, herald_true, herald_det, readout_det)."""
    p_d1, p_t1_given_d, p_read, p_background = params
    m = config.m
    excited = gen.random((n, m)) < config.chi
    true_click = excited & (gen.random((n, m)) < config.eta_d)
    u_identity = gen.random(n)
    if config.dark_rate > 0.0:
        dark1 = gen.random((n, m)) < config.dark_rate
        dark2 = gen.random((n, m)) < config.dark_rate
    else:
        dark1 = dark2 = np.zeros((n, m), dtype=bool)
    any_click = true_click | dark1 | dark2
    u_read = gen.random(n)
    u_port = gen.random(n)

    heralded = any_click.any(axis=1)
    first_bin = np.argmax(any_click, axis=1)  # only meaningful where heralded
    rows = np.arange(n)
    herald_true = heralded & true_click[rows, first_bin]
    dark_herald = heralded & ~herald_true
    d1 = dark1[rows, first_bin]
    d2 = dark2[rows, first_bin]
    # a dark herald fires the detector that saw a dark count; both: a fair coin
    herald_det = np.where(herald_true, np.where(u_identity < p_d1, 1, 2), 0)
    herald_det = np.where(dark_herald & d1 & ~d2, 1, herald_det)
    herald_det = np.where(dark_herald & d2 & ~d1, 2, herald_det)
    herald_det = np.where(dark_herald & d1 & d2, np.where(u_identity < 0.5, 1, 2), herald_det)

    # a real herald reads out the pair state's port given its detector; a dark
    # one an unpolarized background click
    p_t1 = np.where(herald_det == 1, p_t1_given_d[0], p_t1_given_d[1])
    p_success = np.where(herald_true, p_read, p_background)
    p_port = np.where(herald_true, p_t1, 0.5)
    readout_det = np.where(u_read < p_success, np.where(u_port < p_port, 1, 2), 0)
    readout_det = np.where(heralded, readout_det, 0)
    return heralded, first_bin, herald_true, herald_det, readout_det


def _kernel_counts(config, pair, n, seed):
    """Aggregates of n trains simulated bin by bin by the test kernel, with
    readout parameters that never pass through _batch_law. Returns the
    counts (no herald, D1T1, D1T2, D2T1, D2T2, D1 without readout click,
    D2 without readout click, dark heralds) and the herald-bin histogram."""
    params = _readout_parameters(config, 0.7, pair)
    rng = np.random.default_rng(seed)
    counts = np.zeros(8, dtype=np.int64)
    histogram = np.zeros(config.m, dtype=np.int64)
    for start in range(0, n, 1 << 16):
        size = min(1 << 16, n - start)
        h, first_bin, herald_true, herald_det, readout_det = _simulate_trains(
            rng, size, config, params
        )
        readout = np.where(readout_det[h] == 0, 2, readout_det[h] - 1)
        cells = np.bincount(3 * (herald_det[h] - 1) + readout, minlength=6)
        counts[0] += size - int(h.sum())
        counts[1:7] += cells[[0, 1, 3, 4, 2, 5]]
        counts[7] += int((h & ~herald_true).sum())
        histogram += np.bincount(first_bin[h], minlength=config.m)
    return counts, histogram


def _batch_counts(result):
    """The same aggregates from a one-pair run_batch result."""
    c_d1t1, c_d1t2, c_d2t1, c_d2t2, n_d1, n_d2, n_total = result.table.counts[0].tolist()
    counts = np.array([
        n_total - n_d1 - n_d2,
        c_d1t1, c_d1t2, c_d2t1, c_d2t2,
        n_d1 - c_d1t1 - c_d1t2, n_d2 - c_d2t1 - c_d2t2,
        result.n_dark_heralds,
    ])
    return counts, np.asarray(result.herald_bin_histogram)


def _homogeneity_pvalue(a, b):
    """Chi-square p-value that two count vectors share one multinomial law;
    categories empty in both are dropped."""
    table = np.array([a, b])
    table = table[:, table.sum(axis=0) > 0]
    return stats.chi2_contingency(table, correction=False).pvalue


def _assert_same_law(counts, histogram, kernel, kernel_hist):
    """Chi-square homogeneity of two samples' herald/readout outcomes, dark
    shares and herald-bin histograms (count vectors as _kernel_counts
    returns them)."""
    n, n_kernel = counts[:7].sum(), kernel[:7].sum()
    assert _homogeneity_pvalue(counts[:7], kernel[:7]) > 1e-3
    assert _homogeneity_pvalue([counts[7], n - counts[7]], [kernel[7], n_kernel - kernel[7]]) > 1e-3
    assert _homogeneity_pvalue(histogram, kernel_hist) > 1e-3


class TestLawAgainstKernel:
    @pytest.mark.parametrize(
        "changes, pair",
        [
            ({"m": 7, "dark_rate": 3e-3},
             SettingPair(MeasurementSetting.linear(22.5), MeasurementSetting.linear(67.5))),
            ({"m": 19}, HV_PAIR),
            # dark-dominated, so the dark herald's detector and port splits are resolved
            ({"m": 3, "dark_rate": 0.3},
             SettingPair(MeasurementSetting.circular_r(), MeasurementSetting.linear(0.0))),
        ],
    )
    def test_aggregates_match_kernel(self, changes, pair):
        cfg = CFG.replace(**changes)
        n = 1_000_000
        batch, batch_hist = _batch_counts(run_batch(RunPlan(cfg, 0.7, (pair,), n, 2718)))
        kernel, kernel_hist = _kernel_counts(cfg, pair, n, 3141)
        # the seven herald/readout outcomes partition the trials
        assert batch[:7].sum() == kernel[:7].sum() == n
        _assert_same_law(batch, batch_hist, kernel, kernel_hist)
        if cfg.dark_rate > 0.0:
            assert batch[7] > 0 and kernel[7] > 0


def _ks_uniform(pvalues):
    """KS p-value that the p-values are uniform on [0, 1]."""
    return stats.kstest(pvalues, "uniform").pvalue


def _z_pvalues(fractions, n, p):
    """Two-sided normal p-values of binomial fractions of n trials with mean p."""
    z = (np.asarray(fractions) - p) / math.sqrt(p * (1.0 - p) / n)
    return 2.0 * stats.norm.sf(np.abs(z))


def _chi2_pvalues(counts, probabilities):
    """Chi-square p-values of count rows, each against its total times the
    probabilities."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum(axis=1, keepdims=True) * probabilities
    return stats.chi2.sf(((counts - expected) ** 2 / expected).sum(axis=1), counts.shape[1] - 1)


class TestSamplersAtHugeCounts:
    """The samplers against the enumerated law (tests/oracles.py) alone, at
    trial counts where the normal and chi-square approximations hold and a
    relative error near 1/sqrt(n p) shows. Over fixed seeds the p-values of
    each statistic must look uniform: its KS p-value stays above KS_FLOOR.
    The seeds are fixed, so each KS p-value is a fixed number."""

    SEEDS = range(300)
    KS_FLOOR = 1e-3
    # short trains with dark counts, two setting pairs per batch
    CASES = {
        "m2-dark": (CFG.replace(m=2, dark_rate=3e-3), 0.7,
                    (CANONICAL_BELL.setting_pairs()[1], tomography_setting_pairs()[2])),
        "m4-dark-dominated": (CFG.replace(m=4, dark_rate=0.3), 30.0,
                              (tomography_setting_pairs()[5], HV_PAIR)),
    }

    @pytest.mark.parametrize("n", [10**9, 10**12])
    @pytest.mark.parametrize("case", CASES)
    def test_run_batch(self, case, n):
        config, tau, pairs = self.CASES[case]
        heralds, histograms, cells = [[] for _ in pairs], [], [[] for _ in pairs]
        for seed in self.SEEDS:
            result = run_batch(RunPlan(config, tau, pairs, n, seed))
            histograms.append(result.herald_bin_histogram)
            for s, (c11, c12, c21, c22, n1, n2, _) in enumerate(result.table.counts.tolist()):
                heralds[s].append((n1 + n2) / n)
                cells[s].append([c11, c12, n1 - c11 - c12, c21, c22, n2 - c21 - c22])
        for s, pair in enumerate(pairs):
            p_herald, law_cells, bins = enumerated_law(config, tau, pair)
            assert _ks_uniform(_z_pvalues(heralds[s], n, p_herald)) > self.KS_FLOOR
            # (D, T) cells summed over real and dark heralds, given the heralds
            by_port = law_cells.sum(axis=0).ravel()
            assert _ks_uniform(_chi2_pvalues(cells[s], by_port)) > self.KS_FLOOR
        # the histogram sums both pairs' heralds, which share one bin law
        assert _ks_uniform(_chi2_pvalues(histograms, bins)) > self.KS_FLOOR

    @pytest.mark.parametrize("n", [10**9, 10**12])
    @pytest.mark.parametrize("case", CASES)
    def test_herald_fractions(self, case, n):
        config, tau, pairs = self.CASES[case]
        ms = [1 + seed % 4 for seed in self.SEEDS]
        # seeds of their own: run_batch's first draw at seed s is this draw
        seeds = [len(self.SEEDS) + seed for seed in self.SEEDS]
        fractions = engine.herald_fractions(config, ms, n, seeds)
        p_heralds = {m: enumerated_law(config.replace(m=m), tau, pairs[0])[0] for m in set(ms)}
        pvalues = [_z_pvalues(p_hat, n, p_heralds[m]) for m, (p_hat, _, _) in zip(ms, fractions)]
        assert _ks_uniform(pvalues) > self.KS_FLOOR

    @pytest.mark.parametrize("n", [10**9, 10**12])
    @pytest.mark.parametrize("case", CASES)
    def test_run_coincidence_batch(self, case, n):
        config, tau, pairs = self.CASES[case]
        counts = np.array([run_coincidence_batch(config, tau, pairs, n, seed).counts[:, :4]
                           for seed in self.SEEDS])
        for s, pair in enumerate(pairs):
            # the enumerated table given a real herald and a readout
            real_read = enumerated_law(config, tau, pair)[1][0, :, :2].ravel()
            assert _ks_uniform(_chi2_pvalues(counts[:, s], real_read / real_read.sum())) \
                > self.KS_FLOOR


class TestSettingPair:
    def test_token_round_trip(self):
        pair = SettingPair(MeasurementSetting.linear(22.5), MeasurementSetting.circular_r())
        assert SettingPair.from_tokens(*pair.tokens()) == pair

    def test_hash_and_eq_are_the_generated_ones(self):
        pairs = list(PLANS["bell+tomo"]) + [HV_PAIR, SettingPair.from_tokens("0.0", "0.0")]
        for a in pairs:
            assert hash(a) == hash((a.stokes, a.anti_stokes))
            for b in pairs:
                assert (a == b) == ((a.stokes, a.anti_stokes) == (b.stokes, b.anti_stokes))
            assert b"_hash" not in pickle.dumps(a)
            copy = pickle.loads(pickle.dumps(a))
            assert copy == a and hash(copy) == hash(a)


class TestRunPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": -1.0},
            {"n_trials": 0},
            {"n_trials": 2**63},
            {"seed": -1},
            {"seed": 2**64},
            {"settings": ()},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(config=CFG, tau=0.7, settings=(HV_PAIR,), n_trials=10, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RunPlan(**base)

    @pytest.mark.parametrize("field, value", [
        ("n_trials", 2.5), ("seed", 7.9), ("n_trials", True), ("seed", True),
        ("n_trials", "12"), ("seed", "12"),
    ])
    def test_constructor_never_truncates_a_count(self, field, value):
        base = dict(config=CFG, tau=0.7, settings=(HV_PAIR,), n_trials=10, seed=1)
        base[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunPlan(**base)

    # a lone SettingPair is itself a tuple, of two MeasurementSettings
    @pytest.mark.parametrize("settings", [HV_PAIR, [tuple(HV_PAIR)]])
    def test_settings_must_be_setting_pairs(self, settings):
        with pytest.raises(TypeError, match="SettingPair records"):
            RunPlan(CFG, 0.7, settings, 10, 1)

    def test_constructor_takes_integral_counts_and_seed_zero(self):
        plan = RunPlan(CFG, 0.7, (HV_PAIR,), np.int64(12), 0)
        assert (plan.n_trials, plan.seed) == (12, 0) and type(plan.n_trials) is int
        for n in (0, -1):  # an integer out of range names the range
            with pytest.raises(ValueError, match=re.escape("n_trials must lie in [1, 2^63)")):
                RunPlan(CFG, 0.7, (HV_PAIR,), n, 0)


class TestHeraldFraction:
    @pytest.fixture
    def streams_made(self, monkeypatch):
        """The streams _setting_streams hands out; its key checks still run."""
        made = []
        setting_streams = engine._setting_streams

        def recording(*args):
            for gen in setting_streams(*args):
                made.append(gen)
                yield gen

        monkeypatch.setattr(engine, "_setting_streams", recording)
        return made

    @pytest.mark.parametrize("n", [0, -1, 2**63, 2.5, True, "12", [5]])
    def test_trial_count_is_checked_as_run_plan_checks_it(self, streams_made, n):
        with pytest.raises(ValueError) as plan_error:
            RunPlan(CFG, 0.7, (HV_PAIR,), n, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(plan_error.value))}$"):
            engine.herald_fractions(CFG, [1, 2, 3], n, [1, 2, 3])
        assert streams_made == []

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_is_checked_as_derive_stream_checks_it(self, streams_made, seed):
        with pytest.raises(ValueError) as stream_error:
            derive_stream(seed, 0, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(stream_error.value))}$"):
            engine.herald_fractions(CFG, [1, 2], 10, [1, seed])
        assert streams_made == []

    @pytest.mark.parametrize("m", [0, 2.5, True])
    def test_mode_count_is_checked_as_analytic_p_s_checks_it(self, streams_made, m):
        with pytest.raises(ValueError) as law_error:
            analytic_p_s(CFG, m)
        with pytest.raises(ValueError, match=f"^{re.escape(str(law_error.value))}$"):
            engine.herald_fractions(CFG, [1, m], 10, [1, 2])
        assert streams_made == []

    @pytest.mark.parametrize("ms, seeds", [([1, 2, 3], [1, 2]), ([1, 2], [1, 2, 3]), ([], [1])])
    def test_mode_and_seed_lists_must_match(self, streams_made, ms, seeds):
        message = r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"
        with pytest.raises(ValueError, match=message):
            engine.herald_fractions(CFG, ms, 10, seeds)
        assert streams_made == []


class TestRunBatch:
    def test_herald_probability_within_4_se(self):
        plan = RunPlan(CFG, 0.7, (HV_PAIR,), 1_000_000, 2024)
        result = run_batch(plan)
        p = analytic_p_s(CFG).exact
        se = math.sqrt(p * (1.0 - p) / plan.n_trials)
        assert abs(result.p_s_hat - p) < 4.0 * se

    @staticmethod
    def _assert_p_sas_within_4_se(pairs):
        # p_sas_hat pools every pair's trains, so its error is over n P trials
        plan = RunPlan(CFG, 0.7, pairs, 2_000_000, 515)
        result = run_batch(plan)
        p = analytic_p_sas(CFG).exact
        se = math.sqrt(p * (1.0 - p) / (plan.n_trials * len(pairs)))
        assert abs(result.p_sas_hat - p) < 4.0 * se

    def test_coincidence_probability_within_4_se(self):
        self._assert_p_sas_within_4_se((HV_PAIR,))

    def test_pooled_coincidence_probability_within_4_se(self):
        self._assert_p_sas_within_4_se(tomography_setting_pairs())

    @pytest.mark.parametrize("pairs", [CANONICAL_BELL.setting_pairs(), tomography_setting_pairs(),
                                       (HV_PAIR,)], ids=["bell", "tomo", "hv"])
    def test_rates_pool_every_setting_pair(self, pairs):
        config = CFG.replace(dark_rate=3e-3)
        result = run_batch(RunPlan(config, 0.7, pairs, 100_000, 61))
        assert result.n_trials_total == 100_000 * len(pairs)
        assert result.p_s_hat == result.n_heralds / result.n_trials_total
        assert result.p_sas_hat == result.n_coincidences / result.n_trials_total

    @pytest.mark.parametrize("dark_rate, kind, p_sas_hat", [
        (0.0, "bell", 0.002835375), (0.0, "hv", 0.002787),
        (3e-3, "bell", 0.005460375), (3e-3, "hv", 0.0054795),
    ])
    def test_coincidence_probability_is_pinned(self, dark_rate, kind, p_sas_hat):
        # recorded before p_sas_hat was pooled over every setting pair: a
        # bell plan already pooled its four pairs, and an hv plan has one
        pairs = CANONICAL_BELL.setting_pairs() if kind == "bell" else (HV_PAIR,)
        config = CFG.replace(dark_rate=dark_rate)
        result = run_batch(RunPlan(config, 0.7, pairs, 2_000_000, 515))
        assert result.p_sas_hat == p_sas_hat

    def test_herald_bin_histogram_geometric(self):
        # earlier bins herald first; conditional law is truncated geometric
        plan = RunPlan(CFG, 0.7, (HV_PAIR,), 3_000_000, 77)
        result = run_batch(plan)
        hist = np.asarray(result.herald_bin_histogram, dtype=float)
        assert hist.shape == (CFG.m,)
        assert hist.sum() == result.n_heralds
        p1 = CFG.chi * CFG.eta_d
        law = p1 * (1.0 - p1) ** np.arange(CFG.m)
        law /= law.sum()
        chi2 = stats.chisquare(hist, f_exp=law * hist.sum())
        assert chi2.pvalue > 1e-4

    def test_small_odd_and_large_trial_counts(self):
        for n in (1, 100, 65_543, 1_000_000_000):
            plan = RunPlan(CFG, 0.7, (HV_PAIR,), n, 5)
            result = run_batch(plan)
            assert result.n_trials_total == n
            row = result.table.counts[0].tolist()
            assert row[6] == n
            _check_counts(*row)

    def test_conditional_correlation_matches_state(self):
        pair = CANONICAL_BELL.setting_pairs()[0]
        plan = RunPlan(CFG, 0.7, (pair,), 2_500_000, 404)
        result = run_batch(plan)
        e_hat, e_err = correlation_e(result.table.counts[0, :4])
        rho = effective_pair_state(CFG, tau=0.7)
        p = joint_probabilities(rho, pair.stokes, pair.anti_stokes)
        e_true = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
        assert abs(e_hat - e_true) < 4.0 * e_err

    def test_dark_heralds_appear_and_are_counted(self):
        cfg = CFG.replace(dark_rate=2e-4)
        n = 400_000
        plan = RunPlan(cfg, 0.7, (HV_PAIR,), n, 31)
        result = run_batch(plan)
        assert result.n_dark_heralds > 0
        assert result.n_heralds > result.n_dark_heralds
        # the law includes dark counts: herald rate and dark share within 4 SE
        p = analytic_p_s(cfg).exact
        assert abs(result.p_s_hat - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)
        p_real = cfg.chi * cfg.eta_d / _click_probability(cfg)
        p_dark = analytic_p_s(cfg).exact * (1.0 - p_real)
        se = math.sqrt(n * p_dark * (1.0 - p_dark))
        assert abs(result.n_dark_heralds - n * p_dark) < 4.0 * se
        # background floods raise the herald estimate above the dark-free law
        assert result.p_s_hat > first_success_probability(cfg.chi * cfg.eta_d, cfg.m)

    def test_storage_time_decay_shows_in_correlations(self):
        pair = CANONICAL_BELL.setting_pairs()[0]
        short = run_batch(RunPlan(CFG, 0.7, (pair,), 2_000_000, 8))
        long = run_batch(RunPlan(CFG, 60.0, (pair,), 2_000_000, 8))
        e_short, _ = correlation_e(short.table.counts[0, :4])
        e_long, _ = correlation_e(long.table.counts[0, :4])
        assert e_short > e_long


class TestCoincidenceRow:
    def test_validate_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            _check_counts(10, 0, 0, 0, 5, 0, 100)


def _message(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def _row_message(table):
    """What the row rule says of the table's rows in order: the reference."""
    def check():
        for row in table.counts.tolist():
            _check_counts(*row)
    return _message(check)


def _probes(value, bound, kind):
    """Values to put in one cell: around 0, around its bound and beyond."""
    if kind == "float":
        value, bound = float(value), float(bound)
        up, down = math.nextafter(bound, math.inf), math.nextafter(bound, -math.inf)
        return [-1e-300, -0.0, 0.0, value * 2.0, bound, up, down, 1.0, math.inf, math.nan]
    value, bound = int(value), int(bound)
    probes = [-1, 0, value - 1, value + 1, bound, bound + 1, 2 * bound]
    if kind == "int64":
        return [v for v in probes + [2**62 + 2**61, 2**63 - 1] if -2**63 <= v < 2**63]
    return probes + [10**40]


class TestVectorCheck:
    """CoincidenceTable.validate against _check_counts of each row in order:
    same verdict and same message, for tables that perturb one or two cells
    of a valid int64, float or CSV-parsed (beyond int64) table."""

    @staticmethod
    def tables():
        sampled = run_coincidence_batch(CFG, 4.0, PLANS["bell+tomo"], 10**6, 61)
        batch = run_batch(RunPlan(CFG.replace(dark_rate=1e-2), 4.0, PLANS["tomo"], 10**9, 3))
        rng = np.random.default_rng(17)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        exact = exact_coincidence_table(rho / np.trace(rho).real, PLANS["bell+tomo"])
        huge = np.array([[2**70 + s, 2**64, 3 * 2**63, 2**63, 2**71, 2**64 + 2**63 + s,
                          2**72 + 7 * s] for s in range(len(PLANS["tomo"]))], dtype=object)
        text = coincidence_table_to_csv(CoincidenceTable(PLANS["tomo"], huge))
        parsed = parse_coincidence_csv(text)
        return {"sampled": (sampled, "int64"), "batch": (batch.table, "int64"),
                "exact": (exact, "float"), "csv": (parsed, "object")}

    def test_same_verdict_and_message(self):
        rng = np.random.default_rng(2718)
        bounds = (4, 4, 5, 5, 6, 6, 6)
        for name, (table, kind) in self.tables().items():
            assert table.counts.dtype == {"int64": np.int64, "float": float, "object": object}[kind]
            assert _row_message(table) is None and _message(table.validate) is None
            seen = set()
            rows, _ = table.counts.shape
            for s in range(rows):
                for j in range(7):
                    for value in _probes(table.counts[s, j], table.counts[s, bounds[j]], kind):
                        for second in (None, int(rng.integers(rows))):
                            counts = table.counts.copy()
                            counts[s, j] = value
                            if second is not None:  # a second fault, maybe in an earlier row
                                t = int(rng.integers(7))
                                probes = _probes(counts[second, t], counts[second, bounds[t]], kind)
                                counts[second, t] = probes[int(rng.integers(len(probes)))]
                            perturbed = CoincidenceTable(table.pairs, counts)
                            expected = _row_message(perturbed)
                            assert _message(perturbed.validate) == expected, (name, s, j, value)
                            seen.add(expected)
            # every check of the row rule was exercised
            assert len(seen) == 6, (name, seen)

    def test_int64_heralds_that_wrap_are_rejected(self):
        # n_d1 + n_d2 = 1.5 * 2^63 wraps in int64; each single fits the trials
        counts = np.array([[0, 0, 0, 0, 2**62 + 2**61, 2**62 + 2**61, 2**63 - 1]])
        table = CoincidenceTable((HV_PAIR,), counts)
        assert _row_message(table) == "total heralds exceed the number of trials"
        assert _message(table.validate) == _row_message(table)


@pytest.mark.parametrize("nan_column, negative_column",
                         [(j, k) for j in range(7) for k in range(j + 1, 7)])
def test_nan_does_not_hide_a_later_negative_count(nan_column, negative_column):
    # min(nan, -1.0) is nan, so a min(row) < 0 shortcut would pass this row
    row = [0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 10.0]
    row[nan_column], row[negative_column] = math.nan, -1.0
    table = CoincidenceTable((HV_PAIR,), np.array([row]))
    with pytest.raises(ValueError, match="coincidence counts must be non-negative"):
        table.validate()
    with pytest.raises(ValueError, match="coincidence counts must be non-negative"):
        _check_counts(*row)


class TestCoincidenceSampler:
    @pytest.mark.parametrize("n", [0, -1, 2**63, 2**64])
    def test_count_outside_int64_is_named(self, monkeypatch, n):
        def no_draws(*args):
            raise AssertionError("a rejected count must not reach the draws")

        monkeypatch.setattr(engine, "_setting_streams", no_draws)
        with pytest.raises(ValueError, match=r"n_coincidences must lie in \[1, 2\^63\)"):
            run_coincidence_batch(CFG, 0.7, (HV_PAIR,), n, 1)

    @pytest.mark.parametrize("n", [0, -1, 2**63, 2.5, True, "12"])
    def test_count_is_checked_as_run_plan_checks_it(self, monkeypatch, n):
        with pytest.raises(ValueError) as plan_error:
            RunPlan(CFG, 0.7, (HV_PAIR,), n, 1)

        def no_draws(*args):
            raise AssertionError("a rejected count must not reach the draws")

        monkeypatch.setattr(engine, "_setting_streams", no_draws)
        message = str(plan_error.value).replace("n_trials", "n_coincidences")
        with pytest.raises(ValueError, match=re.escape(message)):
            run_coincidence_batch(CFG, 0.7, (HV_PAIR,), n, 1)

    def test_rows_are_int64_with_singles_and_totals(self):
        n = 10_000
        table = run_coincidence_batch(CFG, 0.7, PLANS["bell+tomo"], n, 6)
        counts = table.counts
        assert counts.dtype == np.int64 and counts.shape == (len(PLANS["bell+tomo"]), 7)
        assert (counts[:, 4] == counts[:, 0] + counts[:, 1]).all()
        assert (counts[:, 5] == counts[:, 2] + counts[:, 3]).all()
        assert (counts[:, 6] == n).all()

    @pytest.mark.parametrize("draws, message", [
        ([[1, 2, 3, 4], [6, 5, 0, 0], [-1, 3, 4, 4]], "herald singles exceed the number of trials"),
        ([[1, 2, 3, 4], [-1, 3, 4, 4], [6, 5, 0, 0]], "coincidence counts must be non-negative"),
        ([[1, 2, 3, 4], [1, 2, 3, 4], [4, 4, 2, 1]], "total heralds exceed the number of trials"),
    ], ids=["singles-then-negative", "negative-then-singles", "last-row-totals"])
    def test_first_failing_row_names_the_fault(self, monkeypatch, draws, message):
        class Draws:
            def multinomial(self, n, p):
                return np.array(draws[len(calls)], dtype=np.int64)

        calls = []

        def streams(seed, domain, count):
            for _ in range(count):
                yield Draws()
                calls.append(None)

        monkeypatch.setattr(engine, "_setting_streams", streams)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs()[:3], 10, 6)

    def test_deterministic(self):
        pairs = CANONICAL_BELL.setting_pairs()
        a = run_coincidence_batch(CFG, 0.7, pairs, 10_000, 6)
        b = run_coincidence_batch(CFG, 0.7, pairs, 10_000, 6)
        assert a == b

    def test_counts_follow_conditional_law(self):
        pair = CANONICAL_BELL.setting_pairs()[1]
        n = 200_000
        table = run_coincidence_batch(CFG, 0.7, (pair,), n, 13)
        cells = table.counts[0, :4].tolist()
        assert sum(cells) == n
        rho = effective_pair_state(CFG, tau=0.7)
        p = joint_probabilities(rho, pair.stokes, pair.anti_stokes)
        for observed, expected in zip(cells, np.asarray(p).ravel()):
            se = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(observed / n - expected) < 4.0 * se
