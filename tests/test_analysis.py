"""Estimators: CHSH, tomography, physicality projection, decay fit, calibration."""
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from swpemux import analysis
from swpemux.analysis import (
    CANONICAL_BELL,
    TSIRELSON_BOUND,
    BellSettings,
    analytic_bell_s,
    analytic_correlation,
    bell_s,
    calibrate_visibility,
    correlation_e,
    fidelity,
    fit_decay,
    project_physical,
    tomo_reconstruct,
    tomography_setting_pairs,
)
from swpemux.config import ExperimentConfig
from swpemux.engine import (
    CoincidenceTable,
    effective_pair_state,
    run_coincidence_batch,
    visibility,
)
from swpemux.states import bell_state, validate_density, werner_state
from swpemux.io import coincidence_table_to_csv, parse_coincidence_csv

from oracles import exact_coincidence_table

CFG = ExperimentConfig()


def random_density(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def with_nan(rho: np.ndarray, index: tuple) -> np.ndarray:
    spoiled = np.array(rho, dtype=complex)
    spoiled[index] = math.nan
    return spoiled


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# sha256 of a 4x4 complex matrix of numpy's default NaN, recorded before the
# estimators' checks and reductions were rewritten
ALL_NAN_4X4 = "9447548f9ede2c5e87f258ff415305ae357e1f509957263939ad694649a97660"

# four rows of counts in CANONICAL_BELL's setting-pair order
CHSH_ROWS = [[40, 10, 10, 40], [10, 40, 40, 10], [45, 5, 5, 45], [30, 20, 20, 30]]


def chsh_table(rows, dtype=float) -> CoincidenceTable:
    """A CANONICAL_BELL table of four rows of four counts, with singles and totals."""
    counts = [[*r, r[0] + r[1], r[2] + r[3], r[0] + r[1] + r[2] + r[3]] for r in rows]
    return CoincidenceTable(CANONICAL_BELL.setting_pairs(), np.array(counts, dtype=dtype))


def array_correlations(counts: np.ndarray) -> tuple:
    """The estimators' array formulas for E and its error on a (P, 4) float
    count array: the reference the Python-float estimators must equal bitwise."""
    totals = np.add.reduce(counts, axis=1)
    values = (counts[:, 0] + counts[:, 3] - counts[:, 1] - counts[:, 2]) / totals
    errors = np.sqrt(np.maximum(0.0, (1.0 - values * values) / totals))
    return values.tolist(), errors.tolist()


def array_bell_s(table: CoincidenceTable) -> tuple:
    """bell_s on the canonical table through array_correlations."""
    positions = table.positions(CANONICAL_BELL.setting_pairs())
    e, errors = array_correlations(np.asarray(table.counts[positions, :4], dtype=float))
    return e[0] - e[1] + e[2] + e[3], math.sqrt(sum(v ** 2 for v in errors))


def array_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """fidelity through np.linalg and array reductions: the reference for the
    estimator's Python-float spectral tail."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    inner_eigs = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    floor = 64.0 * np.finfo(float).eps * max(np.maximum.reduce(inner_eigs), 0.0)
    inner_eigs[inner_eigs < floor] = 0.0
    return min(max(float(np.add.reduce(np.sqrt(inner_eigs)) ** 2), 0.0), 1.0)


class TestCorrelationE:
    def test_known_counts(self):
        e, err = correlation_e([[30, 10], [10, 50]])
        assert e == pytest.approx(0.6, abs=1e-14)
        assert err == pytest.approx(math.sqrt((1.0 - 0.36) / 100.0), rel=1e-12)

    def test_perfect_correlation_has_zero_error(self):
        e, err = correlation_e([[50, 0], [0, 50]])
        assert e == 1.0
        assert err == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            correlation_e([[0, 0], [0, 0]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            correlation_e([[1, -1], [0, 2]])

    def test_nan_does_not_hide_a_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            correlation_e([math.nan, -1, 2, 3])

    def test_all_nan_row_passes_through(self):
        e, err = correlation_e([math.nan] * 4)
        assert math.isnan(e) and math.isnan(err)

    @pytest.mark.filterwarnings("error")
    def test_one_nan_count_passes_through_without_a_warning(self):
        e, err = correlation_e([1.0, math.nan, 2.0, 3.0])
        assert math.isnan(e) and math.isnan(err)

    def test_row_with_e_of_one_has_an_error_of_exactly_zero(self):
        assert correlation_e([5, 0, 0, 0]) == (1.0, 0.0)


class TestBellS:
    def test_exact_balanced_state_hits_tsirelson(self):
        table = exact_coincidence_table(bell_state(45.0), CANONICAL_BELL.setting_pairs())
        s, _ = bell_s(table)
        assert abs(s - TSIRELSON_BOUND) < 1e-12

    def test_werner_scaling(self):
        # S scales linearly with visibility at the canonical angles
        for v in (0.2, 0.6, 0.937):
            table = exact_coincidence_table(werner_state(45.0, v), CANONICAL_BELL.setting_pairs())
            s, _ = bell_s(table)
            assert s == pytest.approx(TSIRELSON_BOUND * v, rel=1e-12)

    def test_missing_row_rejected(self):
        table = exact_coincidence_table(bell_state(45.0), CANONICAL_BELL.setting_pairs()[:3])
        with pytest.raises(KeyError):
            bell_s(table)

    def test_row_counts_match_the_array_path_bitwise(self):
        # bell_s reads the table's count array by position; correlation_e
        # on each row's count array is the generic path
        rng = np.random.default_rng(4141)
        pairs = CANONICAL_BELL.setting_pairs()
        for _ in range(200):
            top = 10 ** int(rng.integers(1, 10))
            counts = []
            for _ in pairs:
                c = [int(v) for v in rng.integers(1, top, size=4)]
                counts.append([*c, c[0] + c[1], c[2] + c[3], sum(c)])
            table = CoincidenceTable(pairs, np.array(counts, dtype=object))
            e = [correlation_e(table.counts[s, :4]) for s in range(4)]
            value = e[0][0] - e[1][0] + e[2][0] + e[3][0]
            error = math.sqrt(sum(v[1] ** 2 for v in e))
            assert bell_s(table) == (value, error)

    def test_tsirelson_never_exceeded_on_random_states(self):
        rng = np.random.default_rng(2718)
        pairs = CANONICAL_BELL.setting_pairs()
        for _ in range(200):
            s, _ = bell_s(exact_coincidence_table(random_density(rng), pairs))
            assert s <= TSIRELSON_BOUND + 1e-9

    def test_custom_angles(self):
        # all-equal analyzer angles collapse the quadrature to 2E <= 2
        settings = BellSettings(0.0, 0.0, 0.0, 0.0)
        table = exact_coincidence_table(bell_state(45.0), settings.setting_pairs())
        s, _ = bell_s(table, settings)
        assert s == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nan_cells", [[(1, 2)], [(r, c) for r in range(4) for c in range(4)]],
                             ids=["one-nan", "all-nan"])
    def test_nan_counts_give_nan_without_a_warning(self, nan_cells):
        rows = [[float(c) for c in row] for row in CHSH_ROWS]
        for r, c in nan_cells:
            rows[r][c] = math.nan
        s, err = bell_s(chsh_table(rows))
        assert math.isnan(s) and math.isnan(err)

    @pytest.mark.parametrize("spoiled, message", [
        ({0: [0, 0, 0, 0]}, "cannot estimate a correlation from zero coincidences"),
        ({2: [1, -1, 0, 2]}, "coincidence counts must be non-negative"),
        ({3: [math.nan, -1, 2, 3]}, "coincidence counts must be non-negative"),
        # every row is checked for a negative count before any for a zero total
        ({0: [0, 0, 0, 0], 2: [1, -1, 0, 2]}, "coincidence counts must be non-negative"),
    ], ids=["zero-total", "negative", "nan-beside-negative", "zero-total-then-negative"])
    def test_bad_rows_raise_the_row_rule_messages(self, spoiled, message):
        rows = [spoiled.get(r, row) for r, row in enumerate(CHSH_ROWS)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            bell_s(chsh_table(rows))

    def test_rows_with_e_of_one_have_an_error_of_exactly_zero(self):
        assert bell_s(chsh_table([[5, 0, 0, 0]] * 4)) == (2.0, 0.0)

    def test_csv_counts_beyond_2_53_are_read_as_floats(self):
        rows = [[10**20 + 1, 3 * 10**19 + 7, 2 * 10**19 + 3, 9 * 10**19 + 11],
                [4 * 10**19 + 5, 10**20 + 13, 7 * 10**19 + 1, 2 * 10**19 + 9],
                [8 * 10**19 + 17, 10**19 + 3, 10**19 + 19, 6 * 10**19 + 23],
                [5 * 10**19 + 29, 3 * 10**19 + 31, 2 * 10**19 + 37, 9 * 10**19 + 41]]
        table = parse_coincidence_csv(coincidence_table_to_csv(chsh_table(rows, dtype=object)))
        assert table.counts.dtype == object
        assert bell_s(table) == array_bell_s(table) == (2.2852784134248667, 1.1366080286530412e-10)

    def test_bitwise_the_array_formula(self):
        # float counts of mixed magnitudes, so that rounding in the sums shows
        rng = np.random.default_rng(1905)
        for _ in range(500):
            counts = rng.random((4, 4)) * 10.0 ** rng.integers(-3, 25, size=(4, 4))
            table = chsh_table(counts.tolist())
            assert bell_s(table) == array_bell_s(table)
            row = counts[int(rng.integers(4))]
            assert correlation_e(row) == tuple(v[0] for v in array_correlations(row[None, :]))


class TestAnalyticBell:
    def test_frozen_model_values(self):
        s19 = analytic_bell_s(effective_pair_state(CFG, tau=0.7))
        s1 = analytic_bell_s(effective_pair_state(CFG.replace(m=1), tau=0.7))
        s19_late = analytic_bell_s(effective_pair_state(CFG, tau=30.0))
        assert s19 == pytest.approx(2.298556995565638, rel=1e-13)
        assert s1 == pytest.approx(2.6502362158871806, rel=1e-13)
        assert s19_late == pytest.approx(2.0291169161780744, rel=1e-13)

    def test_matches_visibility_rule(self):
        s = analytic_bell_s(effective_pair_state(CFG, tau=0.7))
        assert s == pytest.approx(TSIRELSON_BOUND * visibility(CFG), rel=1e-12)

    def test_correlation_of_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |HH><HH|
        e = analytic_correlation(rho, CANONICAL_BELL.setting_pairs()[0])
        # <cos 2a cos 2b> for a separable |HH> at angles (0, 22.5)
        assert e == pytest.approx(math.cos(0.0) * math.cos(math.radians(45.0)), rel=1e-12)


class TestTomography:
    def test_nine_pairs_row_major(self):
        pairs = tomography_setting_pairs()
        assert len(pairs) == 9
        tokens = [p.tokens() for p in pairs]
        assert tokens[0] == ("0.0", "0.0")
        assert tokens[1] == ("0.0", "45.0")
        assert tokens[2] == ("0.0", "R")
        assert tokens[3] == ("45.0", "0.0")
        assert tokens[8] == ("R", "R")

    def test_exact_reconstruction_of_random_states(self):
        rng = np.random.default_rng(99)
        pairs = tomography_setting_pairs()
        for _ in range(100):
            rho = random_density(rng)
            recovered = tomo_reconstruct(exact_coincidence_table(rho, pairs))
            assert np.max(np.abs(recovered - rho)) < 1e-10

    def test_exact_reconstruction_of_model_state(self):
        rho = effective_pair_state(CFG, tau=0.7)
        recovered = tomo_reconstruct(exact_coincidence_table(rho, tomography_setting_pairs()))
        assert np.max(np.abs(recovered - rho)) < 1e-12

    def test_duplicate_row_rejected(self):
        pairs = tomography_setting_pairs()
        table = exact_coincidence_table(bell_state(45.0), pairs + (pairs[0],))
        with pytest.raises(ValueError, match="duplicate"):
            tomo_reconstruct(table)

    def test_missing_rows_rejected(self):
        table = exact_coincidence_table(bell_state(45.0), tomography_setting_pairs()[:8])
        with pytest.raises(ValueError, match="missing"):
            tomo_reconstruct(table)

    def test_empty_table_reports_nine_missing_pairs(self):
        with pytest.raises(ValueError, match="missing 9 basis pairs"):
            tomo_reconstruct(CoincidenceTable((), np.empty((0, 7))))

    def test_nan_row_passes_and_a_zero_or_negative_row_does_not(self):
        pairs = tomography_setting_pairs()
        counts = exact_coincidence_table(bell_state(30.0), pairs).counts.copy()
        counts[4, :4] = math.nan
        assert digest(tomo_reconstruct(CoincidenceTable(pairs, counts))) == ALL_NAN_4X4
        counts[6, :4] = 0.0
        with pytest.raises(ValueError, match=re.escape(f"row {pairs[6].tokens()} has zero")):
            tomo_reconstruct(CoincidenceTable(pairs, counts))
        counts[7, 2] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            tomo_reconstruct(CoincidenceTable(pairs, counts))

    def test_non_tomography_basis_rejected(self):
        table = exact_coincidence_table(bell_state(45.0), CANONICAL_BELL.setting_pairs())
        with pytest.raises(ValueError):
            tomo_reconstruct(table)

    @staticmethod
    def loop_inversion(table):
        """The inversion written out: each row's four counts as a 2x2 array,
        a linear basis scan and one np.kron per Pauli product."""
        sigma = (
            np.eye(2, dtype=complex),
            np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        )
        bases = [pair.stokes for pair in tomography_setting_pairs()[::3]]
        correlators = np.zeros((4, 4))
        correlators[0, 0] = 1.0
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
        marg_s = np.array([[1.0, 1.0], [-1.0, -1.0]])
        for pair, row in zip(table.pairs, table.counts):
            j, k = bases.index(pair.stokes), bases.index(pair.anti_stokes)
            counts = np.asarray(row[:4], dtype=float).reshape(2, 2)
            p = counts / counts.sum()
            correlators[j + 1, k + 1] = float((sign * p).sum())
            correlators[j + 1, 0] += float((marg_s * p).sum()) / 3.0
            correlators[0, k + 1] += float((marg_s.T * p).sum()) / 3.0
        rho = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            for k in range(4):
                rho += correlators[j, k] * np.kron(sigma[j], sigma[k])
        return rho / 4.0

    def test_bitwise_equal_to_loop_inversion(self):
        rng = np.random.default_rng(2001)
        pairs = tomography_setting_pairs()
        for trial in range(300):
            if trial % 3 == 0:
                table = exact_coincidence_table(random_density(rng), pairs)
            else:
                top = 10 ** int(rng.integers(1, 8))
                counts = []
                for _ in pairs:
                    c = [int(v) for v in rng.integers(0, top, size=4)]
                    if trial % 3 == 2:  # sparse rows: zero cells are common
                        c = [v if rng.random() < 0.5 else 0 for v in c]
                    c[int(rng.integers(4))] += 1
                    counts.append([*c, c[0] + c[1], c[2] + c[3], sum(c)])
                table = CoincidenceTable(pairs, np.array(counts, dtype=object))
            order = rng.permutation(9)
            table = CoincidenceTable([table.pairs[i] for i in order], table.counts[order])
            got = tomo_reconstruct(table)
            assert got.tobytes() == self.loop_inversion(table).tobytes()

    def test_sampled_counts_recover_state(self):
        table = run_coincidence_batch(CFG, 0.7, tomography_setting_pairs(), 100_000, 21)
        rho = project_physical(tomo_reconstruct(table))
        assert validate_density(rho) == []
        truth = effective_pair_state(CFG, tau=0.7)
        assert fidelity(rho, truth) > 0.999


class TestProjectPhysical:
    def test_leaves_physical_states_alone(self):
        rho = werner_state(45.0, 0.8)
        assert np.array_equal(project_physical(rho), rho)

    def test_redistribution_example(self):
        rho = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        cleaned = project_physical(rho)
        assert np.allclose(np.diag(cleaned).real, [0.55, 0.45, 0.0, 0.0], atol=1e-12)
        assert validate_density(cleaned) == []

    def test_deficit_spread_over_positive_only(self):
        # the zero eigenvalue must stay zero, not absorb any deficit
        rho = np.diag([0.7, 0.4, 0.0, -0.1]).astype(complex)
        cleaned = project_physical(rho)
        diag = np.diag(cleaned).real
        assert diag[2] == pytest.approx(0.0, abs=1e-14)
        assert diag[3] == pytest.approx(0.0, abs=1e-14)
        assert diag[0] + diag[1] == pytest.approx(1.0, rel=1e-12)

    def test_off_diagonal_case_keeps_trace(self):
        rng = np.random.default_rng(5)
        base = random_density(rng)
        spoiled = base - 0.05 * np.eye(4)
        spoiled /= np.trace(spoiled).real
        cleaned = project_physical(spoiled)
        assert validate_density(cleaned) == []

    @pytest.mark.parametrize("rho, index, expected", [
        # eigh returns a NaN eigenvalue here, and finite ones with NaN vectors below
        (np.eye(4) / 4.0, (1, 1), ALL_NAN_4X4),
        (bell_state(45.0), (0, 0),
         "072111725b88cb822db1e47881cb27d14440e3e956457d5b8ca5e4ac4419f1c0"),
    ])
    def test_nan_entry_keeps_its_bytes(self, rho, index, expected):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            cleaned = project_physical(with_nan(rho, index))
        assert digest(cleaned) == expected


class TestFidelity:
    def test_pure_state_overlap(self):
        a = bell_state(45.0)
        b = bell_state(30.0)
        ket_a = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        c30, s30 = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        ket_b = np.array([c30, 0.0, 0.0, s30])
        assert fidelity(a, b) == pytest.approx(abs(ket_a @ ket_b) ** 2, rel=1e-12)

    def test_self_fidelity_and_symmetry(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng)
        sigma = random_density(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    @pytest.mark.parametrize("index", [(0, 0), (1, 1), (1, 2)])
    def test_nan_entry_raises(self, index):
        spoiled = with_nan(np.eye(4) / 4.0, index)
        for args in ((spoiled, bell_state(45.0)), (np.diag([0.1, 0.2, 0.3, 0.4]), spoiled)):
            with pytest.raises(np.linalg.LinAlgError):
                fidelity(*args)

    @pytest.mark.parametrize("rho, sigma", [
        (np.ones(4) / 4.0, np.ones(4) / 4.0),
        (np.array(1.0), np.array(1.0)),
        (np.ones((4, 4, 4)) / 4.0, np.ones((4, 4, 4)) / 4.0),
        (np.ones((4, 2)), np.ones((4, 2))),
        (np.eye(4) / 4.0, np.eye(2) / 2.0),
        (np.eye(4) / 4.0, np.ones(16) / 16.0),
        (np.zeros((0, 0)), np.zeros((0, 0))),
    ], ids=["1-d", "0-d", "stack", "not-square", "sizes-differ", "flat-sigma", "empty"])
    def test_shapes_checked_at_the_boundary(self, rho, sigma):
        message = re.escape(f"got {rho.shape} and {sigma.shape}")
        with pytest.raises(ValueError, match=f"two square matrices of equal shape, {message}"):
            fidelity(rho, sigma)

    def test_werner_against_bell_target(self):
        # mixture rule: overlap of V-weighted mixture with its pure target
        assert fidelity(werner_state(45.0, 0.8), bell_state(45.0)) == pytest.approx(
            (1.0 + 3.0 * 0.8) / 4.0, rel=1e-12
        )

    @pytest.mark.parametrize("rho", [np.zeros((4, 4)), -np.eye(4)], ids=["zeros", "minus-identity"])
    def test_no_positive_weight_gives_a_float_zero(self, rho):
        value = fidelity(rho, bell_state(45.0))
        assert type(value) is float and repr(value) == "0.0"

    def test_pure_inputs_keep_their_value(self):
        assert fidelity(bell_state(45.0), bell_state(30.0)) == 0.9330127018922194
        assert fidelity(bell_state(30.0), bell_state(45.0)) == 0.9330127018922194

    @pytest.mark.parametrize("small, expected", [
        (2.0**-48, (0.5 + 2.0**-24) ** 2),  # exactly 64 eps times the largest, 0.25: kept
        (2.0**-50, 0.25),                   # below that floor: dropped
    ], ids=["at-floor", "below-floor"])
    def test_eigenvalue_floor_is_inclusive(self, small, expected):
        rho = np.diag([0.25, small, 0.0, 0.0]).astype(complex)
        assert fidelity(rho, np.eye(4)) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("inner_eigs", [[math.nan, 0.1, 0.2, 0.7], [0.1, 0.2, math.nan, 0.7]],
                             ids=["nan-first", "nan-inside"])
    def test_nan_eigenvalue_gives_nan(self, monkeypatch, inner_eigs):
        monkeypatch.setattr(analysis, "_eigvalsh", lambda h: np.array(inner_eigs))
        assert math.isnan(fidelity(werner_state(45.0, 0.8), bell_state(45.0)))

    def test_bitwise_the_array_formula(self):
        rng = np.random.default_rng(6007)
        inputs = [bell_state(45.0), bell_state(10.0), werner_state(45.0, 0.8),
                  np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)]
        inputs += [random_density(rng) for _ in range(60)]
        for rho in inputs:
            for sigma in inputs[:6]:
                assert fidelity(rho, sigma) == array_fidelity(rho, sigma)


class TestFitDecay:
    def test_two_published_points(self):
        fit = fit_decay([(0.7, 2.30), (30.0, 2.03)])
        assert fit.tau_ref == 0.7
        assert fit.tau_c == pytest.approx(234.63777275600924, rel=1e-12)
        assert fit.v_ref == pytest.approx(0.8131727983645295, rel=1e-12)
        assert fit.lifetime_chsh == pytest.approx(33.49343087496093, rel=1e-12)
        assert np.allclose(fit.covariance, 0.0)

    def test_recovers_model_constants_from_exact_curve(self):
        taus = (0.7, 5.0, 12.0, 20.0, 30.0)
        points = [
            (tau, analytic_bell_s(effective_pair_state(CFG, tau=tau))) for tau in taus
        ]
        fit = fit_decay(points)
        assert fit.tau_c == pytest.approx(CFG.tau_c, rel=1e-9)
        assert fit.v_ref == pytest.approx(visibility(CFG), rel=1e-9)

    def test_covariance_without_errors_is_scaled_by_the_residuals(self):
        # unit weights: inv(X^T X) RSS / (n - 2) on y = ln(S / 2 sqrt 2)
        points = [(0.7, 2.30), (10.0, 2.21), (20.0, 2.10), (30.0, 2.03)]
        taus = np.array([p[0] for p in points])
        y = np.log(np.array([p[1] for p in points]) / TSIRELSON_BOUND)
        design = np.column_stack([np.ones(4), -(taus - 0.7)])
        beta, rss, *_ = np.linalg.lstsq(design, y, rcond=None)
        expected = np.linalg.inv(design.T @ design) * float(rss[0]) / (len(points) - 2)
        fit = fit_decay(points)
        assert fit.v_ref == pytest.approx(math.exp(beta[0]), rel=1e-12)
        np.testing.assert_allclose(fit.covariance, expected, rtol=1e-10)

    def test_weights_prefer_precise_points(self):
        # a wildly wrong point with a huge error bar should barely matter
        clean = [(0.7, 2.30, 0.001), (30.0, 2.03, 0.001)]
        noisy = clean + [(15.0, 2.80, 50.0)]
        fit_clean = fit_decay(clean)
        fit_noisy = fit_decay(noisy)
        assert fit_noisy.tau_c == pytest.approx(fit_clean.tau_c, rel=1e-3)

    def test_mixed_error_presence_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(0.7, 2.30, 0.01), (30.0, 2.03)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(0.7, 2.30)])

    def test_above_bound_warns(self):
        with pytest.warns(UserWarning):
            fit_decay([(0.7, 2.9), (30.0, 2.0)])

    def test_non_decaying_curve_yields_infinite_tau(self):
        with pytest.warns(UserWarning):
            fit = fit_decay([(0.7, 2.0), (30.0, 2.4)])
        assert math.isinf(fit.tau_c)

    def test_nonpositive_s_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(0.7, 2.30), (30.0, -1.0)])

    @pytest.mark.parametrize("points, name", [
        ([(0.7, math.nan), (5.0, 2.0)], "S values"),
        ([(0.7, 2.3), (5.0, math.inf)], "S values"),
        ([(math.nan, 2.3), (5.0, 2.0)], "storage times"),
        ([(0.7, 2.3), (math.inf, 2.0)], "storage times"),
        ([(0.7, 2.3, math.nan), (5.0, 2.0, 0.01)], "S errors"),
        ([(0.7, 2.3, 0.01), (5.0, 2.0, math.inf)], "S errors"),
    ])
    def test_non_finite_input_rejected_by_name(self, points, name):
        with pytest.raises(ValueError, match=name):
            fit_decay(points)

    @pytest.mark.parametrize("tau_ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_ref_rejected_by_name(self, tau_ref):
        with pytest.raises(ValueError, match="tau_ref"):
            fit_decay([(0.7, 2.30), (30.0, 2.03)], tau_ref=tau_ref)

    @pytest.mark.parametrize("tau_ref", [1e155, 1e300, -1e300])
    @pytest.mark.parametrize("points", [
        [(0.7, 2.30), (30.0, 2.03)],
        [(0.7, 2.30), (15.0, 2.20), (30.0, 2.03)],
        [(0.7, 2.30, 0.01), (30.0, 2.03, 0.01)],
    ], ids=["two", "three", "errors"])
    def test_overflowing_tau_ref_rejected_by_name(self, points, tau_ref):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau_ref"):
                fit_decay(points, tau_ref=tau_ref)

    def test_to_dict_round_trip_fields(self):
        fit = fit_decay([(0.7, 2.30), (30.0, 2.03)])
        payload = fit.to_dict()
        assert payload["tau_c"] == fit.tau_c
        assert payload["lifetime_chsh"] == fit.lifetime_chsh
        assert len(payload["covariance"]) == 2


class TestCalibrateVisibility:
    PUBLISHED = [
        {"m": 1, "tau": 0.7, "s": 2.65},
        {"m": 19, "tau": 0.7, "s": 2.30},
        {"m": 19, "tau": 30.0, "s": 2.03},
    ]

    def test_published_targets(self):
        patch = calibrate_visibility(self.PUBLISHED, chi=CFG.chi, tau_ref=CFG.tau_ref)
        assert patch["v1"] == pytest.approx(0.9369164850721754, rel=1e-12)
        assert patch["beta"] == pytest.approx(0.8454106280193238, rel=1e-12)
        assert patch["tau_c"] == pytest.approx(234.63777275600935, rel=1e-12)

    def test_calibrated_model_reproduces_targets(self):
        patch = calibrate_visibility(self.PUBLISHED, chi=CFG.chi, tau_ref=CFG.tau_ref)
        cal = CFG.replace(**patch)
        assert analytic_bell_s(effective_pair_state(cal.replace(m=1), tau=0.7)) == pytest.approx(2.65, rel=1e-12)
        assert analytic_bell_s(effective_pair_state(cal, tau=0.7)) == pytest.approx(2.30, rel=1e-12)
        assert analytic_bell_s(effective_pair_state(cal, tau=30.0)) == pytest.approx(2.03, rel=1e-12)

    def test_round_trip_on_model_generated_targets(self):
        targets = [
            {"m": 1, "tau": 0.7, "s": analytic_bell_s(effective_pair_state(CFG.replace(m=1), tau=0.7))},
            {"m": 19, "tau": 0.7, "s": analytic_bell_s(effective_pair_state(CFG, tau=0.7))},
            {"m": 19, "tau": 30.0, "s": analytic_bell_s(effective_pair_state(CFG, tau=30.0))},
        ]
        patch = calibrate_visibility(targets, chi=CFG.chi, tau_ref=CFG.tau_ref)
        assert patch["v1"] == pytest.approx(CFG.v1, rel=1e-9)
        assert patch["beta"] == pytest.approx(CFG.beta, rel=1e-9)
        assert patch["tau_c"] == pytest.approx(CFG.tau_c, rel=1e-9)

    def test_wrong_target_structure_rejected(self):
        two_low = [
            {"m": 1, "tau": 0.7, "s": 2.65},
            {"m": 1, "tau": 30.0, "s": 2.40},
            {"m": 19, "tau": 0.7, "s": 2.30},
        ]
        with pytest.raises(ValueError):
            calibrate_visibility(two_low, chi=CFG.chi, tau_ref=CFG.tau_ref)

    def test_growing_s_with_storage_rejected(self):
        growing = [
            {"m": 1, "tau": 0.7, "s": 2.65},
            {"m": 19, "tau": 0.7, "s": 2.30},
            {"m": 19, "tau": 30.0, "s": 2.50},
        ]
        with pytest.raises(ValueError):
            calibrate_visibility(growing, chi=CFG.chi, tau_ref=CFG.tau_ref)

    def test_gain_exceeding_one_rejected(self):
        # S growing with m would need a negative crosstalk slope
        inverted = [
            {"m": 1, "tau": 0.7, "s": 2.30},
            {"m": 19, "tau": 0.7, "s": 2.65},
            {"m": 19, "tau": 30.0, "s": 2.40},
        ]
        with pytest.raises(ValueError):
            calibrate_visibility(inverted, chi=CFG.chi, tau_ref=CFG.tau_ref)

    @pytest.mark.parametrize("m", [1.9, 19.0, True, "19", 0])
    def test_mode_count_must_be_a_whole_count(self, m):
        targets = [dict(target) for target in self.PUBLISHED]
        targets[0]["m"] = m
        with pytest.raises(ValueError, match="target mode count"):
            calibrate_visibility(targets, chi=CFG.chi, tau_ref=CFG.tau_ref)

    @pytest.mark.parametrize("key, value, name", [
        ("tau", math.nan, "target tau"), ("tau", math.inf, "target tau"),
        ("s", math.nan, "target S"), ("s", math.inf, "target S"),
    ])
    def test_non_finite_target_rejected_by_name(self, key, value, name):
        targets = [dict(target) for target in self.PUBLISHED]
        targets[2][key] = value
        with pytest.raises(ValueError, match=name):
            calibrate_visibility(targets, chi=CFG.chi, tau_ref=CFG.tau_ref)


def test_exact_table_rows_are_probabilities():
    table = exact_coincidence_table(bell_state(45.0), CANONICAL_BELL.setting_pairs())
    for row in table.counts:
        assert row[6] == 1
        assert float(np.sum(row[:4])) == pytest.approx(1.0, abs=1e-12)
