"""Polarization states, analyzer settings and projectors."""
import pickle

import numpy as np
import pytest

from swpemux.states import (
    BASIS,
    MeasurementSetting,
    bell_state,
    joint_probabilities,
    validate_density,
    werner_state,
)

from oracles import projector, stokes_marginal


def test_basis_order():
    assert BASIS == ("HH", "HV", "VH", "VV")


def test_basis_swap_round_trips():
    # Reordering to anti-Stokes-first and back must be the identity.
    swap = [BASIS.index(label[::-1]) for label in BASIS]
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    swapped = rho[np.ix_(swap, swap)]
    assert not np.array_equal(swapped, rho)
    assert np.array_equal(swapped[np.ix_(swap, swap)], rho)


class TestMeasurementSetting:
    def test_linear_token_round_trip(self):
        for angle in (0.0, 22.5, 45.0, 67.5, 90.0, 179.0):
            setting = MeasurementSetting.linear(angle)
            assert MeasurementSetting.from_token(setting.token()) == setting

    def test_circular_tokens(self):
        assert MeasurementSetting.circular_r().token() == "R"
        assert MeasurementSetting.circular_l().token() == "L"
        assert MeasurementSetting.from_token("R") == MeasurementSetting.circular_r()
        assert MeasurementSetting.from_token("L") == MeasurementSetting.circular_l()

    def test_linear_angle_range(self):
        with pytest.raises(ValueError):
            MeasurementSetting.linear(-1.0)
        with pytest.raises(ValueError):
            MeasurementSetting.linear(180.0)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            MeasurementSetting.from_token("Q")

    def test_hash_and_eq_are_the_generated_ones(self):
        settings = [MeasurementSetting.linear(a) for a in (0.0, -0.0, 22.5, 179.5)]
        settings += [MeasurementSetting.circular_r(), MeasurementSetting.circular_l()]

        def fields(setting):
            return (setting.kind, setting.angle_deg, setting.transmit_hand)

        for a in settings:
            assert hash(a) == hash(fields(a))
            for b in settings:
                assert (a == b) == (fields(a) == fields(b))
            # the stored hash of a str field differs between processes, so
            # a pickle must rebuild it rather than carry it
            assert b"_hash" not in pickle.dumps(a)
            copy = pickle.loads(pickle.dumps(a))
            assert copy == a and hash(copy) == hash(a)


class TestProjector:
    @pytest.mark.parametrize(
        "setting",
        [
            MeasurementSetting.linear(0.0),
            MeasurementSetting.linear(22.5),
            MeasurementSetting.linear(67.5),
            MeasurementSetting.circular_r(),
        ],
    )
    def test_completeness_and_orthogonality(self, setting):
        t = projector(setting, "transmit")
        r = projector(setting, "reflect")
        assert np.max(np.abs(t + r - np.eye(2))) <= 1e-15
        assert np.allclose(t @ t, t, atol=1e-14)
        assert np.allclose(t @ r, 0.0, atol=1e-14)

    def test_linear_zero_is_h(self):
        t = projector(MeasurementSetting.linear(0.0), "transmit")
        assert np.allclose(t, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_circular_handedness(self):
        t = projector(MeasurementSetting.circular_r(), "transmit")
        ket = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert np.allclose(t, np.outer(ket, ket.conj()), atol=1e-15)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            projector(MeasurementSetting.linear(0.0), "X")


class TestBellState:
    def test_balanced(self):
        rho = bell_state(45.0)
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(rho, np.outer(ket, ket.conj()), atol=1e-15)

    def test_unbalanced_entries(self):
        rho = bell_state(30.0)
        assert rho[0, 0].real == pytest.approx(0.75, abs=1e-12)
        assert rho[0, 3].real == pytest.approx(0.4330127018922193, abs=1e-12)
        assert rho[3, 3].real == pytest.approx(0.25, abs=1e-12)
        assert rho[1, 1] == 0.0 and rho[2, 2] == 0.0

    @pytest.mark.parametrize("theta", [0.0, 13.7, 30.0, 45.0, 67.5, 90.0])
    def test_pure_for_every_angle(self, theta):
        rho = bell_state(theta)
        assert abs(np.trace(rho @ rho) - 1.0) <= 1e-12

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            bell_state(-1.0)
        with pytest.raises(ValueError):
            bell_state(90.5)


class TestWernerState:
    def test_limits(self):
        assert np.allclose(werner_state(45.0, 1.0), bell_state(45.0), atol=1e-15)
        assert np.allclose(werner_state(45.0, 0.0), np.eye(4) / 4.0, atol=1e-15)

    def test_mixture_entries(self):
        rho = werner_state(45.0, 0.8)
        assert rho[0, 0].real == pytest.approx(0.45, abs=1e-12)
        assert rho[1, 1].real == pytest.approx(0.05, abs=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    def test_visibility_validation(self):
        with pytest.raises(ValueError):
            werner_state(45.0, -0.1)
        with pytest.raises(ValueError):
            werner_state(45.0, 1.1)


class TestValidateDensity:
    def test_physical_states_have_no_violations(self):
        assert validate_density(werner_state(45.0, 0.8)) == []
        assert validate_density(bell_state(10.0)) == []

    def test_every_werner_mixture_is_valid(self):
        for theta in (0.0, 22.5, 45.0, 77.0, 90.0):
            for v in (0.0, 0.3, 1.0):
                assert validate_density(werner_state(theta, v)) == []

    def test_reports_bad_trace(self):
        violations = validate_density(2.0 * bell_state(45.0))
        assert any("trace" in v for v in violations)

    def test_reports_non_hermitian(self):
        rho = bell_state(45.0).astype(complex)
        rho[0, 1] = 0.3
        assert any("Hermitian" in v for v in validate_density(rho))

    def test_reports_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        assert any("eigenvalue" in v for v in validate_density(rho))

    def test_reports_wrong_shape(self):
        violations = validate_density(np.eye(2) / 2.0)
        assert violations and "shape" in violations[0]


class TestJointProbabilities:
    def test_balanced_state_hv(self):
        p = joint_probabilities(
            bell_state(45.0), MeasurementSetting.linear(0.0), MeasurementSetting.linear(0.0)
        )
        assert np.allclose(p, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_rows_are_stokes_port(self):
        # perfectly correlated state, Stokes arm rotated to transmit everything
        p = joint_probabilities(
            bell_state(0.0), MeasurementSetting.linear(0.0), MeasurementSetting.linear(90.0)
        )
        # bell_state(0) is |HH>; Stokes always transmits at 0, anti-Stokes reflects at 90
        assert p[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_normalization_random_settings(self):
        rho = werner_state(30.0, 0.7)
        for angle_s in (0.0, 37.0, 111.0):
            for setting_a in (MeasurementSetting.linear(58.0), MeasurementSetting.circular_r()):
                p = joint_probabilities(rho, MeasurementSetting.linear(angle_s), setting_a)
                assert p.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(p >= -1e-15)

    def test_circular_on_balanced_bell(self):
        # (|HH>+|VV>)/sqrt(2) anticorrelates circular polarizations
        p = joint_probabilities(
            bell_state(45.0), MeasurementSetting.circular_r(), MeasurementSetting.circular_r()
        )
        assert p[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert p[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_matches_trace_of_projector_products(self):
        # reference: Tr[rho (P_i x Q_j)] from Kronecker products of projectors
        def trace_formula(rho, setting_s, setting_a):
            ports = ("transmit", "reflect")
            return np.array([
                [np.trace(rho @ np.kron(projector(setting_s, i), projector(setting_a, j))).real
                 for j in ports]
                for i in ports
            ])

        rng = np.random.default_rng(1200)
        settings = [MeasurementSetting.linear(a) for a in (0.0, 22.5, 45.0, 67.5, 111.0, 179.9)]
        settings += [MeasurementSetting.circular_r(), MeasurementSetting.circular_l()]
        for _ in range(300):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            setting_s, setting_a = (settings[k] for k in rng.integers(len(settings), size=2))
            expected = trace_formula(rho, setting_s, setting_a)
            assert np.max(np.abs(joint_probabilities(rho, setting_s, setting_a) - expected)) < 1e-14


def test_stokes_marginal_of_bell_states():
    for theta in (45.0, 30.0):
        marginal = stokes_marginal(bell_state(theta))
        c2 = np.cos(np.radians(theta)) ** 2
        assert np.allclose(marginal, np.diag([c2, 1.0 - c2]), atol=1e-14)

