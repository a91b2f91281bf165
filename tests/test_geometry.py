"""Write-beam fan geometry and phase matching residuals."""
import math
import re
import time

import numpy as np
import pytest

from swpemux.geometry import (
    BeamGeometry,
    anti_stokes_wavevector,
    fan_angles,
    pmc_residual,
    scan_geometry,
)


class TestWavevector:
    def test_frozen_example(self):
        k = anti_stokes_wavevector(2.0, 1.0, 0.0)
        assert k[0] == pytest.approx(-1.0004568681372956, rel=1e-14)
        assert k[1] == pytest.approx(0.017447090265217458, rel=1e-14)

    def test_matched_geometry_is_unit_length(self):
        # reading with the beam that wrote leaves a unit-length wavevector
        for angle in (-7.0, 0.0, 3.0, 12.5):
            assert pmc_residual(angle, angle, 0.0) < 1e-15


class TestResidual:
    def test_frozen_values(self):
        assert pmc_residual(2.0, 1.0, 0.0) == pytest.approx(6.089875479875495e-4, rel=1e-12)
        assert pmc_residual(10.0, -10.0, 0.0) == pytest.approx(0.05859093063760157, rel=1e-12)

    def test_collection_axis_write_beam_is_degenerate(self):
        # a write beam parallel to the collected Stokes mode phase-matches
        # every read beam, so it cannot carry an addressable mode
        for read_angle in (1.0, 3.0, -9.0):
            assert pmc_residual(0.0, read_angle, 0.0) == 0.0

    def test_mirror_symmetry(self):
        for a, b in [(2.0, 1.0), (10.0, -10.0), (5.5, 3.25)]:
            assert pmc_residual(a, b, 0.0) == pytest.approx(
                pmc_residual(-a, -b, 0.0), rel=1e-12
            )

    def test_small_angle_slope(self):
        # residual grows linearly in the write-beam offset with slope |sin b|
        b = 6.0
        eps_deg = 1e-4
        slope = pmc_residual(b + eps_deg, b, 0.0) / math.radians(eps_deg)
        assert slope == pytest.approx(abs(math.sin(math.radians(b))), rel=1e-2)


class TestFanAngles:
    def test_default_19_beam_fan(self):
        assert fan_angles(19) == (
            1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0, 5.0, -5.0,
            6.0, -6.0, 7.0, -7.0, 8.0, -8.0, 9.0, -9.0, 10.0,
        )

    def test_zero_is_never_used(self):
        for m in range(1, 25):
            angles = fan_angles(m)
            assert len(angles) == m
            assert 0.0 not in angles
            assert len(set(angles)) == m

    def test_spacing_scales(self):
        assert fan_angles(3, spacing_deg=0.5) == (0.5, -0.5, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fan_angles(0)
        with pytest.raises(ValueError):
            fan_angles(5, spacing_deg=0.0)

    @pytest.mark.parametrize("m, spacing", [(179, 1.0), (180, 1.0), (19, 9.5), (3, math.nan),
                                            (1, math.inf), (2.5, 45.0)])
    def test_fan_wider_than_the_half_plane_rejected(self, m, spacing):
        with pytest.raises(ValueError, match=re.escape("fan does not fit inside (-90, 90)")):
            fan_angles(m, spacing_deg=spacing)

    def test_widest_fitting_fan_is_built(self):
        assert fan_angles(178)[-2:] == (89.0, -89.0)
        assert fan_angles(2.5, spacing_deg=44.0) == (44.0, -44.0, 88.0)

    def test_oversized_fan_rejected_before_any_angle_is_built(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not fit"):
            fan_angles(10**12)
        assert time.perf_counter() - start < 0.1


class TestBeamGeometry:
    def test_m_property(self):
        geo = BeamGeometry(fan_angles(19))
        assert geo.m == 19

    def test_duplicate_angles_rejected(self):
        with pytest.raises(ValueError):
            BeamGeometry((1.0, 1.0, 2.0))

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(ValueError):
            BeamGeometry((95.0,))
        with pytest.raises(ValueError):
            BeamGeometry((1.0,), stokes_angle=90.0)


class TestScanGeometry:
    def test_default_fan_is_fully_addressable(self):
        scan = scan_geometry(BeamGeometry(fan_angles(19)))
        residuals = np.asarray(scan.residuals)
        assert residuals.shape == (19, 19)
        off_diagonal = residuals[~np.eye(19, dtype=bool)]
        assert np.all(np.diag(residuals) <= 1e-14)
        assert np.all(off_diagonal > scan.tolerance)
        assert off_diagonal.min() == pytest.approx(0.00030460968721757187, rel=1e-10)
        assert scan.cross_directional_pairs == ()
        assert scan.cross_directional_fraction == 0.0

    def test_directional_matrix_matches_tolerance(self):
        scan = scan_geometry(BeamGeometry(fan_angles(5)))
        directional = np.asarray(scan.directional)
        assert directional.dtype == bool
        assert np.array_equal(directional, np.asarray(scan.residuals) <= scan.tolerance)

    def test_collection_axis_beam_breaks_addressing(self):
        # a fan containing the 0 degree beam cross-phase-matches everything
        scan = scan_geometry(BeamGeometry((0.0, 1.0, -1.0)))
        assert scan.cross_directional_pairs != ()
        assert scan.cross_directional_fraction > 0.0

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-5])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            scan_geometry(BeamGeometry(fan_angles(3)), tolerance=tolerance)

    def test_mirrored_fan_preserves_residuals(self):
        angles = (1.0, -2.0, 4.5)
        mirrored = tuple(-a for a in angles)
        r = np.asarray(scan_geometry(BeamGeometry(angles)).residuals)
        r_m = np.asarray(scan_geometry(BeamGeometry(mirrored)).residuals)
        assert np.allclose(r, r_m, atol=1e-15)


def scan_by_residual(angles, stokes_angle):
    """The scan entry by entry through pmc_residual, the scalar reference."""
    return np.array([[pmc_residual(wk, rl, stokes_angle) for rl in angles] for wk in angles])


class TestScanAgainstScalarResidual:
    @pytest.mark.parametrize("spacing", [1.0, 0.37, 2.0])
    def test_canonical_fans_bitwise(self, spacing):
        for m in range(1, 41):
            angles = fan_angles(m, spacing)
            scan = scan_geometry(BeamGeometry(angles))
            assert scan.residuals.tobytes() == scan_by_residual(angles, 0.0).tobytes()

    def test_random_fans_with_stokes_angle_bitwise(self):
        rng = np.random.default_rng(20181)
        for _ in range(300):
            m = int(rng.integers(1, 41))
            angles = tuple(rng.uniform(-89.0, 89.0, size=m).tolist())
            stokes_angle = float(rng.uniform(-89.0, 89.0))
            assert len(set(angles)) == m and stokes_angle != 0.0
            geometry = BeamGeometry(angles, stokes_angle=stokes_angle)
            scan = scan_geometry(geometry, tolerance=0.05)
            expected = scan_by_residual(geometry.write_angles, stokes_angle)
            assert scan.residuals.tobytes() == expected.tobytes()
            assert scan.cross_directional_pairs == tuple(
                (k, l) for k in range(m) for l in range(m)
                if k != l and expected[k, l] <= 0.05
            )
