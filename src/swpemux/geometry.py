"""Retrieval beam geometry and the emission direction selection rule.

Wavevectors are expressed in units of the common optical wavenumber (the four
fields are nearly degenerate in frequency), in the plane spanned by the write
beam fan and the Stokes collection axis. Angles are measured from that axis
in degrees. The read beam addressing mode l propagates antiparallel to write
beam l, so both are described by the same fan angle.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .util import as_count, checked_record

# largest fan: scan_geometry builds (m, m) float arrays, 8 MB each at this size
MAX_BEAMS = 1024


class BeamGeometry(checked_record("BeamGeometry", "write_angles stokes_angle")):
    """The write-beam fan and the Stokes collection direction."""

    __slots__ = ()

    def __new__(cls, write_angles: Iterable[float], stokes_angle: float = 0.0):
        write_angles = tuple(float(a) for a in write_angles)
        if not write_angles:
            raise ValueError("geometry needs at least one write beam")
        if len(write_angles) > MAX_BEAMS:
            raise ValueError(f"geometry takes at most {MAX_BEAMS} write beams, got {len(write_angles)}")
        for angle in write_angles + (stokes_angle,):
            if not -90.0 < angle < 90.0:
                raise ValueError(f"beam angles must lie in (-90, 90) degrees, got {angle}")
        if len(set(write_angles)) != len(write_angles):
            raise ValueError("write angles must be pairwise distinct")
        return super().__new__(cls, write_angles, stokes_angle)

    @property
    def m(self) -> int:
        return len(self.write_angles)


def fan_angles(m: int, spacing_deg: float = 1.0) -> tuple:
    """Canonical symmetric write fan: spacing, -spacing, 2 spacing, ... with
    the axis angle 0 deliberately excluded.

    A write beam exactly along the Stokes collection axis satisfies the
    matching condition with every read beam (its row of the residual matrix
    is identically zero), so it cannot be part of a usable fan.
    """
    m = as_count("fan size", m)
    if spacing_deg <= 0.0:
        raise ValueError(f"fan spacing must be positive, got {spacing_deg}")
    # the widest angle, false for NaN or inf spacing; m is clamped so that
    # m / 2 stays a float, and a fan above MAX_BEAMS that fits fails below
    if not math.ceil(min(m, MAX_BEAMS + 1) / 2) * spacing_deg < 90.0:
        raise ValueError("fan does not fit inside (-90, 90) degrees")
    if m > MAX_BEAMS:
        raise ValueError(f"fan size must be at most {MAX_BEAMS} beams, got {m}")
    angles = []
    step = 1
    while len(angles) < m:
        angles.append(step * spacing_deg)
        if len(angles) < m:
            angles.append(-step * spacing_deg)
        step += 1
    return tuple(angles)


def pmc_residual(theta_wk: float, theta_rl: float, theta_s: float) -> float:
    """Distance of the anti-Stokes wavevector from the free-photon shell,
    | ||k_as|| - 1 |. Reading the spin wave written at theta_wk (heralded
    along theta_s) with the read beam antiparallel to the write beam at
    theta_rl selects k_as = (cos wk - cos rl - cos s, sin wk - sin rl - sin s)
    in units of the optical wavenumber; angles are in degrees. Zero means the
    retrieval is directional (phase matched); a nonzero residual suppresses
    the emission."""
    wk, rl, s = math.radians(theta_wk), math.radians(theta_rl), math.radians(theta_s)
    kx = math.cos(wk) - math.cos(rl) - math.cos(s)
    ky = math.sin(wk) - math.sin(rl) - math.sin(s)
    return abs(float(np.hypot(kx, ky)) - 1.0)


class ScanResult(NamedTuple):
    """Residual matrix over (written mode k, read beam l) and its
    classification against the directionality tolerance."""

    residuals: np.ndarray
    tolerance: float
    directional: np.ndarray
    cross_directional_pairs: tuple
    cross_directional_fraction: float


def scan_geometry(geometry: BeamGeometry, tolerance: float = 1e-5) -> ScanResult:
    """Residual matrix entry (k, l) = pmc_residual(theta_wk, theta_rl, theta_s).

    The matrix is one array expression over the fan: the cosine and sine of
    each write angle and of the Stokes angle are taken once, and k_as is
    (cos wk - cos rl - cos s, sin wk - sin rl - sin s) as in pmc_residual,
    in the same operation order, so every entry is bitwise equal to its
    pmc_residual.

    The diagonal (read the mode with its own antiparallel beam) is phase
    matched by construction. Off-diagonal entries should all be above the
    tolerance in a usable fan; any that are not (for example a write beam
    collinear with the Stokes axis, which is directional with every read
    beam) are surfaced in cross_directional_pairs rather than silently
    classified away.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    m = geometry.m
    radians = [math.radians(a) for a in geometry.write_angles]
    cos = np.array([math.cos(a) for a in radians])
    sin = np.array([math.sin(a) for a in radians])
    s = math.radians(geometry.stokes_angle)
    kx = cos[:, None] - cos[None, :] - math.cos(s)
    ky = sin[:, None] - sin[None, :] - math.sin(s)
    residuals = np.abs(np.hypot(kx, ky) - 1.0)
    directional = residuals <= tolerance
    off_diagonal = directional & ~np.eye(m, dtype=bool)
    cross_pairs = tuple(map(tuple, np.argwhere(off_diagonal).tolist()))
    cross_total = m * (m - 1)
    fraction = len(cross_pairs) / cross_total if cross_total else 0.0
    return ScanResult(
        residuals=residuals,
        tolerance=tolerance,
        directional=directional,
        cross_directional_pairs=cross_pairs,
        cross_directional_fraction=fraction,
    )
