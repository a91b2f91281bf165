"""Polarization states and analyzer settings for the photon pair.

Two-qubit operators put the Stokes (write photon, heralding) arm in the first
tensor factor and the anti-Stokes (read photon) arm in the second. The
computational basis order is fixed to (HH, HV, VH, VV); every 4x4 matrix in
the package uses it.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .util import checked_record

BASIS = ("HH", "HV", "VH", "VV")

KIND_LINEAR = "linear"
KIND_CIRCULAR = "circular"


def _format_angle(angle_deg: float) -> str:
    # repr keeps the shortest round-trip form, so tokens are stable bytes
    return repr(float(angle_deg))


class MeasurementSetting(checked_record("MeasurementSetting", "kind angle_deg transmit_hand")):
    """One polarization analyzer.

    Linear settings project the transmit port onto cos(a)|H> + sin(a)|V> with
    a in degrees. Circular settings send one handedness to the transmit port,
    with R = (|H> + i|V>)/sqrt(2) and L its conjugate.
    """

    __slots__ = ()

    def __new__(cls, kind: str, angle_deg: float = 0.0, transmit_hand: str = "R"):
        if kind not in (KIND_LINEAR, KIND_CIRCULAR):
            raise ValueError(f"unknown analyzer kind {kind!r}")
        if kind == KIND_LINEAR:
            if not math.isfinite(angle_deg) or not 0.0 <= angle_deg < 180.0:
                raise ValueError(
                    f"linear analyzer angle must lie in [0, 180) degrees, got {angle_deg}"
                )
        elif transmit_hand not in ("R", "L"):
            raise ValueError(f"circular transmit handedness must be 'R' or 'L', got {transmit_hand!r}")
        return super().__new__(cls, kind, angle_deg, transmit_hand)

    @staticmethod
    def linear(angle_deg: float) -> "MeasurementSetting":
        return MeasurementSetting(KIND_LINEAR, float(angle_deg))

    @staticmethod
    def circular_r() -> "MeasurementSetting":
        """R exits the transmit port, L the reflect port."""
        return MeasurementSetting(KIND_CIRCULAR, transmit_hand="R")

    @staticmethod
    def circular_l() -> "MeasurementSetting":
        return MeasurementSetting(KIND_CIRCULAR, transmit_hand="L")

    def token(self) -> str:
        """Compact text form used in CSV columns: the angle for linear
        settings, 'R' or 'L' for circular ones."""
        if self.kind == KIND_CIRCULAR:
            return self.transmit_hand
        return _format_angle(self.angle_deg)

    @staticmethod
    def from_token(token: str) -> "MeasurementSetting":
        token = token.strip()
        if token in ("R", "L"):
            return MeasurementSetting(KIND_CIRCULAR, transmit_hand=token)
        try:
            angle = float(token)
        except ValueError as exc:
            raise ValueError(f"cannot parse analyzer setting token {token!r}") from exc
        return MeasurementSetting.linear(angle)


def _port_kets(setting: MeasurementSetting) -> np.ndarray:
    """Kets of the transmit and reflect ports, as the rows of a 2x2 array."""
    if setting.kind == KIND_LINEAR:
        a = math.radians(setting.angle_deg)
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, s], [-s, c]], dtype=complex)
    r_ket = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    l_ket = r_ket.conj()
    return np.array([r_ket, l_ket] if setting.transmit_hand == "R" else [l_ket, r_ket])


def bell_state(theta_deg: float) -> np.ndarray:
    """Density matrix of cos(theta)|HH> + sin(theta)|VV>.

    theta is in degrees and must lie in [0, 90]; 45 gives the maximally
    entangled balanced state.
    """
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError(f"pair-state angle must lie in [0, 90] degrees, got {theta_deg}")
    th = math.radians(theta_deg)
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(th)
    psi[3] = math.sin(th)
    return np.outer(psi, psi.conj())


def werner_state(theta_deg: float, visibility: float) -> np.ndarray:
    """Pair state mixed with white noise: V rho_pair + (1 - V) I/4."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return visibility * bell_state(theta_deg) + (1.0 - visibility) * np.eye(4, dtype=complex) / 4.0


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# the floating-point state np.linalg's eigen-solvers run LAPACK under
_LAPACK_ERRSTATE = dict(
    call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)

def _eigh(h: np.ndarray) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of the complex Hermitian
    (..., M, M) array h, bitwise equal to np.linalg.eigh(h).

    Calls the LAPACK gufunc that np.linalg.eigh wraps, without the wrapper's
    argument checks, which cost about a quarter of a 4x4 solve; callers pass
    complex arrays with square trailing axes. The errstate is the one
    np.linalg sets: it turns LAPACK's non-convergence flag into LinAlgError
    and silences the gufunc's other floating-point warnings, so errors and
    warnings stay those of np.linalg.eigh.
    """
    with np.errstate(**_LAPACK_ERRSTATE):
        return _umath_linalg.eigh_lo(h, signature="D->dD")


# (dtype, shape, bytes) of the last array _hermitian_eigh solved, with its
# read-only eigenvalues and eigenvectors; replaced in one assignment, so a
# reader in another thread sees a whole old entry or a whole new one
_hermitian_memo = (None, None, b"", None, None)


def _hermitian_eigh(a: np.ndarray) -> tuple:
    """_eigh of the Hermitian part (a + a^H)/2 of the complex (..., M, M)
    array a, memoized on a before it is hermitized, so that fidelity on a
    matrix project_physical left unchanged neither hermitizes nor solves it
    again. A hit needs equal dtype, shape and bytes, never the same object;
    the returned arrays are read-only."""
    global _hermitian_memo
    memo = _hermitian_memo
    key = a.tobytes()
    if memo[2] == key and memo[1] == a.shape and memo[0] == a.dtype:
        return memo[3], memo[4]
    w, v = _eigh((a + a.conj().mT) / 2.0)
    w.flags.writeable = False
    v.flags.writeable = False
    _hermitian_memo = (a.dtype, a.shape, key, w, v)
    return w, v


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the complex Hermitian (..., M, M) array h,
    bitwise equal to np.linalg.eigvalsh(h); see _eigh for why the gufunc is
    called directly and why its errstate must stay. Not memoized, and never
    a stand-in for _eigh's eigenvalues: LAPACK's eigenvalues-only solve
    differs from _eigh's in the last bits."""
    with np.errstate(**_LAPACK_ERRSTATE):
        return _umath_linalg.eigvalsh_lo(h, signature="D->d")


_DENSITY_TOL = 1e-12  # validate_density's Hermiticity and trace tolerance
_DENSITY_EIG_TOL = 1e-10  # and how far below 0 an eigenvalue may lie


def validate_density(rho: np.ndarray) -> list:
    """Diagnostic check of the two-qubit density matrix invariants.

    Returns a list of human-readable violation strings, empty iff rho has
    shape (4, 4), is Hermitian with unit trace within 1e-12, and has no
    eigenvalue below -1e-10. Never raises: callers decide what a violation
    costs them.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        return [f"expected a 4x4 matrix, got shape {rho.shape}"]
    violations = []
    rho_c = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho_c.real)) or not np.all(np.isfinite(rho_c.imag)):
        return ["matrix contains non-finite entries"]
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect > _DENSITY_TOL:
        violations.append(f"not Hermitian (max asymmetry {herm_defect:.3e})")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > _DENSITY_TOL:
        violations.append(f"trace must be 1 within {_DENSITY_TOL}, got {trace}")
    eigenvalues = _eigvalsh((rho_c + rho_c.conj().T) / 2.0)
    if float(eigenvalues.min()) < -_DENSITY_EIG_TOL:
        violations.append(f"negative eigenvalue {eigenvalues.min():.3e}")
    return violations


def joint_probabilities(
    rho: np.ndarray, setting_s: MeasurementSetting, setting_a: MeasurementSetting
) -> np.ndarray:
    """Coincidence probabilities Tr[rho (P_i x Q_j)] = <a_i b_j| rho |a_i b_j>
    as a 2x2 array.

    Row index is the Stokes port (0 -> D1/transmit, 1 -> D2/reflect), column
    index the anti-Stokes port (0 -> T1, 1 -> T2). For a valid density matrix
    the four entries sum to 1 within numerical rounding. Entries are clipped
    at 0: rounding leaves about -1e-17 where a valid state gives exactly 0,
    and the samplers and estimators need non-negative probabilities.
    Not memoized: the samplers read the pure state's table through the
    engine's per-(theta, pair) memo.
    """
    rho = np.asarray(rho, dtype=complex)
    kets_s = _port_kets(setting_s)
    kets_a = _port_kets(setting_a)
    kets = (kets_s[:, None, :, None] * kets_a[None, :, None, :]).reshape(2, 2, 4)
    return np.maximum(np.einsum("ijk,kl,ijl->ij", kets.conj(), rho, kets).real, 0.0)

