"""Bell-test statistics, two-qubit tomography and decay fitting.

Everything here consumes the coincidence count tables produced by the trial
engine (or read back from its CSV files) and returns plain numbers or small
records, reading a table's count array by position. Counts may be floats:
feeding exact probabilities instead of integer counts makes the estimators
exact, which the tests use as an oracle.
"""
from __future__ import annotations

import functools
import math
import warnings
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .engine import CoincidenceTable, SettingPair
from .states import MeasurementSetting, _eigvalsh, _hermitian_eigh, joint_probabilities
from .util import as_count, as_number

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Pauli-like observables of the three tomography bases, in the fixed order
# (H/V, D/A, R/L). Index 0 below is the identity.
_SIGMA = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
], dtype=complex)

# sigma_j x sigma_k at index 4 j + k, the fixed linear map of the inversion:
# the np.kron products, built in one broadcast (16 krons take about 0.4 ms)
_PAULI_PRODUCTS = (
    _SIGMA[:, None, :, None, :, None] * _SIGMA[None, :, None, :, None, :]
).reshape(16, 4, 4)

# signs of the (D1T1, D1T2, D2T1, D2T2) frequencies in the two-qubit
# correlator, the Stokes-arm term and the anti-Stokes-arm term, and each
# term's divisor: a single-arm term averages the three rows measuring it
_TERM_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
_TERM_WEIGHTS = np.array([1.0, 3.0, 3.0])
_FLOOR_SCALE = 64.0 * np.finfo(float).eps  # fidelity's relative eigenvalue floor

TOMOGRAPHY_BASES = (
    MeasurementSetting.linear(0.0),    # H/V, observable diag(1, -1)
    MeasurementSetting.linear(45.0),   # D/A
    MeasurementSetting.circular_r(),   # R/L
)
_BASIS_INDEX = {basis: index for index, basis in enumerate(TOMOGRAPHY_BASES)}


class BellSettings(NamedTuple):
    """The four analyzer angles of a CHSH measurement, in degrees.

    Defaults are the canonical set: the unprimed/primed Stokes angles and the
    anti-Stokes angles offset by 22.5 degrees.
    """

    theta_s: float = 0.0
    theta_s_prime: float = 45.0
    theta_a: float = 22.5
    theta_a_prime: float = 67.5

    @functools.lru_cache(maxsize=64)
    def setting_pairs(self) -> tuple:
        """The four (Stokes, anti-Stokes) combinations in the fixed order
        (s,a), (s,a'), (s',a), (s',a'); memoized, as the tuple is immutable."""
        s = MeasurementSetting.linear(self.theta_s)
        sp = MeasurementSetting.linear(self.theta_s_prime)
        a = MeasurementSetting.linear(self.theta_a)
        ap = MeasurementSetting.linear(self.theta_a_prime)
        return (
            SettingPair(s, a),
            SettingPair(s, ap),
            SettingPair(sp, a),
            SettingPair(sp, ap),
        )


CANONICAL_BELL = BellSettings()


def _row_correlations(rows: list) -> list:
    """E = (C11 + C22 - C12 - C21) / N and its binomial standard error
    sqrt((1 - E^2) / N) of each row of four counts, on Python floats. The
    sums add left to right, as np.add.reduce does over four entries, so both
    are bitwise the array formulas. NaN propagates, and hides no negative."""
    if any(c < 0 for row in rows for c in row):  # before any row's zero total
        raise ValueError("coincidence counts must be non-negative")
    correlations = []
    for c11, c12, c21, c22 in rows:
        total = c11 + c12 + c21 + c22
        if total <= 0:
            raise ValueError("cannot estimate a correlation from zero coincidences")
        value = (c11 + c22 - c12 - c21) / total
        # max keeps a NaN first argument, as np.maximum(0.0, NaN) gives NaN
        correlations.append((value, math.sqrt(max((1.0 - value * value) / total, 0.0))))
    return correlations


def correlation_e(source) -> tuple:
    """Polarization correlation E and its binomial standard error.

    Accepts four counts, 2x2 or flat, ordered (D1T1, D1T2, D2T1, D2T2),
    such as table.counts[s, :4]. E = (C11 + C22 - C12 - C21) / N.
    """
    counts = np.asarray(source, dtype=float)
    if counts.shape not in ((4,), (2, 2)):
        raise ValueError(f"expected 4 coincidence counts, got shape {counts.shape}")
    return _row_correlations([counts.ravel().tolist()])[0]


def _chsh(table: CoincidenceTable, settings: BellSettings) -> tuple:
    """S, its error and the (E, error) pairs of settings' four rows."""
    positions = table.positions(settings.setting_pairs())
    e = _row_correlations(np.asarray(table.counts[positions, :4], dtype=float).tolist())
    return e[0][0] - e[1][0] + e[2][0] + e[3][0], math.sqrt(sum(v ** 2 for _, v in e)), e


def bell_s(table: CoincidenceTable, settings: BellSettings = CANONICAL_BELL) -> tuple:
    """CHSH value S = E(s,a) - E(s,a') + E(s',a) + E(s',a') and its error.

    The table must contain one row for each of the four setting pairs, found
    once per pair tuple; errors add in quadrature. The sign convention keeps
    the canonical angles on the positive branch, so the quantum bound is
    +2 sqrt 2.
    """
    return _chsh(table, settings)[:2]


@functools.cache
def tomography_setting_pairs() -> tuple:
    """The nine analyzer pairs of the overcomplete-free tomography scan,
    row-major over (H/V, D/A, R/L) x (H/V, D/A, R/L); built once and shared."""
    return tuple(
        SettingPair(s, a) for s in TOMOGRAPHY_BASES for a in TOMOGRAPHY_BASES
    )


@functools.lru_cache(maxsize=64)
def _tomography_cells(pairs: tuple) -> np.ndarray:
    """Pauli index of each term of each pair, with j and k its Stokes and
    anti-Stokes bases: the two-arm cells 4 j + k in row order, then the
    Stokes-arm cells 4 j, then the anti-Stokes-arm cells k. Read-only; a
    setting outside the bases or a repeated basis pair is a ValueError.
    Memoized."""
    cells = []
    for pair in pairs:
        for setting in (pair.stokes, pair.anti_stokes):
            if setting not in _BASIS_INDEX:
                raise ValueError(f"setting {setting.token()!r} is not one of the tomography "
                                 "bases (linear 0, linear 45, circular R)")
        cell = (_BASIS_INDEX[pair.stokes], _BASIS_INDEX[pair.anti_stokes])
        if cell in cells:
            raise ValueError(f"duplicate tomography row for pair {pair.tokens()}")
        cells.append(cell)
    j, k = np.array(cells, dtype=int).reshape(-1, 2).T + 1
    indices = np.concatenate([4 * j + k, 4 * j, k])
    indices.flags.writeable = False
    return indices


def tomo_reconstruct(table: CoincidenceTable) -> np.ndarray:
    """Linear-inversion density matrix from the nine-basis coincidence scan.

    The rows' normalized counts form one (9, 4) array whose (9,)-vector
    reductions give the two-qubit correlators and the single-arm terms,
    averaged over the three partner bases measuring them. On exact
    probabilities the inversion is exact. The result is Hermitian with unit
    trace but may have small negative eigenvalues on finite counts; follow
    with project_physical before computing fidelities.
    """
    cells = _tomography_cells(table.pairs)
    counts = np.asarray(table.counts[:, :4], dtype=float)
    # fmin skips NaN, so NaN hides no negative; an empty table is missing 9 pairs
    if counts.size and np.fmin.reduce(counts, axis=None) < 0:
        raise ValueError("coincidence counts must be non-negative")
    totals = np.add.reduce(counts, axis=1)
    if totals.size and np.fmin.reduce(totals) <= 0:
        empty = table.pairs[int((totals <= 0).argmax())]
        raise ValueError(f"tomography row {empty.tokens()} has zero coincidences")
    if len(table.pairs) < 9:
        raise ValueError(f"tomography scan is missing {9 - len(table.pairs)} basis pairs")

    p = counts / totals[:, None]
    terms = np.add.reduce(p[:, None, :] * _TERM_SIGNS, axis=2)  # a column per sign row
    # bincount adds a single-arm term's three rows in row order
    correlators = np.bincount(cells, weights=(terms / _TERM_WEIGHTS).T.ravel(), minlength=16)
    correlators[0] = 1.0

    # the sum over the first axis adds the terms in order, term (0, 0) first
    rho = np.add.reduce(correlators[:, None, None] * _PAULI_PRODUCTS, axis=0)
    return rho / 4.0


def project_physical(rho: np.ndarray) -> np.ndarray:
    """Nearest-physical cleanup of a Hermitian unit-trace matrix.

    Eigendecomposes, then repeatedly zeroes the most negative eigenvalue and
    spreads its (negative) weight uniformly over the strictly positive ones
    until none is negative; the trace is conserved at every step. Already
    physical input is returned unchanged. The map is idempotent.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    eigenvalues, vectors = _hermitian_eigh(rho)
    # a reduction, never an end of the array: eigh leaves NaN input unsorted
    if np.minimum.reduce(eigenvalues) >= -1e-14:
        return rho.copy()
    w = eigenvalues.copy()
    while (w < 0.0).any():
        worst = int(np.argmin(w))
        deficit = w[worst]
        w[worst] = 0.0
        positive = w > 0.0
        if not positive.any():
            raise ValueError("matrix has no positive spectral weight to redistribute")
        w[positive] += deficit / positive.sum()
    projected = (vectors * w) @ vectors.conj().T
    total = float(np.trace(projected).real)
    if total <= 0.0:
        raise ValueError("projected matrix has non-positive trace")
    return projected / total


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments and equal to <psi|rho|psi> when sigma is the
    pure state |psi><psi|. Tiny negative eigenvalues from rounding are
    clipped; the result is clamped to [0, 1].
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.ndim != 2 or rho.shape != sigma.shape or rho.shape[0] != rho.shape[1] or not rho.size:
        raise ValueError(
            f"fidelity needs two square matrices of equal shape, got {rho.shape} and {sigma.shape}"
        )
    w, v = _hermitian_eigh(rho)
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    inner_eigs = _eigvalsh((inner + inner.conj().T) / 2.0).tolist()
    # rounding noise near 0 would contribute sqrt(eps) ~ 1e-8 per eigenvalue;
    # a relative floor keeps rank-deficient (pure) inputs exact. A NaN passes the
    # floor, so it propagates; the sum adds left to right, as np.add.reduce does
    # below eight entries.
    floor = _FLOOR_SCALE * max(0.0, *inner_eigs)
    value = sum(0.0 if x < floor else math.sqrt(x) for x in inner_eigs) ** 2
    return min(max(value, 0.0), 1.0)


class DecayFit(NamedTuple):
    """Result of the exponential CHSH decay fit.

    tau_c is the fitted coherence time (microseconds, +inf when the data do
    not decay), v_ref the fitted visibility at tau_ref, lifetime_chsh the
    storage time where S crosses 2, and covariance the 2x2 covariance of the
    fitted (ln v_ref, 1/tau_c) parameters.
    """

    tau_c: float
    v_ref: float
    lifetime_chsh: float
    covariance: np.ndarray
    tau_ref: float

    def to_dict(self) -> dict:
        return {
            "tau_c": self.tau_c,
            "v_ref": self.v_ref,
            "lifetime_chsh": self.lifetime_chsh,
            "tau_ref": self.tau_ref,
            "covariance": [[float(v) for v in row] for row in np.asarray(self.covariance)],
        }


def fit_decay(points: Iterable, tau_ref: Optional[float] = None) -> DecayFit:
    """Weighted least squares fit of S(tau) = 2 sqrt 2 v_ref exp(-(tau - tau_ref)/tau_c).

    points is an iterable of (tau, S) or (tau, S, S_error) tuples, all with or
    all without errors; the fit runs on ln S, so errors propagate as
    S_error/S. Two points determine the model exactly (the fit degenerates to
    interpolation and the covariance is zero). Data at or above the quantum
    bound, or that do not decay, produce a warning rather than a failure; a
    non-decaying fit pins tau_c to +inf. A NaN or infinite tau, S, S_error
    or tau_ref is a ValueError that names it, and so is a finite tau_ref so
    far from the storage times that the normal matrix, the solution or the
    covariance is not finite.
    """
    data = [tuple(p) for p in points]
    if len(data) < 2:
        raise ValueError("fit_decay needs at least two points")
    lengths = {len(p) for p in data}
    if not lengths <= {2, 3}:
        raise ValueError("points must be (tau, S) or (tau, S, S_error) tuples")
    if len(lengths) > 1:
        raise ValueError("either all points carry errors or none do")
    with_errors = lengths == {3}
    taus = np.array([p[0] for p in data], dtype=float)
    s_values = np.array([p[1] for p in data], dtype=float)
    errors = np.array([p[2] for p in data], dtype=float) if with_errors else None
    for name, values in (("storage times", taus), ("S values", s_values), ("S errors", errors)):
        if values is not None and not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got {values.tolist()}")
    if len(set(taus.tolist())) < 2:
        raise ValueError("fit_decay needs at least two distinct storage times")
    if np.any(s_values <= 0):
        raise ValueError("S values must be positive to fit in log space")
    if np.any(s_values >= TSIRELSON_BOUND):
        warnings.warn(
            "S value at or above the quantum bound 2*sqrt(2); the fitted visibility "
            "will not be meaningful",
            stacklevel=2,
        )
    if with_errors:
        if np.any(errors <= 0):
            raise ValueError("S errors must be positive")
        weights = (s_values / errors) ** 2
    else:
        weights = np.ones_like(s_values)

    if tau_ref is None:
        tau_ref = float(taus.min())
    elif not math.isfinite(tau_ref):
        raise ValueError(f"tau_ref must be finite, got {tau_ref}")
    y = np.log(s_values / TSIRELSON_BOUND)
    # parameters: y = a - b (tau - tau_ref) with a = ln v_ref, b = 1/tau_c
    design = np.column_stack([np.ones_like(taus), -(taus - tau_ref)])
    too_far = f"tau_ref = {tau_ref} is too far from the storage times for a finite decay fit"
    with np.errstate(over="ignore", invalid="ignore"):
        normal = design.T @ (weights[:, None] * design)
        rhs = design.T @ (weights * y)
    if not np.all(np.isfinite(normal)):
        raise ValueError(too_far)
    try:
        a, b = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("decay fit is singular (degenerate storage times)") from exc

    covariance = np.linalg.inv(normal)
    if not with_errors:
        dof = len(data) - 2
        if dof > 0:
            residuals = y - design @ np.array([a, b])
            covariance = covariance * float((weights * residuals**2).sum() / dof)
        else:
            covariance = np.zeros((2, 2))
    if not (math.isfinite(a) and math.isfinite(b) and np.all(np.isfinite(covariance))):
        raise ValueError(too_far)

    v_ref = float(math.exp(a))
    if b <= 0.0:
        warnings.warn(
            "fitted S does not decay with storage time; coherence time pinned to +inf",
            stacklevel=2,
        )
        tau_c = math.inf
    else:
        tau_c = 1.0 / float(b)

    s_ref = TSIRELSON_BOUND * v_ref
    if math.isinf(tau_c):
        lifetime = math.inf if s_ref > 2.0 else 0.0
    else:
        lifetime = tau_ref + tau_c * math.log(s_ref / 2.0)
    return DecayFit(
        tau_c=tau_c,
        v_ref=v_ref,
        lifetime_chsh=float(lifetime),
        covariance=covariance,
        tau_ref=float(tau_ref),
    )


def calibrate_visibility(
    targets: Sequence[Mapping], *, chi: float, tau_ref: float
) -> dict:
    """Invert the visibility model against three CHSH targets.

    targets is a sequence of three {"m":..., "tau":..., "s":...} mappings:
    two must share the same storage time at different mode counts (they fix
    the cross-mode coefficient beta) and two must share the larger mode count
    at different storage times (they fix tau_c). Each m must be an integer
    of at least 1; a fractional one is a ValueError, never truncated, and
    tau and s must be numbers, not bools or strings. Returns a
    configuration patch {"v1":..., "beta":..., "tau_c":...}.

    Equal target values degrade gracefully (beta = 0, tau_c = +inf); targets
    that increase with m or with tau are rejected because the model cannot
    produce them.
    """
    if len(targets) != 3:
        raise ValueError("calibration needs exactly three targets")
    parsed = []
    for entry in targets:
        if not isinstance(entry, Mapping):
            raise ValueError(f"calibration target must be an object, got {entry!r}")
        missing = {"m", "tau", "s"} - set(entry)
        if missing:
            raise ValueError(f"calibration target is missing keys: {sorted(missing)}")
        m = as_count("target mode count", entry["m"])
        tau, s = as_number("target tau", entry["tau"]), as_number("target S", entry["s"])
        if not math.isfinite(tau):
            raise ValueError(f"target tau must be finite, got {tau}")
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"target S must be finite and positive, got {s}")
        parsed.append((m, tau, s))

    mode_counts = sorted({m for m, _, _ in parsed})
    if len(mode_counts) != 2:
        raise ValueError("targets must cover exactly two mode counts")
    m_lo, m_hi = mode_counts
    lo_points = [p for p in parsed if p[0] == m_lo]
    hi_points = [p for p in parsed if p[0] == m_hi]
    if len(lo_points) != 1 or len(hi_points) != 2:
        raise ValueError(
            "targets must be one point at the low mode count and two at the high one"
        )
    (_, tau_a, s_a) = lo_points[0]
    hi_points.sort(key=lambda p: abs(p[1] - tau_a))
    (_, tau_b, s_b), (_, tau_d, s_d) = hi_points
    if tau_b != tau_a:
        raise ValueError(
            "one high-mode-count target must share the low-mode-count storage time"
        )
    if tau_d == tau_a:
        raise ValueError("the remaining target must use a different storage time")

    # decay leg: same m, two storage times
    if s_d > s_b:
        raise ValueError("target S increases with storage time; the model only decays")
    tau_c = math.inf if s_d == s_b else (tau_d - tau_b) / math.log(s_b / s_d)

    # multiplexing leg: same tau, two mode counts
    if s_a < s_b:
        raise ValueError("target S increases with mode count; the model only degrades")
    ratio = s_a / s_b
    denominator = chi * ((m_hi - 1) - ratio * (m_lo - 1))
    if denominator <= 0:
        raise ValueError("targets are inconsistent with the saturating visibility model")
    beta = (ratio - 1.0) / denominator

    decay_back = math.exp((tau_a - tau_ref) / tau_c) if not math.isinf(tau_c) else 1.0
    v1 = s_a / TSIRELSON_BOUND * (1.0 + beta * (m_lo - 1) * chi) * decay_back
    if v1 > 1.0:
        if v1 > 1.0 + 1e-6:
            warnings.warn(
                f"calibrated v1 = {v1:.6f} exceeds 1; clamping to the physical bound",
                stacklevel=2,
            )
        v1 = 1.0
    return {"v1": float(v1), "beta": float(beta), "tau_c": float(tau_c)}


def analytic_correlation(rho: np.ndarray, pair: SettingPair) -> float:
    """Exact correlation E = Tr[rho (A x B)] for one analyzer pair, through
    the same port probabilities the counting estimator sees."""
    p = joint_probabilities(rho, pair.stokes, pair.anti_stokes)
    return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])


def analytic_bell_s(rho: np.ndarray, settings: BellSettings = CANONICAL_BELL) -> float:
    """Exact CHSH value of a state at the given angles."""
    pairs = settings.setting_pairs()
    values = [analytic_correlation(rho, pair) for pair in pairs]
    return values[0] - values[1] + values[2] + values[3]

