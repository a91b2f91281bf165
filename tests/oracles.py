"""Exact references the tests hold the package against.

Each is written from the textbook formula, not from the package's fast
path: projector builds the analyzer ports from their kets, stokes_marginal
is the partial trace, and exact_coincidence_table fills a CoincidenceTable
with outcome probabilities instead of counts, which makes the estimators
exact (n_total 1), and enumerated_law sums the per-trial law over every
bin-by-bin click pattern of a short write train.
"""
import itertools
import math

import numpy as np

from swpemux.engine import CoincidenceTable
from swpemux.states import KIND_LINEAR, bell_state, joint_probabilities

TRANSMIT = "transmit"
REFLECT = "reflect"


def projector(setting, outcome: str) -> np.ndarray:
    """Rank-1 projector onto one analyzer port ("transmit" or "reflect").

    A linear analyzer at angle a transmits cos(a)|H> + sin(a)|V> and
    reflects -sin(a)|H> + cos(a)|V>; a circular one transmits its
    handedness, with R = (|H> + i|V>)/sqrt(2) and L its conjugate.
    """
    if outcome not in (TRANSMIT, REFLECT):
        raise ValueError(f"outcome must be {TRANSMIT!r} or {REFLECT!r}, got {outcome!r}")
    if setting.kind == KIND_LINEAR:
        a = math.radians(setting.angle_deg)
        c, s = math.cos(a), math.sin(a)
        ket = np.array([c, s] if outcome == TRANSMIT else [-s, c], dtype=complex)
    else:
        r_ket = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        transmits_r = setting.transmit_hand == "R"
        ket = r_ket if transmits_r == (outcome == TRANSMIT) else r_ket.conj()
    return np.outer(ket, ket.conj())


def stokes_marginal(rho: np.ndarray) -> np.ndarray:
    """Reduced state of the Stokes arm (partial trace over the anti-Stokes factor)."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("iaja->ij", r)


def exact_coincidence_table(rho: np.ndarray, pairs) -> CoincidenceTable:
    """CoincidenceTable holding exact outcome probabilities instead of
    counts, for feeding the estimators their noiseless limit (n_total 1)."""
    counts = np.ones((len(pairs), 7))
    for s, pair in enumerate(pairs):
        counts[s, :4] = joint_probabilities(rho, pair.stokes, pair.anti_stokes).ravel()
    np.add(counts[:, 0:4:2], counts[:, 1:4:2], out=counts[:, 4:6])
    return CoincidenceTable(pairs, counts)


def enumerated_law(config, tau: float, pair) -> tuple:
    """(p_herald, cells, bins) of one write train, summed over all 8^m
    bin-by-bin click patterns; keep m small (m = 4 is 4,096 patterns).

    Each bin independently has a real click (chi eta_d), a dark count on D1
    and a dark count on D2 (dark_rate each). The first bin with any click
    heralds. A real click in it wins over a dark one: the pair lands on
    (D_i, T_j) of the Werner table, projector-built, when it reads out (gamma
    eta_as) and on D_i alone when it does not. A dark herald fires the
    detector that saw the dark count, a fair coin when both did, and reads
    out an unpolarized background click with probability
    min(1, dark_rate + beta (m - 1) chi gamma eta_as). cells is P(cell |
    herald) over {real, dark} x {D1, D2} x {T1, T2, no click} and bins is
    P(herald in bin k | herald), like one pair's row of engine._batch_law.
    """
    q, d, m = config.chi * config.eta_d, config.dark_rate, config.m
    v = config.v1 / (1.0 + config.beta * (m - 1) * config.chi)
    v = min(1.0, v * math.exp(-(tau - config.tau_ref) / config.tau_c))
    rho = v * bell_state(config.theta) + (1.0 - v) * np.eye(4) / 4.0
    table = np.array([[np.trace(rho @ np.kron(projector(pair.stokes, i),
                                               projector(pair.anti_stokes, j))).real
                       for j in (TRANSMIT, REFLECT)] for i in (TRANSMIT, REFLECT)])
    p_read = config.gamma * config.eta_as
    p_background = min(1.0, d + config.beta * (m - 1) * config.chi * p_read)

    # a bin's pattern (real click, dark D1, dark D2) and its probability
    patterns = list(itertools.product((False, True), repeat=3))
    weight = {pattern: math.prod(p if hit else 1.0 - p for hit, p in zip(pattern, (q, d, d)))
              for pattern in patterns}
    real, dark = [], ([], [])
    bins = [[] for _ in range(m)]
    for train in itertools.product(patterns, repeat=m):
        first = next((k for k, pattern in enumerate(train) if any(pattern)), None)
        if first is None:
            continue
        probability = math.prod(weight[pattern] for pattern in train)
        bins[first].append(probability)
        is_real, dark_1, dark_2 = train[first]
        if is_real:
            real.append(probability)
        else:
            for detector, fired in enumerate((dark_1, dark_2)):
                if fired:
                    dark[detector].append(probability / (dark_1 + dark_2))

    cells = np.empty((2, 2, 3))
    cells[0, :, :2] = math.fsum(real) * p_read * table
    cells[0, :, 2] = math.fsum(real) * (1.0 - p_read) * table.sum(axis=1)
    for detector in (0, 1):
        cells[1, detector] = math.fsum(dark[detector]) * np.array(
            [0.5 * p_background, 0.5 * p_background, 1.0 - p_background])
    bins = np.array([math.fsum(probabilities) for probabilities in bins])
    p_herald = math.fsum(bins)
    return p_herald, cells / p_herald, bins / p_herald
