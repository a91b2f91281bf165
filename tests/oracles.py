"""Exact references the tests hold the package against.

Each is written from the textbook formula, not from the package's fast
path: projector builds the analyzer ports from their kets, stokes_marginal
is the partial trace, and exact_coincidence_table fills a CoincidenceTable
with outcome probabilities instead of counts, which makes the estimators
exact (n_total 1).
"""
import math

import numpy as np

from swpemux.engine import CoincidenceTable
from swpemux.states import KIND_LINEAR, joint_probabilities

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
