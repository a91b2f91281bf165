"""Small shared helpers used across the package."""
from __future__ import annotations

import math
import operator
import os
import tempfile
from typing import NamedTuple


class ProbabilityPair(NamedTuple):
    """Exact geometric-series value and its first-order (linear in the
    attempt count) form, reported as is: the linear form exceeds 1 where the
    approximation breaks down."""

    exact: float
    linear: float


def as_count(name: str, value, minimum: int = 1) -> int:
    """value as a plain int of at least minimum. Any non-bool integral value,
    numpy integers included, passes through operator.index; configs store the
    returned int, so their JSON output stays plain."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {count}")
    return count


def first_success_probability(p: float, n: int) -> float:
    """Probability that at least one of n independent attempts succeeds.

    Evaluates 1 - (1 - p)^n through expm1/log1p so very small per-attempt
    probabilities keep full relative precision. This one kernel backs the
    multiplexed herald probability, the multiplexed link probability and the
    feed-forward retry probability, which are the same geometric series.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"per-attempt probability must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"attempt count must be non-negative, got {n}")
    if n == 0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a partially written file and failed runs leave the old file intact."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
