"""Small shared helpers used across the package, including the base of the
checked records, the JSON text (json.dumps with indent=2 and sorted keys),
the atomic write (os calls) of every output file and the read of every input
file."""
from __future__ import annotations

import collections
import contextlib
import json
import math
import operator
import os
from typing import NamedTuple


class ProbabilityPair(NamedTuple):
    """Exact geometric-series value and its first-order (linear in the
    attempt count) form, reported as is: the linear form exceeds 1 where the
    approximation breaks down."""

    exact: float
    linear: float


def checked_record(typename: str, field_names: str) -> type:
    """Base of a record type whose __new__ checks its fields: a namedtuple
    whose _make, and so _replace, builds through that __new__, as copy and
    unpickling already do. Subclasses declare __slots__ = ()."""
    base = collections.namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


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


def as_number(name: str, value) -> float:
    """value as a float if it is a JSON number (an int or a float). A bool is
    refused by name, as is a string or null: float() would read true as 1.0."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
    """Write text to path as UTF-8 via a fresh .tmp.<random>~ file (mode 0o600)
    beside it and a rename, so readers never see a partially written file and
    failed runs leave the old file intact. An OSError names path, not the
    temporary file."""
    data = text.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    flags = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
             | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_CLOEXEC", 0))
    try:
        while True:
            tmp_path = os.path.join(directory, f".tmp.{os.urandom(4).hex()}~")
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp_path, flags, 0o600)
                break
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def read_text(path: str) -> str:
    """The UTF-8 text of path, read with os calls as atomic_write_text writes
    it. CRLF and a lone CR read as LF, as in text mode, so a JSON error names
    the same line, column and character."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_CLOEXEC", 0))
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        exc.filename = path  # os.read names no file, open() would
        raise
    finally:
        os.close(fd)
    return b"".join(chunks).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def json_dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", the one place
    that sets the text of every JSON output. NaN and infinities are written
    as NaN, Infinity and -Infinity."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
