"""Experiment configuration record and its JSON form.

Units are fixed once here: times in microseconds, angles in degrees, rates in
events per second. The JSON schema is closed; unknown keys are a hard error so
a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import json
import math
from typing import Any, Mapping

from .util import as_count, as_number, atomic_write_text, checked_record, json_dumps, read_text


class ExperimentConfig(checked_record(
        "ExperimentConfig", "m chi theta eta_d eta_as gamma v1 beta tau_c tau_ref dark_rate")):
    """Source and detection parameters of the multiplexed pair source.

    m              number of multiplexed mode pairs in one write train
    chi            per-bin excitation probability of the write pulse
    theta          pair-state mixing angle in degrees: cos(theta)|HH> + sin(theta)|VV>
    eta_d          Stokes (herald) detection efficiency
    eta_as         anti-Stokes detection efficiency
    gamma          intrinsic retrieval efficiency of the memory readout
    v1             single-mode interference visibility at the reference storage time
    beta           cross-mode background coupling coefficient, dimensionless
    tau_c          memory coherence time, microseconds
    tau_ref        storage time at which v1 is quoted, microseconds
    dark_rate      dark-count probability per detector per gate

    eta_d, eta_as and gamma default to round placeholder values chosen so the
    product scales match the published coincidence rates; they are meant to be
    overridden by configuration when real hardware numbers exist.
    """

    __slots__ = ()

    def __new__(cls, m: int = 19, chi: float = 0.01, theta: float = 45.0, eta_d: float = 0.1,
                eta_as: float = 0.5, gamma: float = 0.3, v1: float = 0.937, beta: float = 0.85,
                tau_c: float = 235.0, tau_ref: float = 0.7, dark_rate: float = 0.0):
        self = super().__new__(cls, as_count("m", m), chi, theta, eta_d, eta_as, gamma, v1,
                               beta, tau_c, tau_ref, dark_rate)
        # the range checks below let these through as NaN or inf; tau_c = inf
        # is allowed and means no memory decay
        for name in ("beta", "tau_ref"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.chi < 1.0:
            raise ValueError(f"chi must lie strictly inside (0, 1), got {self.chi}")
        if not 0.0 <= self.theta <= 90.0:
            raise ValueError(f"theta must lie in [0, 90] degrees, got {self.theta}")
        for name in ("eta_d", "eta_as", "gamma", "dark_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} is a probability and must lie in [0, 1], got {value}")
        if not 0.0 < self.v1 <= 1.0:
            raise ValueError(f"v1 must lie in (0, 1], got {self.v1}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if not self.tau_c > 0.0:
            raise ValueError(f"tau_c must be positive, got {self.tau_c}")
        if self.tau_ref < 0.0:
            raise ValueError(f"tau_ref must be non-negative, got {self.tau_ref}")
        return self

    def replace(self, **changes: Any) -> "ExperimentConfig":
        """A copy with the named fields changed; an unknown name is a TypeError."""
        return ExperimentConfig(**{**self._asdict(), **changes})

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ExperimentConfig":
        unknown = sorted(set(data) - set(ExperimentConfig._fields))
        if unknown:
            raise ValueError(f"unknown configuration keys: {', '.join(unknown)}")
        kwargs: dict[str, Any] = {}
        for name, value in data.items():
            if name == "m":
                # JSON may spell a count 19.0; the constructor rejects the rest
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
            else:
                value = as_number(f"configuration key {name!r}", value)
            kwargs[name] = value
        return ExperimentConfig(**kwargs)

    def dumps(self) -> str:
        return json_dumps(self._asdict())

    @staticmethod
    def loads(text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("configuration JSON must be an object")
        return ExperimentConfig.from_dict(data)

    def save(self, path: str) -> None:
        atomic_write_text(path, self.dumps())

    @staticmethod
    def load(path: str) -> "ExperimentConfig":
        return ExperimentConfig.loads(read_text(path))
