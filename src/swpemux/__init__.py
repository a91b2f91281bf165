"""Monte Carlo simulator and analysis toolkit for a temporally multiplexed
spin-wave / photon entanglement source and its repeater elementary link.

The package is organized around a handful of layers:

* :mod:`swpemux.config` - the experiment parameter set and its JSON format.
* :mod:`swpemux.states` - polarization states, analyzer settings and their
  joint outcome probabilities.
* :mod:`swpemux.engine` - the exact per-trial outcome law and the batch and
  coincidence samplers built on it (counter-based RNG, deterministic for a
  given seed).
* :mod:`swpemux.analysis` - CHSH statistics, tomography, decay fits and
  visibility-model calibration.
* :mod:`swpemux.geometry` - write-beam fan geometry and phase matching
  residuals.
* :mod:`swpemux.link` - elementary-link timing and feed-forward retry
  statistics.
* :mod:`swpemux.figures` - the published-figure presets and their checks.
* :mod:`swpemux.cli` - the ``swpemux`` command line tool.
"""
from .analysis import (
    CANONICAL_BELL,
    TSIRELSON_BOUND,
    BellSettings,
    DecayFit,
    analytic_bell_s,
    analytic_correlation,
    bell_s,
    calibrate_visibility,
    correlation_e,
    fidelity,
    fit_decay,
    project_physical,
    tomo_reconstruct,
    tomography_setting_pairs,
)
from .config import ExperimentConfig
from .engine import (
    HV_PAIR,
    BatchResult,
    CoincidenceRow,
    CoincidenceTable,
    RunPlan,
    SettingPair,
    analytic_p_s,
    analytic_p_sas,
    derive_stream,
    effective_pair_state,
    run_batch,
    run_coincidence_batch,
    visibility,
)
from .geometry import (
    BeamGeometry,
    ScanResult,
    fan_angles,
    pmc_residual,
    scan_geometry,
)
from .link import (
    EntanglementTimeReport,
    FeedbackConfig,
    FeedbackReport,
    LinkConfig,
    avg_entanglement_time,
    communication_time,
    feedback_success,
    p_link_multiplexed,
)
from .states import (
    BASIS,
    MeasurementSetting,
    bell_state,
    joint_probabilities,
    validate_density,
    werner_state,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS",
    "BatchResult",
    "BeamGeometry",
    "BellSettings",
    "CANONICAL_BELL",
    "CoincidenceRow",
    "CoincidenceTable",
    "DecayFit",
    "EntanglementTimeReport",
    "ExperimentConfig",
    "FeedbackConfig",
    "FeedbackReport",
    "HV_PAIR",
    "LinkConfig",
    "MeasurementSetting",
    "RunPlan",
    "ScanResult",
    "SettingPair",
    "TSIRELSON_BOUND",
    "analytic_bell_s",
    "analytic_correlation",
    "analytic_p_s",
    "analytic_p_sas",
    "avg_entanglement_time",
    "bell_s",
    "bell_state",
    "calibrate_visibility",
    "communication_time",
    "correlation_e",
    "derive_stream",
    "effective_pair_state",
    "fan_angles",
    "feedback_success",
    "fidelity",
    "fit_decay",
    "joint_probabilities",
    "p_link_multiplexed",
    "pmc_residual",
    "project_physical",
    "run_batch",
    "run_coincidence_batch",
    "scan_geometry",
    "tomo_reconstruct",
    "tomography_setting_pairs",
    "validate_density",
    "visibility",
    "werner_state",
]
