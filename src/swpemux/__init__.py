"""Monte Carlo simulator and analysis toolkit for a temporally multiplexed
spin-wave / photon entanglement source and its repeater elementary link.

The package is organized around a handful of layers:

* :mod:`swpemux.config` - the experiment parameter set and its JSON format.
* :mod:`swpemux.states` - polarization states, analyzer settings, projectors.
* :mod:`swpemux.engine` - the exact per-trial outcome law and the batch and
  single-trial samplers built on it (counter-based RNG, deterministic for a
  given seed).
* :mod:`swpemux.analysis` - CHSH statistics, tomography, decay fits and
  visibility-model calibration.
* :mod:`swpemux.geometry` - write-beam fan geometry and phase matching
  residuals.
* :mod:`swpemux.link` - elementary-link timing and the feed-forward retry
  equivalence.
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
    exact_coincidence_table,
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
    OutcomeLaw,
    RunPlan,
    SettingPair,
    TrialRecord,
    analytic_p_s,
    analytic_p_sas,
    derive_stream,
    effective_pair_state,
    outcome_law,
    run_batch,
    run_coincidence_batch,
    run_trial,
    visibility,
)
from .geometry import (
    BeamGeometry,
    ScanResult,
    anti_stokes_wavevector,
    fan_angles,
    pmc_residual,
    scan_geometry,
)
from .link import (
    EntanglementTimeReport,
    FeedbackConfig,
    FeedbackReport,
    LinkConfig,
    StrategyComparison,
    avg_entanglement_time,
    communication_time,
    feedback_success,
    feedback_vs_multiplexed_report,
    p_link_multiplexed,
)
from .states import (
    BASIS,
    MeasurementSetting,
    bell_state,
    joint_probabilities,
    projector,
    stokes_marginal,
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
    "OutcomeLaw",
    "RunPlan",
    "ScanResult",
    "SettingPair",
    "StrategyComparison",
    "TSIRELSON_BOUND",
    "TrialRecord",
    "analytic_bell_s",
    "analytic_correlation",
    "analytic_p_s",
    "analytic_p_sas",
    "anti_stokes_wavevector",
    "avg_entanglement_time",
    "bell_s",
    "bell_state",
    "calibrate_visibility",
    "communication_time",
    "correlation_e",
    "derive_stream",
    "effective_pair_state",
    "exact_coincidence_table",
    "fan_angles",
    "feedback_success",
    "feedback_vs_multiplexed_report",
    "fidelity",
    "fit_decay",
    "joint_probabilities",
    "outcome_law",
    "p_link_multiplexed",
    "pmc_residual",
    "project_physical",
    "projector",
    "run_batch",
    "run_coincidence_batch",
    "run_trial",
    "scan_geometry",
    "stokes_marginal",
    "tomo_reconstruct",
    "tomography_setting_pairs",
    "validate_density",
    "visibility",
    "werner_state",
]
