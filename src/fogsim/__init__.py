"""fogsim: photon-counting fiber-optic gyroscope simulator and analysis toolkit.

Models the click statistics of a single-photon Sagnac interferometer as a
function of inter-path delay, generates realistic count time series,
reproduces the two-stage sensor calibration, and evaluates delay stability
against the shot-noise Cramér-Rao bound via overlapping Allan deviation.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationSet,
    ContrastPoint,
    FringeFit,
    FringeParams,
    LinearCalibration,
    combine_inflection,
    contrast_points_from_scan,
    delay_from_contrast,
    estimate_delays,
    fit_fringe,
    fit_linear_calibration,
    ideal_linear_calibration,
)
from .config import ExperimentConfig, config_from_dict, default_config_dict, load_config
from .geometry import (
    GyroGeometry,
    delay_to_rotation,
    figure_of_merit,
    rotation_to_delay,
)
from .model import (
    ModulatorMap,
    Spectrum,
    click_probabilities,
    fisher_information,
)
from .simulate import (
    BrightScan,
    BrightSourceSettings,
    CalibrationProtocol,
    CalibrationScan,
    CountSeries,
    DriftModel,
    NoiseModel,
    RunConfig,
    overnight_drift,
    simulate_bright_scan,
    simulate_calibration_scan,
    simulate_run,
)
from .stability import (
    AllanCurve,
    DelaySeries,
    check_bin_times,
    crb_curve,
    default_m_grid,
    detection_limit,
    even_odd_split,
    overlapping_allan_deviation,
    series_from_delay_table,
    stability_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
