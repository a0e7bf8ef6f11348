"""Quantum-noise force-sensitivity spectra and limit bounds for linear detectors."""

from .bounds import (
    CouplingSusceptibilities,
    chi_cav,
    chi_mech,
    coupling_susceptibilities,
    generalized_uql,
    inverse_chi_mech,
    optimal_uql,
    sql,
    uql,
)
from .linresp import (
    GenericDetector,
    combined_quantities,
    extract_detector,
    feedback_added_noise,
    g_optimized_bound,
    sprime_f,
    uncertainty_slack,
)
from .linsys import (
    FrequencyResponse,
    LinearModel,
    NoiseChannel,
    stability_check,
    transfer,
)
from .noise import (
    SensitivitySpectrum,
    added_noise,
    noise_budget,
    power_density,
    sensitivity_at,
    sensitivity_spectrum,
)
from .schemes import (
    ANCILLA,
    MECHANICAL,
    READOUT,
    DetectorParams,
    SchemeConfig,
    build,
    closed_form_transfer,
)
from .spectra import QuadratureSpectrum, squeeze_spectrum, vacuum

__version__ = "0.1.0"
