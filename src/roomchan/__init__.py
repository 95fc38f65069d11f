"""Mirror-source simulation and analysis of in-room radio channels."""

__version__ = "0.1.0"

from .antenna import AntennaPattern, Isotropic, SphericalCap, sample_orientation, sample_position
from .channel import (
    PathList,
    RadioConfig,
    SampleGrid,
    SignalTrace,
    arrival_count_curve,
    enumerate_paths,
    signal_moments,
    sinc_pulse,
    synthesize_signal,
)
from .geometry import Room, enumerate_indices
from .montecarlo import Ecdf, McConfig, McEstimate, McResult, ecdf, run_ensemble
from .theory import SceneSummary, TheoryCurve

__all__ = [
    "AntennaPattern", "Isotropic", "SphericalCap", "sample_orientation", "sample_position",
    "PathList", "RadioConfig", "SampleGrid", "SignalTrace", "arrival_count_curve",
    "enumerate_paths", "signal_moments", "sinc_pulse", "synthesize_signal",
    "Room", "enumerate_indices",
    "Ecdf", "McConfig", "McEstimate", "McResult", "ecdf", "run_ensemble",
    "SceneSummary", "TheoryCurve",
]
