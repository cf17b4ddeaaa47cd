"""Three-mode optomechanical network simulator.

Two cavities coupled through one mechanical mode: adiabatic Gaussian-state
conversion via the mechanical dark mode, and photon-pulse transmission and
engineering between the input-output channels.
"""

from .adiabatic import TransferReport, analytic_fidelity, f_integral, fs_bound
from .config import ScenarioConfig, parse_config, serialize_config
from .gaussian import (
    SingleModeGaussian,
    ThreeModeGaussianState,
    Trajectory,
    embed_initial,
    fock_oracle_fidelity,
    gaussian_fidelity,
    integrate,
    integrate_batch,
    make_squeezed_coherent,
    reduce_to_mode,
)
from .model import (
    ConstantCoupling,
    CouplingSchedule,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
    adiabaticity,
    dynamic_matrix_at,
)
from .scenarios import RunArtifacts, emit_summary, run_scenario
from .spectral import (
    DarkMode,
    Eigensystem,
    adiabatic_correction_norm,
    dark_mode_exact,
    dark_mode_perturbative,
    eigensystem,
    eigensystem_sweep,
)
from .transmission import (
    Pulse,
    TransmissionSpectrum,
    gaussian_pulse,
    half_width,
    pulse_fidelity,
    t31_resonant,
    transmission_matrix,
    transmission_spectrum,
    transmit_pulse_freq,
    transmit_pulse_time,
)

__version__ = "0.1.0"
