"""Desk-scale simulator and pulse compiler for a resonator-multiplexed,
TDM cryogenic qubit controller with virtual Z gates."""

from .signals import (
    Tone,
    MultiToneLo,
    Envelope,
    EnvelopeShape,
    CycleSpec,
    IfProgram,
    make_if_program,
)
from .demux import Resonator, resonator_gain, demux
from .mixer import (
    MixerConfig,
    Nonlinearity,
    BitTimeline,
    DriveEnvelope,
    baseband_output,
    output_spectrum,
)
from .qubit import (
    QubitParams,
    Trajectory,
    FitModel,
    FitResult,
    propagate,
    rabi_analytic,
    fit_curve,
    ground_state,
    excited_state,
)
from .calibration import CalibratedPulse, calibrate_pulse, calibrate_pulses
from .compiler import (
    Gate,
    GateKind,
    Program,
    LoweredQubit,
    Schedule,
    ScheduleMode,
    lower,
    ideal_unitary,
    lowered_unitary,
    equivalent,
    schedule,
    parallelism_stats,
)
from .experiments import ExperimentKind, chevron, residual_ratio, run_experiment, simulate_schedule
from .resources import power_estimate, max_tones, cable_count, resource_report, ResourceReport
from .svgplot import emit_plot

__version__ = "0.1.0"
