"""LO tones, IF cycle programs and sampled waveform synthesis.

Amplitudes are flux amplitudes in units of Phi_0 throughout; conversion to
Rabi rates happens in the mixer model. Phases are degrees at the API
boundary (45 degree grid) and radians internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class SignalError(ValueError):
    """Invalid signal description."""


class EnvelopeShape(str, Enum):
    FLAT = "flat"
    TRIANGULAR = "triangular"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Tone:
    """One LO tone: frequency, flux amplitude (Phi_0 units) and fixed phase."""

    freq_hz: float
    amp: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not 0 < self.freq_hz < math.inf:
            raise SignalError(f"tone frequency must be positive and finite, got {self.freq_hz}")
        if not 0.0 <= self.amp <= 1.0:
            raise SignalError(f"tone amplitude must be in [0, 1] Phi_0, got {self.amp}")
        if not math.isfinite(self.phase_rad):
            raise SignalError(f"tone phase must be finite, got {self.phase_rad}")
        phase = self.phase_rad % TWO_PI
        # float modulo can round a tiny negative phase up to exactly 2 pi
        if phase >= TWO_PI:
            phase = 0.0
        object.__setattr__(self, "phase_rad", phase)


@dataclass(frozen=True)
class MultiToneLo:
    """Ordered set of LO tones sharing one line."""

    tones: tuple[Tone, ...]

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        freqs = [t.freq_hz for t in self.tones]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise SignalError("LO tone frequencies must be strictly increasing")

    @property
    def max_freq_hz(self) -> float:
        return self.tones[-1].freq_hz if self.tones else 0.0


@dataclass(frozen=True)
class Envelope:
    """Pulse envelope within one control cycle.

    ``peak`` is the dimensionless IF amplitude A_if in [0, 1]. The
    triangular shape is symmetric with its peak at duration/2.
    """

    shape: EnvelopeShape
    duration_s: float
    peak: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shape", EnvelopeShape(self.shape))
        if not 0 < self.duration_s < math.inf:
            raise SignalError(
                f"envelope duration must be positive and finite, got {self.duration_s}"
            )
        if not 0.0 <= self.peak <= 1.0:
            raise SignalError(f"envelope peak A_if must be in [0, 1], got {self.peak}")

    def value(self, t):
        """Envelope amplitude at time t (seconds from cycle start); array-aware."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.duration_s)
        if self.shape is EnvelopeShape.FLAT:
            v = np.full_like(t, self.peak)
        elif self.shape is EnvelopeShape.TRIANGULAR:
            v = self.peak * (1.0 - np.abs(2.0 * t / self.duration_s - 1.0))
        else:  # gaussian, sigma = duration/6 so the tails sit near zero
            sigma = self.duration_s / 6.0
            v = self.peak * np.exp(-0.5 * ((t - self.duration_s / 2.0) / sigma) ** 2)
        return np.where(inside, v, 0.0)


@dataclass(frozen=True)
class CycleSpec:
    """One TDM control cycle: IF phase plus an optional pulse envelope.

    ``envelope is None`` marks an idle cycle (no IF drive in the slot).
    """

    theta_if_deg: float
    envelope: Envelope | None = None

    def __post_init__(self):
        if not math.isfinite(self.theta_if_deg):
            raise SignalError(f"cycle phase must be finite, got {self.theta_if_deg}")

    @property
    def idle(self) -> bool:
        return self.envelope is None


@dataclass(frozen=True)
class IfProgram:
    """IF frequency plus the per-cycle (theta_if, envelope) schedule."""

    f_if_hz: float
    cycle_period_s: float
    cycles: tuple[CycleSpec, ...]

    @property
    def duration_s(self) -> float:
        return len(self.cycles) * self.cycle_period_s

    def theta_rad(self, i: int) -> float:
        return math.radians(self.cycles[i].theta_if_deg)


def make_if_program(
    f_if_hz: float,
    cycle_period_s: float,
    cycles: list[CycleSpec] | tuple[CycleSpec, ...],
    quantized: bool = True,
) -> IfProgram:
    """Validate and assemble an IF program.

    In quantized mode every cycle phase must sit on the 45 degree grid.
    Cycle i starts at time i * cycle_period_s.
    """
    if not 0 < f_if_hz < math.inf:
        raise SignalError(f"IF frequency must be positive and finite, got {f_if_hz}")
    if not 0 < cycle_period_s < math.inf:
        raise SignalError(f"cycle period must be positive and finite, got {cycle_period_s}")
    for i, c in enumerate(cycles):
        if quantized and abs(c.theta_if_deg % 45.0) > 1e-9 * 45.0:
            raise SignalError(
                f"cycle {i}: theta_if={c.theta_if_deg} deg is not a multiple of 45"
            )
        if c.envelope is not None and c.envelope.duration_s > cycle_period_s * (1 + 1e-12):
            raise SignalError(
                f"cycle {i}: envelope duration {c.envelope.duration_s} exceeds "
                f"cycle period {cycle_period_s}"
            )
    return IfProgram(f_if_hz, cycle_period_s, tuple(cycles))


@dataclass(frozen=True)
class SampledWaveform:
    """Real sampled trace with an explicit Nyquist check at construction."""

    sample_rate_hz: float
    t0_s: float
    samples: np.ndarray
    max_freq_hz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.sample_rate_hz <= 2.0 * self.max_freq_hz:
            raise SignalError(
                f"sample rate {self.sample_rate_hz} Hz violates Nyquist for "
                f"{self.max_freq_hz} Hz content"
            )

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(len(self.samples)) / self.sample_rate_hz


def synthesize(lo: MultiToneLo, prog: IfProgram, rate_hz: float) -> tuple[SampledWaveform, SampledWaveform]:
    """Sample I_lo(t) and I_if(t) on a common grid over the program duration.

    I_lo(t) = sum_k amp_k cos(2 pi f_k t + phase_k);
    I_if(t) = A(t) cos(2 pi f_if t + theta_if(t)) with theta_if piecewise
    constant (right-continuous) per cycle.
    """
    max_f = max(lo.max_freq_hz, prog.f_if_hz)
    if rate_hz <= 2.0 * max_f:
        raise SignalError(f"rate {rate_hz} Hz violates Nyquist for {max_f} Hz content")
    n = int(round(prog.duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    i_lo = np.zeros(n)
    for tone in lo.tones:
        i_lo += tone.amp * np.cos(TWO_PI * tone.freq_hz * t + tone.phase_rad)
    i_if = np.zeros(n)
    for i, cyc in enumerate(prog.cycles):
        if cyc.idle:
            continue
        t0 = i * prog.cycle_period_s
        sel = (t >= t0) & (t < t0 + prog.cycle_period_s)
        tloc = t[sel] - t0
        amp = cyc.envelope.value(tloc)
        i_if[sel] = amp * np.cos(TWO_PI * prog.f_if_hz * t[sel] + prog.theta_rad(i))
    return (
        SampledWaveform(rate_hz, 0.0, i_lo, lo.max_freq_hz),
        SampledWaveform(rate_hz, 0.0, i_if, prog.f_if_hz),
    )
