"""Behavioral model of one cryogenic interference mixer.

The mixer heterodynes its channel LO tone with the shared IF program and
emits a complex baseband envelope at the difference frequency f_lo - f_if.
The envelope magnitude is the instantaneous Rabi rate in Hz and the phase
follows -theta_if (plus the channel LO phase). Switching is digital: a
per-cycle bit of 0 leaves a coherent residual eps = 10^(-R/20) set by the
configured on/off ratio R.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signals import IF_CHECKS, IfProgram, NumericError, Tone, raise_first

# Reported maximum mixer output power; metadata for resource tables only.
MAX_OUTPUT_POWER_PW = 4.11
MAX_OUTPUT_POWER_DBM = -83.9

# Envelope samples per control cycle; the drive holds each for
# cycle_period / SAMPLES_PER_CYCLE.
SAMPLES_PER_CYCLE = 256


class MixerError(NumericError, ValueError):
    """Invalid mixer configuration or drive request."""


# The difference-frequency check of baseband_output and output_spectrum,
# then DriveEnvelope's.
CARRIER_CHECKS = (
    (MixerError, "difference frequency {carrier_hz} Hz is not positive (f_if >= f_lo)",
     lambda f: np.logical_not(f["carrier_hz"] <= 0)),
)
DRIVE_CHECKS = (
    (MixerError, "carrier must be positive and finite, got {carrier_hz}",
     lambda f: (f["carrier_hz"] > 0) & (f["carrier_hz"] < math.inf)),
    (MixerError, "envelope rate must be positive and finite, got {envelope_rate_hz}",
     lambda f: (f["envelope_rate_hz"] > 0) & (f["envelope_rate_hz"] < math.inf)),
)
# rabi_rates' range checks, forward and inverse; calibrate_pulses runs the
# inverse one itself.
_AMPLITUDE_CHECKS = (
    (MixerError, "a_if must be in [0, 1], got {value}",
     lambda f: np.logical_not((f["value"] < 0) | (f["value"] > 1))),
)
RATE_CHECKS = (
    (MixerError, "Rabi rate {value} Hz unreachable with gain {gain}",
     lambda f: np.logical_not((f["value"] < 0) | (f["value"] > f["gain"] * (1 + 1e-12)))),
)


class Nonlinearity(str, Enum):
    LINEAR = "linear"
    SINE_SATURATING = "sine_saturating"


@dataclass(frozen=True)
class MixerConfig:
    channel: Tone
    gain_hz_per_unit: float
    on_off_ratio_db: float = 28.5
    nonlinearity: Nonlinearity = Nonlinearity.SINE_SATURATING
    bpf_stopband_db: float = 60.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "nonlinearity", Nonlinearity(self.nonlinearity))
        except ValueError:
            raise MixerError(f"unknown nonlinearity {self.nonlinearity!r}") from None
        if not 0 < self.gain_hz_per_unit < math.inf:
            raise MixerError(f"gain must be positive and finite, got {self.gain_hz_per_unit}")
        if not self.on_off_ratio_db > 0:
            raise MixerError(f"on/off ratio must be positive, got {self.on_off_ratio_db}")
        if not self.bpf_stopband_db >= 0:
            raise MixerError(f"stopband must be non-negative, got {self.bpf_stopband_db}")

    @property
    def off_leakage(self) -> float:
        """Coherent off-state amplitude scale eps = 10^(-R/20)."""
        return 10.0 ** (-self.on_off_ratio_db / 20.0)


@dataclass(frozen=True)
class BitTimeline:
    """Per-cycle on/off bits; the companion fixed input is always logic 1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise MixerError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class DriveEnvelope:
    """Complex baseband envelope at the difference frequency.

    ``samples`` are in Hz (instantaneous Rabi rate). The drive is
    sample-and-hold: sample k holds over [k, k + 1) / envelope_rate_hz, the
    final sample up to the end of the drive, and the drive is zero outside.
    """

    carrier_hz: float
    samples: np.ndarray
    envelope_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        raise_first(DRIVE_CHECKS, carrier_hz=self.carrier_hz,
                    envelope_rate_hz=self.envelope_rate_hz)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.envelope_rate_hz


def rabi_rates(cfgs, values, inverse: bool = False) -> np.ndarray:
    """The mixers' amplitude map: rate = gain f(a), with f(a) = a (linear) or
    sin(pi a / 2) (saturating), at IF amplitude values[k] through mixer
    cfgs[k] for every k at once, or with ``inverse`` the amplitude
    a = f^-1(min(rate / gain, 1)) giving rate values[k]; values broadcast
    against the mixers. An a_if outside [0, 1], or a rate outside [0, gain],
    raises MixerError for the first bad entry."""
    gain = np.array([c.gain_hz_per_unit for c in cfgs], dtype=float)
    v = np.asarray(values, dtype=float)
    raise_first(RATE_CHECKS if inverse else _AMPLITUDE_CHECKS, value=v, gain=gain)
    return _rate_map(cfgs, gain, v, inverse)


def _rate_map(cfgs, gain, values, inverse: bool = False) -> np.ndarray:
    """rabi_rates without its range check, for a fast path that holds the
    mixers' gains ``gain`` and has checked ``values`` itself."""
    saturating = np.array([c.nonlinearity is Nonlinearity.SINE_SATURATING for c in cfgs])
    if inverse:
        x = np.minimum(values / gain, 1.0)
        return np.where(saturating, 2.0 / math.pi * np.arcsin(x), x)
    return np.where(saturating, gain * np.sin(0.5 * math.pi * values), gain * values)


def baseband_output(
    cfg: MixerConfig,
    prog: IfProgram,
    bits: BitTimeline,
) -> DriveEnvelope:
    """Mix the channel tone with the IF program into a drive envelope.

    For cycle i: env(t) = s(a_i) * rabi_rates([cfg], A_i) * exp(1j*(-theta_i + phi_ch))
    for t <= duration_i and 0 after, with s(1) = 1 and s(0) = off_leakage; an
    idle cycle is 0 throughout. Carrier is f_lo - f_if.
    """
    if len(bits) != len(prog.cycles):
        raise MixerError(
            f"bit timeline length {len(bits)} does not match {len(prog.cycles)} cycles"
        )
    carrier = cfg.channel.freq_hz - prog.f_if_hz
    raise_first(CARRIER_CHECKS, carrier_hz=carrier)
    rate = SAMPLES_PER_CYCLE / prog.cycle_period_s
    pulsed = [i for i, cyc in enumerate(prog.cycles) if not cyc.idle]
    envs = [prog.cycles[i].envelope for i in pulsed]
    scale = np.where(np.array(bits.bits)[pulsed], 1.0, cfg.off_leakage)
    window = np.arange(SAMPLES_PER_CYCLE) / rate <= np.array([e.duration_s for e in envs])[:, None]
    amp = np.where(window, rabi_rates([cfg], [e.peak for e in envs])[:, None], 0.0)
    phase = -np.radians([prog.cycles[i].theta_if_deg for i in pulsed]) + cfg.channel.phase_rad
    samples = np.zeros((len(prog.cycles), SAMPLES_PER_CYCLE), dtype=complex)
    samples[pulsed] = scale[:, None] * amp * np.exp(1j * phase)[:, None]
    return DriveEnvelope(carrier, samples.reshape(-1), rate)


def output_spectrum(cfg: MixerConfig, f_if_hz: float, on: bool) -> list[tuple[float, float]]:
    """CW tone table of the mixer fed a flat IF tone: (freq_hz, power_db rel. carrier).

    The difference tone f_lo - f_if sits at 0 dB when ``on`` and at
    -on_off_ratio_db when off; IF, LO and sum components sit at
    -bpf_stopband_db. f_if is checked as IfProgram checks it, then the
    difference frequency as baseband_output checks it.
    """
    f_lo = cfg.channel.freq_hz
    raise_first(IF_CHECKS[:1], f_if_hz=f_if_hz)
    raise_first(CARRIER_CHECKS, carrier_hz=f_lo - f_if_hz)
    stop = -cfg.bpf_stopband_db
    return [(f_lo - f_if_hz, 0.0 if on else -cfg.on_off_ratio_db),
            (f_if_hz, stop), (f_lo, stop), (f_lo + f_if_hz, stop)]
