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

from .demux import ChannelTone
from .signals import EnvelopeShape, IfProgram, SignalError, raise_first

# Reported maximum mixer output power; metadata for resource tables only.
MAX_OUTPUT_POWER_PW = 4.11
MAX_OUTPUT_POWER_DBM = -83.9

# Envelope samples per control cycle; the drive holds each for
# cycle_period / SAMPLES_PER_CYCLE.
SAMPLES_PER_CYCLE = 256


class MixerError(ValueError):
    """Invalid mixer configuration or drive request."""


# baseband_output's check of the difference frequency, then DriveEnvelope's.
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
# rabi_rates' range checks, forward and inverse.
_AMPLITUDE_CHECKS = (
    (MixerError, "a_if must be in [0, 1], got {value}",
     lambda f: np.logical_not((f["value"] < 0) | (f["value"] > 1))),
)
_RATE_CHECKS = (
    (MixerError, "Rabi rate {value} Hz unreachable with gain {gain}",
     lambda f: np.logical_not((f["value"] < 0) | (f["value"] > f["gain"] * (1 + 1e-12)))),
)


class Nonlinearity(str, Enum):
    LINEAR = "linear"
    SINE_SATURATING = "sine_saturating"


@dataclass(frozen=True)
class MixerConfig:
    channel: ChannelTone
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

    @property
    def edges_s(self) -> np.ndarray:
        """Sample edges k / envelope_rate_hz for k = 0 .. len(samples)."""
        return np.arange(len(self.samples) + 1) / self.envelope_rate_hz

    def value(self, t):
        """Complex envelope at time t (array-aware): the sample held at t."""
        tq = np.asarray(t, dtype=float)
        n = len(self.samples)
        k = np.minimum(np.floor(tq * self.envelope_rate_hz), n - 1)
        k = np.where((tq < 0.0) | (tq > self.duration_s), n, k)
        return np.append(self.samples, 0.0)[k.astype(int)]


def _response(gain, saturating, x, inverse: bool = False):
    """The two response curves, broadcast over mixers: rate = gain f(a), or
    with ``inverse`` a = f^-1(min(rate / gain, 1)). f(a) = a (linear) or
    sin(pi a / 2) (saturating)."""
    if inverse:
        x = np.minimum(x / gain, 1.0)
        return np.where(saturating, 2.0 / math.pi * np.arcsin(x), x)
    return np.where(saturating, gain * np.sin(0.5 * math.pi * x), gain * x)


def amplitude_map(cfg: MixerConfig, a_if: float) -> float:
    """Peak Rabi rate (Hz) produced at IF amplitude a_if in [0, 1].

    Linear mode: gain * a_if. Saturating mode: gain * sin(pi a_if / 2),
    monotone and concave with saturation at a_if = 1. The one-mixer case of
    rabi_rates.
    """
    out = rabi_rates([cfg], a_if)
    return float(out[0]) if np.isscalar(a_if) else out


def inverse_amplitude_map(cfg: MixerConfig, rabi_hz: float) -> float:
    """Inverse of amplitude_map; raises if the rate is unreachable at a_if <= 1."""
    return float(rabi_rates([cfg], [rabi_hz], inverse=True)[0])


def rabi_rates(cfgs, values, inverse: bool = False) -> np.ndarray:
    """The rate at IF amplitude values[k] through mixer cfgs[k], for every k
    at once, or with ``inverse`` the amplitude giving rate values[k]; values
    broadcast against the mixers. An a_if outside [0, 1], or a rate outside
    [0, gain], raises MixerError for the first bad entry."""
    gain = np.array([c.gain_hz_per_unit for c in cfgs], dtype=float)
    saturating = np.array([c.nonlinearity is Nonlinearity.SINE_SATURATING for c in cfgs])
    v = np.asarray(values, dtype=float)
    raise_first(_RATE_CHECKS if inverse else _AMPLITUDE_CHECKS, value=v, gain=gain)
    return _response(gain, saturating, v, inverse)


def baseband_output(
    cfg: MixerConfig,
    prog: IfProgram,
    bits: BitTimeline,
) -> DriveEnvelope:
    """Mix the channel tone with the IF program into a drive envelope.

    For cycle i: env(t) = s(a_i) * amplitude_map(A_i(t)) * exp(1j*(-theta_i + phi_ch))
    with s(1) = 1 and s(0) = off_leakage. Carrier is f_lo - f_if.
    """
    if len(bits) != len(prog.cycles):
        raise MixerError(
            f"bit timeline length {len(bits)} does not match {len(prog.cycles)} cycles"
        )
    carrier = cfg.channel.freq_hz - prog.f_if_hz
    raise_first(CARRIER_CHECKS, carrier_hz=carrier)
    rate = SAMPLES_PER_CYCLE / prog.cycle_period_s
    tloc = np.arange(SAMPLES_PER_CYCLE) / rate
    chunks = []
    for i, cyc in enumerate(prog.cycles):
        if cyc.idle:
            chunks.append(np.zeros(SAMPLES_PER_CYCLE, dtype=complex))
            continue
        scale = 1.0 if bits.bits[i] else cfg.off_leakage
        amp = amplitude_map(cfg, cyc.envelope.value(tloc))
        phase = -prog.theta_rad(i) + cfg.channel.phase_rad
        chunks.append(scale * amp * np.exp(1j * phase))
    samples = np.concatenate(chunks) if chunks else np.zeros(0, dtype=complex)
    return DriveEnvelope(carrier, samples, rate)


def output_spectrum(
    cfg: MixerConfig,
    prog: IfProgram,
    bits: BitTimeline,
    rate_hz: float,
) -> list[tuple[float, float]]:
    """CW tone table for a flat-envelope program: (freq_hz, power_db rel. carrier).

    The difference tone sits at 0 dB when on and at -on_off_ratio_db when
    off; LO, IF and sum components sit at -bpf_stopband_db.
    """
    if not prog.cycles:
        raise MixerError("empty program has no CW spectrum")
    active = [c for c in prog.cycles if not c.idle]
    if not active or any(c.envelope.shape is not EnvelopeShape.FLAT for c in active):
        raise MixerError("CW spectrum analysis requires flat envelopes")
    if len(set(bits.bits)) != 1:
        raise MixerError("CW spectrum analysis requires a uniform bit timeline")
    f_lo = cfg.channel.freq_hz
    f_if = prog.f_if_hz
    if rate_hz <= 2.0 * (f_lo + f_if):
        raise SignalError(f"rate {rate_hz} Hz violates Nyquist for {f_lo + f_if} Hz content")
    diff_db = 0.0 if bits.bits[0] else -cfg.on_off_ratio_db
    return [
        (f_lo - f_if, diff_db),
        (f_if, -cfg.bpf_stopband_db),
        (f_lo, -cfg.bpf_stopband_db),
        (f_lo + f_if, -cfg.bpf_stopband_db),
    ]
