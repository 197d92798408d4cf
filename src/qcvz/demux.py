"""Resonator array demultiplexing the multi-tone LO line into per-mixer channels.

Each resonator is a single-pole Lorentzian band-pass: on resonance it passes
its tone untouched, off resonance it attenuates, which is what isolates the
channels and sets the crosstalk floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import MultiToneLo, SignalError


@dataclass(frozen=True)
class Resonator:
    f_r_hz: float
    q: float

    def __post_init__(self):
        if not 0 < self.f_r_hz < math.inf:
            raise SignalError(f"resonance frequency must be positive and finite, got {self.f_r_hz}")
        if not 0 < self.q < math.inf:
            raise SignalError(f"quality factor must be positive and finite, got {self.q}")

    @property
    def linewidth_hz(self) -> float:
        return self.f_r_hz / self.q


@dataclass(frozen=True)
class ChannelTone:
    """One LO tone as seen by a mixer after its resonator."""

    freq_hz: float
    amp: float
    phase_rad: float


def resonator_gain(r: Resonator, f_hz: float) -> complex:
    """Complex transfer of the resonator at frequency f.

    gain = 1 / (1 + 2j Q (f - f_r) / f_r); unity on resonance, |gain| <= 1.
    """
    if np.any(np.asarray(f_hz) <= 0):
        raise SignalError("frequency must be positive")
    return 1.0 / (1.0 + 2.0j * r.q * (np.asarray(f_hz) - r.f_r_hz) / r.f_r_hz)


def matched_channels(resonators: list[Resonator], lo: MultiToneLo) -> list[ChannelTone]:
    """Channel of every mixer: mixer k gets the LO tone nearest resonator k
    (ties go to the lower tone), through resonator k's complex gain.
    """
    if not resonators:
        raise SignalError("resonator list is empty")
    if not lo.tones:
        raise SignalError("LO line has no tones")
    freqs = np.array([t.freq_hz for t in lo.tones])
    channels = []
    for r in resonators:
        tone = lo.tones[int(np.argmin(np.abs(freqs - r.f_r_hz)))]
        g = resonator_gain(r, tone.freq_hz)
        channels.append(
            ChannelTone(tone.freq_hz, tone.amp * abs(g), tone.phase_rad + float(np.angle(g)))
        )
    return channels


def demux(
    resonators: list[Resonator], lo: MultiToneLo
) -> tuple[list[ChannelTone], np.ndarray]:
    """Filter the LO line through each resonator.

    Returns ``(channels, crosstalk_db)``: ``channels`` is
    ``matched_channels(resonators, lo)`` and ``crosstalk_db[k, j]`` is
    20 log10 |gain of tone j through resonator k|.
    """
    channels = matched_channels(resonators, lo)
    freqs = np.array([t.freq_hz for t in lo.tones])
    gain = np.array([resonator_gain(r, freqs) for r in resonators])
    return channels, 20.0 * np.log10(np.abs(gain))
