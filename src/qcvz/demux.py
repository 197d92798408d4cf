"""Resonator array demultiplexing the multi-tone LO line into per-mixer channels.

Each resonator is a single-pole Lorentzian band-pass: on resonance it passes
its tone untouched, off resonance it attenuates, which is what isolates the
channels and sets the crosstalk floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import MultiToneLo, SignalError, Tone


# Elements per block of the nearest-tone and crosstalk passes: a 40-tone bank
# is one pass. A 4000-tone bank's nearest-tone temporaries stay in cache, and
# the crosstalk pass works in place on each block of its matrix.
_BLOCK_ELEMENTS = 1 << 14

# The default resonator bank of the resource estimates: each resonator's Q,
# and the band W its tones share around the reference frequency f_c, so that
# tones one linewidth apart number W Q / f_c.
DEFAULT_Q = 1.0e4
DEFAULT_BANDWIDTH_HZ = 2.0e9
DEFAULT_REF_FREQ_HZ = 5.0e9


@dataclass(frozen=True)
class Resonator:
    f_r_hz: float
    q: float

    def __post_init__(self):
        if not 0 < self.f_r_hz < math.inf:
            raise SignalError(f"resonance frequency must be positive and finite, got {self.f_r_hz}")
        if not 0 < self.q < math.inf:
            raise SignalError(f"quality factor must be positive and finite, got {self.q}")


def _detuning(q, f_r, f):
    """x = 2 q (f - f_r) / f_r, broadcast, and exactly 0 on resonance whatever
    q is; far off resonance x overflows, so callers silence over and invalid."""
    d = f - f_r
    return np.where(d == 0.0, 0.0, 2.0 * q * d / f_r)


def _gains(q, f_r, f):
    """1 / (1 + i x) with x = 2 q (f - f_r) / f_r, broadcast over the arrays.

    The division is Smith's, as Python's complex type does it, so one gain
    has the same bits alone or in an array. Where x overflows the gain is
    its limit, 0; on resonance it is 1 whatever Q is.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _detuning(q, f_r, f)
        small = np.abs(x) <= 1.0
        ratio = np.where(small, x, 1.0 / x)
        denom = np.where(small, 1.0 + x * ratio, ratio + x)
        re = np.where(small, 1.0, ratio) / denom
        im = np.where(small, -x, -1.0) / denom
    return (re + 1j * im)[()]


def matched_channels(resonators: list[Resonator], lo: MultiToneLo) -> list[Tone]:
    """Channel of every mixer: mixer k gets the LO tone nearest resonator k
    (ties go to the lower tone), through resonator k's gain in Smith's form,
    as a Tone, so its phase is folded into [0, 2 pi).
    """
    if not resonators:
        raise SignalError("resonator list is empty")
    if not lo.tones:
        raise SignalError("LO line has no tones")
    q, f_r, freqs = _bank(resonators, lo)
    nearest = np.concatenate([np.abs(freqs - f_r[rows, None]).argmin(axis=1)
                              for rows in _row_blocks(len(f_r), len(freqs))])
    tones = [lo.tones[j] for j in nearest.tolist()]
    g = _gains(q, f_r, freqs[nearest])
    # abs of each Python complex: numpy's vectorised hypot can differ in the last bit.
    return [
        Tone(t.freq_hz, t.amp * abs(gain), t.phase_rad + phase)
        for t, gain, phase in zip(tones, g.tolist(), np.angle(g).tolist())
    ]


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Row slices of a rows x cols pass, each about _BLOCK_ELEMENTS elements."""
    step = max(1, _BLOCK_ELEMENTS // cols)
    return [slice(k, k + step) for k in range(0, rows, step)]


def _bank(resonators: list[Resonator], lo: MultiToneLo) -> tuple[np.ndarray, ...]:
    """(Q, f_r) of every resonator, and the frequency of every LO tone."""
    return (np.array([r.q for r in resonators], dtype=float),
            np.array([r.f_r_hz for r in resonators], dtype=float),
            np.array([t.freq_hz for t in lo.tones], dtype=float))


def crosstalk_db(resonators: list[Resonator], lo: MultiToneLo) -> np.ndarray:
    """``crosstalk_db[k, j]`` = 20 log10 |gain of tone j through resonator k|,
    from |gain|^2 alone: -10 log10(1 + x^2), +0.0 on resonance and -inf where
    x^2 overflows."""
    q, f_r, freqs = _bank(resonators, lo)
    out = np.empty((len(resonators), len(freqs)))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(len(f_r), len(freqs)):
            # _detuning's steps, then the dB steps, in the same order (so the
            # same bits) but in place in the block's rows.
            x = out[rows]
            np.subtract(freqs, f_r[rows, None], out=x)
            on_resonance = x == 0.0
            np.multiply(2.0 * q[rows, None], x, out=x)
            np.divide(x, f_r[rows, None], out=x)
            x[on_resonance] = 0.0
            np.multiply(x, x, out=x)
            np.add(1.0, x, out=x)
            np.log10(x, out=x)
            np.multiply(10.0, x, out=x)
            # 0 - y, not -y: a cell on resonance is +0.0, not -0.0.
            np.subtract(0.0, x, out=x)
    return out


def demux(resonators: list[Resonator], lo: MultiToneLo) -> tuple[list[Tone], np.ndarray]:
    """Filter the LO line through each resonator:
    ``(matched_channels(resonators, lo), crosstalk_db(resonators, lo))``."""
    return matched_channels(resonators, lo), crosstalk_db(resonators, lo)
