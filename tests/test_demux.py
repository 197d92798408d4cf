import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.demux import (
    _BLOCK_ELEMENTS,
    Resonator,
    _detuning,
    _gains,
    demux,
    matched_channels,
)
from qcvz.signals import MultiToneLo, SignalError, Tone

from oracles import resonator_gain

# Three readout-band resonators and their matched LO tones.
F_R = (7.74225e9, 7.98575e9, 8.23350e9)
Q = 1.0e4


def test_resonator_validation():
    with pytest.raises(SignalError):
        Resonator(-1.0, Q)
    with pytest.raises(SignalError):
        Resonator(8e9, 0.0)
    for f_r, q in ((math.nan, Q), (math.inf, Q), (8e9, math.nan), (8e9, math.inf)):
        with pytest.raises(SignalError):
            Resonator(f_r, q)


def test_gain_on_resonance_and_half_linewidth():
    r = Resonator(8.0e9, Q)
    assert resonator_gain(r, r.f_r_hz) == pytest.approx(1.0 + 0.0j)
    # at half a linewidth detuning the magnitude is 1/sqrt(2)
    f = r.f_r_hz + 0.5 * r.f_r_hz / r.q
    assert abs(resonator_gain(r, f)) == pytest.approx(1.0 / math.sqrt(2.0))


def test_gain_magnitude_oracle():
    r = Resonator(8.0e9, Q)
    for df in (0.0, 1e5, 1e6, 5e7, -3e6):
        g = resonator_gain(r, r.f_r_hz + df)
        expect = 1.0 / math.sqrt(1.0 + (2.0 * Q * df / r.f_r_hz) ** 2)
        assert abs(g) == pytest.approx(expect, rel=1e-12)


def test_demux_selects_matched_tones():
    resonators = [Resonator(f, Q) for f in F_R]
    lo = MultiToneLo(tuple(Tone(f, 0.5) for f in F_R))
    channels, xtalk = demux(resonators, lo)
    assert xtalk.shape == (3, 3)
    for k in range(3):
        # matched tone passes with unity gain, neighbors are suppressed
        assert xtalk[k, k] == pytest.approx(0.0, abs=1e-9)
        for j in range(3):
            if j != k:
                assert xtalk[k, j] < -40.0
        ch = channels[k]
        assert isinstance(ch, Tone)
        assert ch.freq_hz == F_R[k]
        assert ch.amp == pytest.approx(0.5)


def test_demux_gain_linear_in_amp():
    resonators = [Resonator(8.0e9, Q)]
    for amp in (0.1, 0.5, 1.0):
        lo = MultiToneLo((Tone(8.0e9 + 2e6, amp),))
        channels, _ = demux(resonators, lo)
        g = abs(resonator_gain(resonators[0], 8.0e9 + 2e6))
        assert channels[0].amp == pytest.approx(amp * g, rel=1e-12)


def test_matched_channel():
    resonators = [Resonator(f, Q) for f in F_R]
    lo = MultiToneLo(tuple(Tone(f, 0.5) for f in F_R))
    ch = matched_channels(resonators, lo)[1]
    assert ch.freq_hz == F_R[1]
    assert ch.amp == pytest.approx(0.5)


def test_matched_channels_rejects_empty_inputs():
    lo = MultiToneLo((Tone(8.0e9, 0.5),))
    with pytest.raises(SignalError):
        matched_channels([], lo)
    with pytest.raises(SignalError):
        matched_channels([Resonator(8.0e9, Q)], MultiToneLo(()))


# Tones and resonances share one octave, so every f - f_r is exact and a
# resonance at a midpoint is a true tie.
BAND = st.floats(4.0e9, 8.0e9)


@st.composite
def banks(draw):
    freqs = sorted(set(draw(st.lists(BAND, min_size=1, max_size=12))))
    tones = tuple(
        Tone(f, draw(st.floats(0.0, 1.0)), draw(st.floats(-10.0, 10.0))) for f in freqs
    )
    mids = [0.5 * (a + b) for a, b in zip(freqs, freqs[1:])]
    f_r = st.sampled_from(mids) | BAND if mids else BAND
    n = draw(st.integers(1, 8))
    resonators = [Resonator(draw(f_r), draw(st.floats(1.0e2, 1.0e6))) for _ in range(n)]
    return resonators, MultiToneLo(tones)


@given(banks())
@settings(max_examples=200, deadline=None)
def test_demux_matches_closed_form_and_brute_force(bank):
    resonators, lo = bank
    channels, xtalk = demux(resonators, lo)
    freqs = np.array([t.freq_hz for t in lo.tones])
    assert xtalk.shape == (len(resonators), len(freqs))
    assert len(channels) == len(resonators)
    for k, r in enumerate(resonators):
        x = 2.0 * r.q * (freqs - r.f_r_hz) / r.f_r_hz
        np.testing.assert_allclose(xtalk[k], -10.0 * np.log10(1.0 + x**2), rtol=0, atol=1e-9)
        j = int(np.argmin(np.abs(freqs - r.f_r_hz)))
        tone, g = lo.tones[j], resonator_gain(r, freqs[j])
        assert channels[k].freq_hz == tone.freq_hz
        assert channels[k].amp == pytest.approx(tone.amp * abs(g), rel=1e-12, abs=0)
        dphi = channels[k].phase_rad - (tone.phase_rad + np.angle(g))
        assert abs(math.remainder(dphi, 2.0 * math.pi)) < 1e-12


def test_channel_tone_validation():
    # A channel is a signals.Tone, so it takes Tone's checks.
    for args in ((math.nan, 0.5, 0.0), (math.inf, 0.5, 0.0), (0.0, 0.5, 0.0), (-8e9, 0.5, 0.0),
                 (8e9, math.nan, 0.0), (8e9, math.inf, 0.0), (8e9, -0.1, 0.0),
                 (8e9, 0.5, math.nan), (8e9, 0.5, math.inf)):
        with pytest.raises(SignalError):
            Tone(*args)
    assert Tone(8e9, 0.0, -1.0).amp == 0.0


def test_gain_takes_its_limit_when_the_detuning_term_overflows():
    # 2 Q (f - f_r) / f_r overflows: the gain is 0, or 1 on resonance, with no
    # warning (warnings are errors in this suite).
    for f_r, q, f in ((8e9, 1e308, 8.1e9), (1e-300, Q, 8e9), (1e308, Q, 8e9), (8e9, Q, 1e308)):
        assert resonator_gain(Resonator(f_r, q), f) == 0.0
    assert resonator_gain(Resonator(8e9, 1e308), 8e9) == 1.0
    channels, xtalk = demux([Resonator(1e-300, Q), Resonator(8e9, 1e308)],
                            MultiToneLo((Tone(7e9, 0.5), Tone(8e9, 0.5))))
    assert [(c.freq_hz, c.amp) for c in channels] == [(7e9, 0.0), (8e9, 0.5)]
    assert np.array_equal(xtalk, [[-np.inf, -np.inf], [-np.inf, 0.0]])


@given(banks())
@settings(max_examples=100, deadline=None)
def test_gain_has_the_same_bits_alone_or_in_an_array(bank):
    resonators, lo = bank
    freqs = np.array([t.freq_hz for t in lo.tones])
    for r in resonators:
        row = resonator_gain(r, freqs)
        for j, f in enumerate(freqs):
            g = resonator_gain(r, f)
            assert (g.real, g.imag) == (row[j].real, row[j].imag)


def test_demux_crosstalk_of_a_bank_larger_than_one_block():
    f = 6.0e9 + 2.0e6 * np.arange(150)
    resonators = [Resonator(fr, Q) for fr in f]
    lo = MultiToneLo(tuple(Tone(fr + 5.0e4, 0.5) for fr in f[::3]))
    _, xtalk = demux(resonators, lo)
    freqs = np.array([t.freq_hz for t in lo.tones])
    want = [20.0 * np.log10(np.abs(resonator_gain(r, freqs))) for r in resonators]
    np.testing.assert_allclose(xtalk, want, rtol=0, atol=1e-12)


def _ref_matched_channels(resonators, lo):
    """One argmin per resonator, as matched_channels was written first."""
    freqs = np.array([t.freq_hz for t in lo.tones])
    tones = [lo.tones[int(np.argmin(np.abs(freqs - r.f_r_hz)))] for r in resonators]
    q = np.array([r.q for r in resonators])
    f_r = np.array([r.f_r_hz for r in resonators])
    g = _gains(q, f_r, np.array([t.freq_hz for t in tones]))
    return [
        Tone(t.freq_hz, t.amp * abs(gain), t.phase_rad + phase)
        for t, gain, phase in zip(tones, g.tolist(), np.angle(g).tolist())
    ]


def _bits(channels):
    return [tuple(map(float.hex, (c.freq_hz, c.amp, c.phase_rad))) for c in channels]


@st.composite
def lines(draw):
    """Resonators and an unsorted line with repeated tones, which MultiToneLo
    would reject: the nearest-tone search alone must keep the first of equal
    distances. Resonances sit on tones and on midpoints, so both occur."""
    freqs = draw(st.lists(BAND, min_size=1, max_size=6))
    freqs = draw(st.permutations(freqs + draw(st.lists(st.sampled_from(freqs), max_size=6))))
    tones = tuple(Tone(f, draw(st.floats(0.0, 1.0)), draw(st.floats(-10.0, 10.0)))
                  for f in freqs)
    mids = [0.5 * (a + b) for a in freqs for b in freqs]
    f_r = st.sampled_from(mids) | BAND
    n = draw(st.integers(1, 12))
    resonators = [Resonator(draw(f_r), draw(st.floats(1.0e2, 1.0e6))) for _ in range(n)]
    return resonators, SimpleNamespace(tones=tones)


@given(lines())
@settings(max_examples=200, deadline=None)
def test_matched_channels_match_one_argmin_per_resonator(line):
    resonators, lo = line
    assert _bits(matched_channels(resonators, lo)) == _bits(_ref_matched_channels(resonators, lo))


@pytest.mark.parametrize("n_res, n_tones", [
    (2 * (_BLOCK_ELEMENTS // 3) + 7, 3),  # many resonators x few tones: 3 blocks
    (5, _BLOCK_ELEMENTS // 3 + 1),  # few x many: 2 rows a block, the last one short
])
def test_demux_across_block_boundaries(n_res, n_tones):
    rng = np.random.default_rng(n_res)
    f_r = 4.0e9 + 4.0e9 * rng.random(n_res)
    _check_blocked_demux(f_r, 10.0 ** rng.uniform(2, 6, n_res), np.linspace(4.0e9, 8.0e9, n_tones))


def test_demux_across_block_boundaries_on_resonance_and_at_q_1e308():
    # Every third resonance on a tone and every fifth Q 1e308, whose detuning
    # overflows off resonance: cells of +0.0 and -inf in each of three blocks.
    n_res = 2 * (_BLOCK_ELEMENTS // 3) + 7
    rng = np.random.default_rng(n_res)
    freqs = np.linspace(4.0e9, 8.0e9, 3)
    f_r = 4.0e9 + 4.0e9 * rng.random(n_res)
    f_r[::3] = rng.choice(freqs, len(f_r[::3]))
    q = 10.0 ** rng.uniform(2, 6, n_res)
    q[::5] = 1e308
    xtalk = _check_blocked_demux(f_r, q, freqs)
    assert (xtalk == 0.0).sum() == len(f_r[::3]) and not np.signbit(xtalk[xtalk == 0.0]).any()
    assert (xtalk[::5] == -np.inf).sum() == 3 * len(q[::5]) - (xtalk[::5] == 0.0).sum()


def _check_blocked_demux(f_r, q, freqs):
    """Demux a bank against one argmin per resonator, 20 log10 |gain| and,
    bit for bit, the dB expression over the whole matrix in one pass."""
    resonators = [Resonator(f, qk) for f, qk in zip(f_r, q)]
    lo = MultiToneLo(tuple(Tone(f, 0.5, 0.1) for f in freqs))
    channels, xtalk = demux(resonators, lo)
    assert _bits(channels) == _bits(_ref_matched_channels(resonators, lo))
    with np.errstate(divide="ignore"):
        want = [20.0 * np.log10(np.abs(resonator_gain(r, freqs))) for r in resonators]
    np.testing.assert_allclose(xtalk, want, rtol=0, atol=1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _detuning(q[:, None], f_r[:, None], freqs)
        assert xtalk.tobytes() == (0.0 - 10.0 * np.log10(1.0 + x * x)).tobytes()
    return xtalk


def test_an_integer_tone_frequency_demuxes_as_its_float():
    # A config may give a frequency as a JSON integer past the int64 range;
    # the bank must hold it as a float, not in an object array that the gain
    # and crosstalk arithmetic fail on.
    resonators = [Resonator(8.0e9, Q), Resonator(1.0e20, Q)]
    as_int = demux(resonators, MultiToneLo((Tone(8.0e9, 0.5), Tone(10**20, 0.5))))
    as_float = demux(resonators, MultiToneLo((Tone(8.0e9, 0.5), Tone(1.0e20, 0.5))))
    assert [(c.amp, c.phase_rad) for c in as_int[0]] == [(c.amp, c.phase_rad) for c in as_float[0]]
    assert as_int[1].tobytes() == as_float[1].tobytes()


def test_crosstalk_on_resonance_is_positive_zero():
    f = (7.0e9, 7.5e9, 8.0e9)
    resonators = [Resonator(fr, q) for fr, q in zip(f, (Q, 1e308, 1.0))]
    _, xtalk = demux(resonators, MultiToneLo(tuple(Tone(fr, 0.5) for fr in f)))
    assert np.array_equal(np.diag(xtalk), [0.0, 0.0, 0.0])
    assert not np.signbit(np.diag(xtalk)).any()
