import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.mixer import (
    MAX_OUTPUT_POWER_DBM,
    MAX_OUTPUT_POWER_PW,
    SAMPLES_PER_CYCLE,
    BitTimeline,
    DriveEnvelope,
    MixerConfig,
    MixerError,
    Nonlinearity,
    baseband_output,
    output_spectrum,
    rabi_rates,
)
from qcvz.signals import CycleSpec, Envelope, IfProgram, SignalError, Tone

F_LO = 8.0e9
F_IF = 3.46798e9


def make_cfg(**kw):
    defaults = dict(
        channel=Tone(F_LO, 0.5, 0.0),
        gain_hz_per_unit=4.0e7,
        on_off_ratio_db=28.5,
        nonlinearity=Nonlinearity.SINE_SATURATING,
        bpf_stopband_db=60.0,
    )
    defaults.update(kw)
    return MixerConfig(**defaults)


def flat_prog(thetas_deg, period=15e-9, a_if=1.0, f_if=F_IF):
    env = Envelope(period, a_if)
    return IfProgram(f_if, period, [CycleSpec(t, env) for t in thetas_deg])


def test_bit_timeline_takes_only_0_and_1():
    for bits in ((0, 2), (-1,), (1, 0, 7)):
        with pytest.raises(MixerError) as info:
            BitTimeline(bits)
        assert str(info.value) == "bits must be 0 or 1"


def test_max_output_constants():
    assert MAX_OUTPUT_POWER_PW == pytest.approx(4.11)
    assert MAX_OUTPUT_POWER_DBM == pytest.approx(-83.9)
    # consistency: 4.11 pW expressed in dBm
    assert 10.0 * math.log10(4.11e-12 / 1e-3) == pytest.approx(-83.9, abs=0.05)


def test_mixer_config_validation():
    for kw in (
        dict(gain_hz_per_unit=math.nan),
        dict(gain_hz_per_unit=math.inf),
        dict(gain_hz_per_unit=0.0),
        dict(on_off_ratio_db=math.nan),
        dict(on_off_ratio_db=0.0),
        dict(bpf_stopband_db=math.nan),
        dict(bpf_stopband_db=-1.0),
        dict(nonlinearity="cubic"),
    ):
        with pytest.raises(MixerError):
            make_cfg(**kw)


def test_off_leakage_from_ratio():
    for r in (28.5, 45.1, 39.0):
        cfg = make_cfg(on_off_ratio_db=r)
        assert cfg.off_leakage == pytest.approx(10.0 ** (-r / 20.0), rel=1e-12)


def test_amplitude_map_endpoints():
    lin = make_cfg(nonlinearity=Nonlinearity.LINEAR)
    sat = make_cfg()
    assert rabi_rates([lin], 0.0)[0] == 0.0
    assert rabi_rates([lin], 1.0)[0] == pytest.approx(4.0e7)
    assert rabi_rates([lin], 0.5)[0] == pytest.approx(2.0e7)
    assert rabi_rates([sat], 1.0)[0] == pytest.approx(4.0e7)
    assert rabi_rates([sat], 0.5)[0] == pytest.approx(4.0e7 * math.sin(math.pi / 4))
    with pytest.raises(MixerError):
        rabi_rates([lin], 1.2)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_amplitude_map_monotone(a, b):
    cfg = make_cfg()
    lo, hi = sorted((a, b))
    assert rabi_rates([cfg], lo)[0] <= rabi_rates([cfg], hi)[0] + 1e-12


@given(st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_amplitude_map_roundtrip(a):
    for cfg in (make_cfg(), make_cfg(nonlinearity=Nonlinearity.LINEAR)):
        assert rabi_rates([cfg], rabi_rates([cfg], a), inverse=True)[0] == pytest.approx(
            a, abs=1e-9
        )


def test_inverse_amplitude_map_unreachable():
    with pytest.raises(MixerError):
        rabi_rates([make_cfg()], 5.0e7, inverse=True)


def test_drive_envelope_value_holds_final_sample():
    rate = 1e9
    env = DriveEnvelope(5e9, np.full(10, 2e6, dtype=complex), rate)
    assert env.duration_s == pytest.approx(10e-9)


def test_drive_envelope_validation():
    samples = np.full(10, 2e6, dtype=complex)
    for bad in (0.0, -5e9, math.nan, math.inf):
        with pytest.raises(MixerError):
            DriveEnvelope(bad, samples, 1e9)
        with pytest.raises(MixerError):
            DriveEnvelope(5e9, samples, bad)


def test_baseband_output_flat_cycle():
    cfg = make_cfg(channel=Tone(F_LO, 0.5, 0.2))
    prog = flat_prog([0.0], a_if=0.5)
    drive = baseband_output(cfg, prog, BitTimeline((1,)))
    assert drive.carrier_hz == pytest.approx(F_LO - F_IF)
    expect = rabi_rates([cfg], 0.5)[0] * np.exp(1j * 0.2)
    assert np.allclose(drive.samples, expect)


_CYCLES = st.lists(st.one_of(
    st.none(),  # idle
    st.tuples(st.one_of(st.floats(1e-6, 1.0),  # duration / period
                        st.integers(1, 256).map(lambda k: k / 256)),
              st.one_of(st.just(0.0), st.floats(0.0, 1.0)),  # peak
              st.floats(-720.0, 720.0),  # theta_if_deg
              st.integers(0, 1)),  # bit
), max_size=6)


@given(_CYCLES, st.sampled_from(list(Nonlinearity)), st.floats(-7.0, 7.0),
       st.floats(10.0, 40.0), st.sampled_from([7e-9, 15e-9, 2.3e-8]))
@settings(max_examples=100, deadline=None)
def test_baseband_output_cycle_arrays(draws, nonlinearity, phi, ratio_db, period):
    cfg = make_cfg(channel=Tone(F_LO, 0.5, phi), nonlinearity=nonlinearity,
                   on_off_ratio_db=ratio_db)
    cycles = [CycleSpec(0.0) if d is None else CycleSpec(d[2], Envelope(d[0] * period, d[1]))
              for d in draws]
    bits = [1 if d is None else d[3] for d in draws]
    prog = IfProgram(F_IF, period, cycles, quantized=False)
    drive = baseband_output(cfg, prog, BitTimeline(bits))
    assert drive.samples.dtype == complex
    per_cycle = drive.samples.reshape(len(cycles), SAMPLES_PER_CYCLE)
    t = np.arange(SAMPLES_PER_CYCLE) / drive.envelope_rate_hz
    for row, cyc, bit in zip(per_cycle, cycles, bits):
        if cyc.idle:
            assert not np.any(row) and not np.signbit(row.view(float)).any()
            continue
        scale = 1.0 if bit else cfg.off_leakage
        phase = cfg.channel.phase_rad - math.radians(cyc.theta_if_deg)
        inside = t <= cyc.envelope.duration_s
        expect = scale * rabi_rates([cfg], cyc.envelope.peak)[0] * np.exp(1j * phase)
        assert np.all(row[inside] == expect)
        assert not np.any(row[~inside])


def test_baseband_output_phase_is_minus_theta():
    cfg = make_cfg()
    thetas = [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0]
    prog = flat_prog(thetas)
    drive = baseband_output(cfg, prog, BitTimeline(tuple(1 for _ in thetas)))
    spc = len(drive.samples) // len(thetas)
    phases = np.angle(drive.samples[::spc])
    slope = np.polyfit(
        [math.radians(t) for t in thetas], np.unwrap(phases), 1
    )[0]
    assert slope == pytest.approx(-1.0, abs=1e-9)


def test_baseband_output_bit_gating():
    cfg = make_cfg(on_off_ratio_db=40.0)
    prog = flat_prog([0.0, 0.0])
    drive = baseband_output(cfg, prog, BitTimeline((1, 0)))
    spc = len(drive.samples) // 2
    on, off = drive.samples[0], drive.samples[spc]
    assert abs(off / on) == pytest.approx(10.0 ** (-40.0 / 20.0), rel=1e-12)


def test_baseband_output_idle_cycle_is_silent():
    cfg = make_cfg()
    env = Envelope(15e-9, 1.0)
    prog = IfProgram(F_IF, 15e-9, [CycleSpec(0.0, env), CycleSpec(45.0, None)])
    drive = baseband_output(cfg, prog, BitTimeline((1, 1)))
    spc = len(drive.samples) // 2
    assert np.all(drive.samples[spc:] == 0.0)


def test_baseband_output_errors():
    cfg = make_cfg()
    prog = flat_prog([0.0])
    with pytest.raises(MixerError):
        baseband_output(cfg, prog, BitTimeline((1, 0)))
    bad = flat_prog([0.0], f_if=9.0e9)  # above the LO tone
    with pytest.raises(MixerError):
        baseband_output(cfg, bad, BitTimeline((1,)))


def test_output_spectrum_tones():
    cfg = make_cfg(on_off_ratio_db=28.5, bpf_stopband_db=60.0)
    on = dict(output_spectrum(cfg, F_IF, True))
    off = dict(output_spectrum(cfg, F_IF, False))
    f_diff = F_LO - F_IF
    assert on[f_diff] == pytest.approx(0.0)
    assert off[f_diff] == pytest.approx(-28.5)
    for f in (F_IF, F_LO, F_LO + F_IF):
        assert on[f] == pytest.approx(-60.0)


@pytest.mark.parametrize("f_if, error, message", [
    (F_LO, MixerError, "difference frequency 0.0 Hz is not positive"),
    (9.0e9, MixerError, "difference frequency -1000000000.0 Hz is not positive"),
    (0.0, SignalError, "IF frequency must be positive and finite, got 0.0"),
    (math.inf, SignalError, "IF frequency must be positive and finite, got inf"),
    (math.nan, SignalError, "IF frequency must be positive and finite, got nan"),
])
def test_output_spectrum_checks_if_then_carrier(f_if, error, message):
    # IfProgram's IF check, then the carrier check of baseband_output.
    with pytest.raises(error, match=re.escape(message)):
        output_spectrum(make_cfg(), f_if, True)
