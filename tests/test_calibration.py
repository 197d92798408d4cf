import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.calibration import (
    CalibratedPulse,
    CalibrationError,
    calibrate_pulse,
    calibrate_pulses,
    pulse_drive,
    residual_ratio,
)
from qcvz.demux import ChannelTone
from qcvz.mixer import (
    BitTimeline,
    MixerConfig,
    MixerError,
    Nonlinearity,
    amplitude_map,
    baseband_output,
    inverse_amplitude_map,
)
from qcvz.qubit import QubitParams, ground_state, propagate
from qcvz.signals import CycleSpec, Envelope, EnvelopeShape, make_if_program

F_Q = 4.53202e9
F_LO = 8.0e9
F_LO_LOW = 4.0e9  # below the qubit


def make_cfg(gain=1.0e7, nonlinearity=Nonlinearity.LINEAR, ratio=28.5):
    return MixerConfig(
        channel=ChannelTone(F_LO, 0.5, 0.0),
        gain_hz_per_unit=gain,
        on_off_ratio_db=ratio,
        nonlinearity=nonlinearity,
    )


def test_pulse_roundtrip():
    p = CalibratedPulse(F_LO, F_LO - F_Q, 0.5, 25e-9, math.pi / 2)
    assert p.carrier_hz == pytest.approx(F_Q)
    assert CalibratedPulse.from_dict(p.to_dict()) == p


def test_calibrate_linear_closed_form():
    # pi/2 in 50 ns from a 10 MHz/unit linear mixer: a_if = 0.5 exactly
    q = QubitParams(F_Q)
    pulse = calibrate_pulse(q, make_cfg(), math.pi / 2, 50e-9, F_LO)
    assert pulse.a_if == pytest.approx(0.5, abs=2e-5)
    assert pulse.f_if_hz == pytest.approx(F_LO - F_Q)


def test_calibrate_saturating_closed_form():
    # same rotation through the saturating map: a_if = (2/pi) asin(0.5)
    q = QubitParams(F_Q)
    cfg = make_cfg(nonlinearity=Nonlinearity.SINE_SATURATING)
    pulse = calibrate_pulse(q, cfg, math.pi / 2, 50e-9, F_LO)
    assert pulse.a_if == pytest.approx(2.0 / math.pi * math.asin(0.5), abs=2e-5)


def test_calibrated_pulse_rotates_as_requested():
    q = QubitParams(F_Q)
    cfg = make_cfg(gain=4.0e7, nonlinearity=Nonlinearity.SINE_SATURATING)
    for angle, p1_expect in ((math.pi / 2, 0.5), (math.pi, 1.0)):
        pulse = calibrate_pulse(q, cfg, angle, 15e-9, F_LO)
        drive = pulse_drive(cfg, pulse)
        traj = propagate(q, drive, ground_state())
        assert traj.p1[-1] == pytest.approx(p1_expect, abs=1e-6)


def test_calibrate_zero_angle():
    pulse = calibrate_pulse(QubitParams(F_Q), make_cfg(), 0.0, 50e-9, F_LO)
    assert pulse.a_if == 0.0


def test_calibrate_unreachable():
    q = QubitParams(F_Q)
    with pytest.raises(CalibrationError):
        calibrate_pulse(q, make_cfg(gain=1.0e6), math.pi, 50e-9, F_LO)
    with pytest.raises(CalibrationError):
        calibrate_pulse(q, make_cfg(), math.pi / 2, 50e-9, 4.0e9)
    with pytest.raises(CalibrationError):
        calibrate_pulse(q, make_cfg(), 4.0, 50e-9, F_LO)


def test_pulse_drive_repeats_and_gating():
    cfg = make_cfg()
    pulse = CalibratedPulse(F_LO, F_LO - F_Q, 0.5, 25e-9, math.pi / 2)
    on = pulse_drive(cfg, pulse)
    off = pulse_drive(cfg, pulse, on=False)
    assert abs(off.samples[0] / on.samples[0]) == pytest.approx(
        cfg.off_leakage, rel=1e-12
    )


def test_residual_ratio_tracks_leakage():
    q = QubitParams(F_Q)
    eps = 0.05
    cfg = make_cfg(gain=2.0e7, ratio=-20.0 * math.log10(eps))
    pts = residual_ratio(q, cfg, [0.4, 1.0], F_LO)
    for a, ratio in pts:
        assert ratio == pytest.approx(eps, abs=0.005)


def test_residual_ratio_rejects_bad_grid():
    with pytest.raises(CalibrationError):
        residual_ratio(QubitParams(F_Q), make_cfg(), [1.5], F_LO)


# Per-qubit reference: every iteration builds a repeated-pulse drive and propagates it.
TWO_PI = 2.0 * math.pi
PREP_RHO = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)


def _run_pulses(q, cfg, pulse, a_if, repeats, rho0):
    env = Envelope(EnvelopeShape.FLAT, pulse.tau_if_s, a_if)
    prog = make_if_program(pulse.f_if_hz, pulse.tau_if_s, [CycleSpec(0.0, env)] * repeats,
                           quantized=False)
    cfg = replace(cfg, channel=replace(cfg.channel, freq_hz=pulse.f_lo_hz))
    drive = baseband_output(cfg, prog, BitTimeline((1,) * repeats))
    return float(propagate(q, drive, rho0).p1[-1])


def _estimate_angle(p1, expected_total, repeats):
    c = float(np.clip(1.0 - 2.0 * p1, -1.0, 1.0))
    base = math.acos(c)
    best = None
    m0 = round(expected_total / TWO_PI)
    for m in (m0 - 1, m0, m0 + 1):
        for total in (base + TWO_PI * m, -base + TWO_PI * m):
            if best is None or abs(total - expected_total) < abs(best - expected_total):
                best = total
    return (best - 0.5 * math.pi) / repeats


def reference_calibrate_pulse(q, cfg, target_angle_rad, tau_if_s, f_lo_hz):
    if not 0.0 <= target_angle_rad <= math.pi:
        raise CalibrationError(f"target angle must be in [0, pi], got {target_angle_rad}")
    f_if = f_lo_hz - q.f_qubit_hz
    if f_if <= 0:
        raise CalibrationError(f"f_lo={f_lo_hz} below qubit frequency {q.f_qubit_hz}")
    pulse = CalibratedPulse(f_lo_hz, f_if, 1.0, tau_if_s, target_angle_rad)
    if target_angle_rad == 0.0:
        return CalibratedPulse(f_lo_hz, f_if, 0.0, tau_if_s, 0.0)
    max_angle = TWO_PI * amplitude_map(cfg, 1.0) * tau_if_s
    if max_angle < target_angle_rad:
        raise CalibrationError(
            f"target {target_angle_rad:.4f} rad unreachable: max angle "
            f"{max_angle:.4f} rad at a_if=1"
        )
    lo, hi = 0.0, 1.0
    a = inverse_amplitude_map(cfg, target_angle_rad / (TWO_PI * tau_if_s))
    for _ in range(30):
        p1 = _run_pulses(q, cfg, pulse, a, 1, ground_state())
        angle = 2.0 * math.asin(math.sqrt(min(p1, 1.0)))
        if abs(angle - target_angle_rad) < 5e-3:
            break
        if angle < target_angle_rad:
            lo = a
        else:
            hi = a
        a = 0.5 * (lo + hi)
    for n in (2, 4, 8):
        for _ in range(8):
            p1 = _run_pulses(q, cfg, pulse, a, n, PREP_RHO)
            est = _estimate_angle(p1, 0.5 * math.pi + n * target_angle_rad, n)
            err = est - target_angle_rad
            if abs(err) < 1e-6:
                break
            omega = amplitude_map(cfg, a) * target_angle_rad / est
            a = inverse_amplitude_map(cfg, min(omega, cfg.gain_hz_per_unit))
    p1 = _run_pulses(q, cfg, pulse, a, 8, PREP_RHO)
    est = _estimate_angle(p1, 0.5 * math.pi + 8 * target_angle_rad, 8)
    final_err = abs(est - target_angle_rad)
    if final_err > 1e-4:
        raise CalibrationError(
            f"amplification stalled: angle error {final_err:.2e} rad > 1e-4"
        )
    return CalibratedPulse(f_lo_hz, f_if, a, tau_if_s, target_angle_rad)


def assert_matches_reference(qs, cfgs, angle, tau, f_los):
    """calibrate_pulses agrees with the per-qubit loop: the same a_if within
    1e-12, or the error the first failing qubit raises (the numbers in its
    message may differ in the last digits)."""
    try:
        want = [reference_calibrate_pulse(*args, angle, tau, f) for args, f in
                zip(zip(qs, cfgs), f_los)]
    except Exception as exc:  # the loop stops at its first failing qubit
        with pytest.raises(type(exc)) as got:
            calibrate_pulses(qs, cfgs, angle, tau, f_los)
        number = r"-?\d[\d.e+-]*"
        assert re.sub(number, "#", str(got.value)) == re.sub(number, "#", str(exc))
        return
    got = calibrate_pulses(qs, cfgs, angle, tau, f_los)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g.a_if - w.a_if) <= 1e-12
        assert (g.f_lo_hz, g.f_if_hz, g.tau_if_s, g.target_angle_rad) == (
            w.f_lo_hz, w.f_if_hz, w.tau_if_s, w.target_angle_rad)


@st.composite
def calibration_sets(draw):
    n = draw(st.integers(1, 3))
    qs, cfgs, f_los = [], [], []
    for _ in range(n):
        f_q = F_Q + draw(st.floats(-2e8, 2e8))
        closed = draw(st.booleans())
        qs.append(QubitParams(
            f_q,
            math.inf if closed else draw(st.floats(1e-5, 1e-3)),
            math.inf if closed else draw(st.floats(1e-5, 1e-3)),
        ))
        cfgs.append(MixerConfig(
            ChannelTone(F_LO, 0.5, draw(st.floats(0.0, TWO_PI))),
            draw(st.one_of(st.floats(2e7, 8e7), st.floats(1e6, 2e7))),
            draw(st.floats(10.0, 100.0)),
            draw(st.sampled_from(list(Nonlinearity))),
        ))
        f_los.append(draw(st.one_of(st.floats(7.5e9, 8.5e9), st.floats(3.0e9, 4.5e9))))
    angle = draw(st.one_of(
        st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.1, 3.5]), st.floats(0.2, math.pi)))
    tau = draw(st.floats(5e-9, 5e-8))
    return qs, cfgs, angle, tau, f_los


@given(case=calibration_sets())
@settings(max_examples=40, deadline=None)
def test_calibrate_pulses_matches_per_qubit_loop(case):
    qs, cfgs, angle, tau, f_los = case
    assert_matches_reference(qs, cfgs, angle, tau, f_los)


def test_calibrate_pulses_raises_like_per_qubit_loop():
    q = QubitParams(F_Q)
    weak = make_cfg(gain=1.0e6)
    leaky = QubitParams(F_Q, 1e-6, 1e-6)  # the amplification stalls at pi/2 in 50 ns
    with pytest.raises(CalibrationError, match="stalled"):
        calibrate_pulse(leaky, make_cfg(gain=4e7), math.pi / 2, 50e-9, F_LO)
    turned = MixerConfig(ChannelTone(F_LO, 0.5, 4.0), 2e7, nonlinearity=Nonlinearity.LINEAR)
    with pytest.raises(MixerError):
        calibrate_pulse(q, turned, 0.5, 50e-9, F_LO)
    for qs, cfgs, angle, f_los in (
        ([q], [make_cfg()], 4.0, [F_LO]),  # angle outside [0, pi]
        ([q, q], [make_cfg()] * 2, math.pi / 2, [F_LO, 4.0e9]),  # f_lo below the qubit
        ([q, q], [make_cfg(), weak], math.pi, [F_LO] * 2),  # unreachable target
        ([q, q], [make_cfg()] * 2, 0.0, [F_LO] * 2),  # zero angle
        # qubit 0 stalls at the end of the search, qubit 1 fails before it starts
        ([leaky, q], [make_cfg(gain=4e7), weak], math.pi / 2, [F_LO] * 2),
        # the amplification asks the phase-4 rad mixer for a negative rate (MixerError)
        ([q, q], [make_cfg(gain=2e7), turned], 0.5, [F_LO_LOW, F_LO]),
        ([q, q], [turned, make_cfg(gain=2e7)], 0.5, [F_LO, F_LO_LOW]),
    ):
        assert_matches_reference(qs, cfgs, angle, 50e-9, f_los)
    assert calibrate_pulses([], [], math.pi, 50e-9, []) == []
