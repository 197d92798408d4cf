import math

import numpy as np
import pytest

from qcvz.calibration import (
    CalibratedPulse,
    CalibrationError,
    calibrate_pulse,
    pulse_drive,
    residual_ratio,
)
from qcvz.demux import ChannelTone
from qcvz.mixer import MixerConfig, Nonlinearity
from qcvz.qubit import QubitParams, ground_state, propagate

F_Q = 4.53202e9
F_LO = 8.0e9


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
    on = pulse_drive(cfg, pulse, repeats=3)
    assert on.duration_s == pytest.approx(75e-9)
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
