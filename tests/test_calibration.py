import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.calibration import (
    _LO_CHECKS,
    _TARGET_CHECKS,
    CalibratedPulse,
    CalibrationError,
    calibrate_pulse,
    calibrate_pulses,
)
from qcvz.experiments import residual_ratio
from qcvz.mixer import (
    BitTimeline,
    MixerConfig,
    MixerError,
    Nonlinearity,
    baseband_output,
    rabi_rates,
)
from qcvz.qubit import FitModel, QubitParams, fit_curve, propagate
from qcvz.signals import (
    CycleSpec,
    Envelope,
    IfProgram,
    SignalError,
    Tone,
    raise_first,
)

from oracles import ground_state

F_Q = 4.53202e9
F_LO = 8.0e9
F_LO_LOW = 4.0e9  # below the qubit


def make_cfg(gain=1.0e7, nonlinearity=Nonlinearity.LINEAR, ratio=28.5):
    return MixerConfig(
        channel=Tone(F_LO, 0.5, 0.0),
        gain_hz_per_unit=gain,
        on_off_ratio_db=ratio,
        nonlinearity=nonlinearity,
    )


def test_pulse_roundtrip():
    p = CalibratedPulse(F_LO, F_LO - F_Q, 0.5, 25e-9, math.pi / 2)
    assert p.f_lo_hz - p.f_if_hz == pytest.approx(F_Q)
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
    for phase in (0.0, 0.7, 2.5):
        cfg = MixerConfig(Tone(F_LO, 0.5, phase), 4.0e7)
        for angle in (math.pi / 2, math.pi):
            pulse = calibrate_pulse(q, cfg, angle, 15e-9, F_LO)
            assert abs(rotation_angle(q, cfg, pulse) - angle) <= 1e-12


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


def test_residual_ratio_tracks_leakage():
    q = QubitParams(F_Q)
    eps = 0.05
    cfg = make_cfg(gain=2.0e7, ratio=-20.0 * math.log10(eps))
    pts = residual_ratio(q, cfg, [0.4, 1.0], F_LO)
    for a, ratio in pts:
        assert ratio == pytest.approx(eps, abs=0.005)


def reference_residual_ratio(q, cfg, a_if_grid, f_lo_hz, periods=3.0):
    """Per-point loop: each mixer state's Rabi trace propagated on its baseband
    drive and read at the drive's sample edges."""
    eps = cfg.off_leakage
    out = []
    for a in a_if_grid:
        f_on = rabi_rates([cfg], float(a))[0]
        freqs = {}
        for bit, f_eff in ((1, f_on), (0, eps * f_on)):
            pulse = CalibratedPulse(f_lo_hz, f_lo_hz - q.f_qubit_hz, a, periods / f_eff, math.pi)
            drive = _pulse_drive(cfg, pulse, a, (bit,))
            edges = np.arange(len(drive.samples) + 1) / drive.envelope_rate_hz
            traj = propagate(q, drive, ground_state(), edges)
            freqs[bit] = fit_curve(FitModel.RABI_SINUSOID, traj.times_s, traj.p1).params["f"]
        out.append((a, freqs[0] / freqs[1]))
    return out


def test_residual_ratio_matches_drive_propagation():
    grid = [0.2, 0.6, 1.0]
    for q in (QubitParams(F_Q), QubitParams.from_t2(F_Q, 2e-6, 1.5e-6)):
        for cfg in (make_cfg(gain=2.0e7), make_cfg(gain=4.0e7, ratio=20.0,
                                                    nonlinearity=Nonlinearity.SINE_SATURATING)):
            got = residual_ratio(q, cfg, grid, F_LO)
            want = reference_residual_ratio(q, cfg, grid, F_LO)
            assert [a for a, _ in got] == grid
            assert max(abs(g - w) for (_, g), (_, w) in zip(got, want)) <= 1e-12


def test_residual_ratio_rejects_bad_grid():
    with pytest.raises(CalibrationError):
        residual_ratio(QubitParams(F_Q), make_cfg(), [1.5], F_LO)


def test_residual_ratio_reads_nan_where_the_mixer_gives_no_drive():
    # At a_if = 0 the Rabi rate is 0 in both mixer states: no trace to fit.
    pts = residual_ratio(QubitParams(F_Q), make_cfg(), [0.0], F_LO)
    assert len(pts) == 1 and pts[0][0] == 0.0 and math.isnan(pts[0][1])


def test_calibrate_pulses_rejects_counts_that_disagree():
    q, cfg = QubitParams(F_Q), make_cfg()
    for cfgs, f_los in (([cfg, cfg], [F_LO]), ([cfg], [F_LO, F_LO]), ([], [])):
        with pytest.raises(CalibrationError) as info:
            calibrate_pulses([q], cfgs, math.pi, 50e-9, f_los)
        assert str(info.value) == "qubit/mixer/LO counts disagree"


TWO_PI = 2.0 * math.pi


def _pulse_drive(cfg, pulse, a_if, bits):
    """The drive of one flat pulse per bit, each filling its cycle."""
    env = Envelope(pulse.tau_if_s, a_if)
    prog = IfProgram(pulse.f_if_hz, pulse.tau_if_s, [CycleSpec(0.0, env)] * len(bits),
                     quantized=False)
    cfg = replace(cfg, channel=replace(cfg.channel, freq_hz=pulse.f_lo_hz))
    return baseband_output(cfg, prog, BitTimeline(bits))


def rotation_angle(q, cfg, pulse):
    """The angle one pulse turns q's closed twin by from ground, propagated on
    its drive and read from the Bloch vector as atan2(|(x, y)|, z)."""
    rho = propagate(q.closed(), _pulse_drive(cfg, pulse, pulse.a_if, (1,)),
                    ground_state()).rho_final
    return math.atan2(2.0 * abs(rho[0, 1]), (rho[0, 0] - rho[1, 1]).real)


def reference_checks(q, cfg, target_angle_rad, tau_if_s, f_lo_hz):
    """The per-qubit checks, in their order: raise what calibrating q alone
    raises. A bad duration or IF frequency is rejected by building the drive."""
    if not 0.0 <= target_angle_rad <= math.pi:
        raise CalibrationError(f"target angle must be in [0, pi], got {target_angle_rad}")
    f_if = f_lo_hz - q.f_qubit_hz
    if f_if <= 0:
        raise CalibrationError(f"f_lo={f_lo_hz} below qubit frequency {q.f_qubit_hz}")
    if target_angle_rad == 0.0:
        return
    max_angle = TWO_PI * rabi_rates([cfg], 1.0)[0] * tau_if_s
    if max_angle < target_angle_rad:
        raise CalibrationError(
            f"target {target_angle_rad:.4f} rad unreachable: max angle "
            f"{max_angle:.4f} rad at a_if=1"
        )
    _pulse_drive(cfg, CalibratedPulse(f_lo_hz, f_if, 1.0, tau_if_s, target_angle_rad), 1.0, (1,))


def assert_calibrates(qs, cfgs, angle, tau, f_los):
    """calibrate_pulses raises the error the first failing qubit's checks raise
    (the numbers in its message may differ in the last digits). Otherwise each
    pulse is resonant, turns the closed twin by its target within 1e-12 rad,
    and has exactly the closed twin's a_if."""
    try:
        for q, cfg, f_lo in zip(qs, cfgs, f_los):
            reference_checks(q, cfg, angle, tau, f_lo)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            calibrate_pulses(qs, cfgs, angle, tau, f_los)
        number = r"-?\d[\d.e+-]*"
        assert re.sub(number, "#", str(got.value)) == re.sub(number, "#", str(exc))
        return
    got = calibrate_pulses(qs, cfgs, angle, tau, f_los)
    assert len(got) == len(qs)
    for q, cfg, f_lo, g in zip(qs, cfgs, f_los, got):
        assert (g.f_lo_hz, g.f_if_hz, g.tau_if_s, g.target_angle_rad) == (
            f_lo, f_lo - q.f_qubit_hz, tau, angle)
        assert abs(rotation_angle(q, cfg, g) - angle) <= 1e-12
        assert calibrate_pulse(q.closed(), cfg, angle, tau, f_lo) == g


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
            Tone(F_LO, 0.5, draw(st.floats(0.0, TWO_PI))),
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
    assert_calibrates(qs, cfgs, angle, tau, f_los)


def test_calibrate_pulses_raises_like_per_qubit_loop():
    q = QubitParams(F_Q)
    weak = make_cfg(gain=1.0e6)
    leaky = QubitParams(F_Q, 1e-6, 1e-6)  # T1 and Tphi do not enter the amplitude
    turned = MixerConfig(Tone(F_LO, 0.5, 4.0), 2e7, nonlinearity=Nonlinearity.LINEAR)
    for qs, cfgs, angle in (([leaky], [make_cfg(gain=4e7)], math.pi / 2),
                            ([q], [turned], 0.5)):
        pulse = calibrate_pulse(qs[0], cfgs[0], angle, 50e-9, F_LO)
        assert pulse.a_if == rabi_rates([cfgs[0]], angle / (TWO_PI * 50e-9), inverse=True)[0]
        assert_calibrates(qs, cfgs, angle, 50e-9, [F_LO])
    for qs, cfgs, angle, f_los in (
        ([q], [make_cfg()], 4.0, [F_LO]),  # angle outside [0, pi]
        ([q, q], [make_cfg()] * 2, math.pi / 2, [F_LO, 4.0e9]),  # f_lo below the qubit
        ([q, q], [make_cfg(), weak], math.pi, [F_LO] * 2),  # unreachable target
        ([q, q], [make_cfg()] * 2, 0.0, [F_LO] * 2),  # zero angle
        ([leaky, q], [make_cfg(gain=4e7), weak], math.pi / 2, [F_LO] * 2),  # qubit 1 unreachable
        # the phase-4 rad mixer calibrates; the other qubit's f_lo is below it
        ([q, q], [make_cfg(gain=2e7), turned], 0.5, [F_LO_LOW, F_LO]),
        ([q, q], [turned, make_cfg(gain=2e7)], 0.5, [F_LO, F_LO_LOW]),
    ):
        assert_calibrates(qs, cfgs, angle, 50e-9, f_los)
    assert calibrate_pulses([], [], math.pi, 50e-9, []) == []


def _found_case(phase, gain, angle, a_if, q=QubitParams(F_Q), nonlinearity="sine_saturating"):
    return q, MixerConfig(Tone(F_LO, 0.5, phase), gain, nonlinearity=nonlinearity), angle, a_if


@pytest.mark.parametrize("q, cfg, angle, a_if", [
    # a drive phase off the x axis used to stall the amplification stage
    *(_found_case(phase, 4e7, 1.0, 0.050714) for phase in (1.0, 2.0, 3.14)),
    # decay during the search used to pin a_if near 1 without an error
    _found_case(0.0, 4e7, math.pi, 0.160861, q=QubitParams(F_Q, 2e-5, 2e-5)),
    # the search used to ask this mixer for a negative rate (MixerError)
    _found_case(4.0, 2e7, 0.5, 0.5 / (TWO_PI * 50e-9) / 2e7, nonlinearity="linear"),
], ids=["phase-1", "phase-2", "phase-3.14", "open-qubit", "linear-phase-4"])
def test_pulses_the_search_got_wrong(q, cfg, angle, a_if):
    pulse = calibrate_pulse(q, cfg, angle, 50e-9, F_LO)
    assert pulse == calibrate_pulse(q.closed(), cfg, angle, 50e-9, F_LO)
    assert pulse.a_if == pytest.approx(a_if, abs=1e-6)
    assert abs(rotation_angle(q, cfg, pulse) - angle) <= 1e-12


def reference_calibrate_pulses(qs, cfgs, target_angle_rad, tau_if_s, f_lo_hz_list):
    """calibrate_pulses as it read when the reach limit ran the forward map."""
    n = len(qs)
    if not len(cfgs) == len(f_lo_hz_list) == n:
        raise CalibrationError("qubit/mixer/LO counts disagree")
    if not 0.0 <= target_angle_rad <= math.pi:
        raise CalibrationError(f"target angle must be in [0, pi], got {target_angle_rad}")
    target, tau = target_angle_rad, tau_if_s
    f_lo = np.array(f_lo_hz_list, dtype=float)
    f_q = np.array([q.f_qubit_hz for q in qs], dtype=float)
    f_if = f_lo - f_q
    # At tau = 0 an overflowing 2 pi gain gives inf * 0, silenced as in calibrate_pulses.
    with np.errstate(over="ignore", invalid="ignore"):
        max_angle = TWO_PI * rabi_rates(cfgs, np.ones(n)) * tau
    raise_first(_LO_CHECKS + (_TARGET_CHECKS if target else ()), f_lo_hz=f_lo, f_qubit_hz=f_q,
                f_if_hz=f_if, carrier_hz=f_lo - f_if, target=target, max_angle=max_angle,
                duration_s=tau, peak=1.0, cycle_period_s=tau)
    rate = target / (TWO_PI * tau) if target else 0.0
    a = rabi_rates(cfgs, np.full(n, rate), inverse=True)
    return [
        CalibratedPulse(f_lo_hz_list[k], float(f_if[k]), float(a[k]), tau, target)
        for k in range(n)
    ]


@st.composite
def reach_cases(draw):
    """Gains and durations over the whole float range, so targets are often
    out of reach and 2 pi gain tau can overflow."""
    n = draw(st.integers(1, 4))
    cfgs = [make_cfg(gain=draw(st.floats(1e5, 1e8) | st.floats(1e-300, 1e308)),
                     nonlinearity=draw(st.sampled_from(list(Nonlinearity))))
            for _ in range(n)]
    f_los = [draw(st.sampled_from([F_LO, F_LO, F_LO_LOW])) for _ in range(n)]
    angle = draw(st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi]))
    tau = draw(st.floats(5e-9, 5e-8) | st.floats(0.0, 1e308) | st.sampled_from([1e308, 0.0]))
    return [QubitParams(F_Q)] * n, cfgs, angle, tau, f_los


@given(case=reach_cases())
@settings(max_examples=300, deadline=None)
def test_reach_limit_from_the_gain_matches_the_forward_map(case):
    try:
        want = reference_calibrate_pulses(*case)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            calibrate_pulses(*case)
        assert str(got.value) == str(exc)
        return
    assert calibrate_pulses(*case) == want


def test_a_batch_runs_every_calibration_check_before_the_rate_check():
    # 2 pi gain overflows, so qubit 0's max angle is inf and passes the reach
    # check; its rate then exceeds the gain. Alone it raises that MixerError,
    # but in a batch qubit 1's reach error comes first.
    cfgs = [make_cfg(gain=g) for g in (2.8611174857570283e307, 1e5)]
    q, tau = QubitParams(F_Q), 2.2e-309
    rate = "Rabi rate 7.234315595086159e+307 Hz unreachable with gain 2.8611174857570283e+307"
    reach = "target 1.0000 rad unreachable: max angle 0.0000 rad at a_if=1"
    for fn in (reference_calibrate_pulses, calibrate_pulses):
        with pytest.raises(MixerError, match=re.escape(rate)):
            fn([q], cfgs[:1], 1.0, tau, [F_LO])
        with pytest.raises(CalibrationError, match=re.escape(reach)):
            fn([q, q], cfgs, 1.0, tau, [F_LO, F_LO])


def test_zero_duration_with_an_overflowing_gain_raises_only_the_envelope_error():
    # 2 pi gain overflows to inf and inf * 0 s is NaN: that passes the reach
    # check, and the envelope check rejects the duration, with no warning.
    cfg = MixerConfig(Tone(8e9, 0.5), 1e308, nonlinearity=Nonlinearity.LINEAR)
    message = "envelope duration must be positive and finite, got 0.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SignalError, match=re.escape(message)):
            calibrate_pulse(QubitParams(4.5e9), cfg, math.pi / 2, 0.0, 8e9)
