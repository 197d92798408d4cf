import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.calibration import CalibratedPulse, pulse_drive
from qcvz.demux import ChannelTone
from qcvz.experiments import run_experiment
from qcvz.mixer import MixerConfig
from qcvz.qubit import QubitParams, free_evolve, ground_state, propagate

F_Q = 4.53202e9
F_LO = 8.0e9
TWO_PI = 2.0 * math.pi


def _apply_pulse(q, cfg, pulse, rho, theta_if_deg=0.0, f_if_hz=None):
    drive = pulse_drive(cfg, pulse, theta_if_deg=theta_if_deg, f_if_hz=f_if_hz)
    return propagate(q, drive, rho).rho_final


def reference_experiment(kind, q, cfg, x90, x180, delays, detuning_hz, thetas, vz_delay_s):
    """Per-point loop: every pulse and delay rebuilt and propagated at each point."""
    if kind == "vz_ramsey":
        p1 = []
        for dth in thetas:
            rho = _apply_pulse(q, cfg, x90, ground_state())
            rho = free_evolve(q, rho, vz_delay_s)
            rho = _apply_pulse(q, cfg, x90, rho, theta_if_deg=float(dth))
            p1.append(rho[1, 1].real)
        return np.array(p1)
    delta = TWO_PI * detuning_hz
    f_if_det = x90.f_lo_hz - (q.f_qubit_hz + detuning_hz) if detuning_hz else None
    p1 = []
    for d in delays:
        if kind == "t1":
            rho = _apply_pulse(q, cfg, x180, ground_state())
            rho = free_evolve(q, rho, float(d))
        elif kind == "ramsey":
            rho = _apply_pulse(q, cfg, x90, ground_state(), f_if_hz=f_if_det)
            rho = free_evolve(q, rho, float(d), delta)
            rho = _apply_pulse(q, cfg, x90, rho, f_if_hz=f_if_det)
        else:  # echo
            rho = _apply_pulse(q, cfg, x90, ground_state())
            rho = free_evolve(q, rho, 0.5 * float(d))
            rho = _apply_pulse(q, cfg, x180, rho)
            rho = free_evolve(q, rho, 0.5 * float(d))
            rho = _apply_pulse(q, cfg, x90, rho)
        p1.append(rho[1, 1].real)
    return np.clip(p1, 0.0, 1.0)


@given(
    kind=st.sampled_from(["t1", "ramsey", "echo", "vz_ramsey"]),
    t1=st.floats(1e-6, 1e-4),
    t2_frac=st.floats(0.05, 1.0),
    detuning_hz=st.one_of(st.just(0.0), st.floats(-2e6, 2e6)),
    # off-resonant pulses make p1 depend on the sign of the frame shift
    qubit_offset_hz=st.one_of(st.just(0.0), st.floats(-5e6, 5e6)),
    delays=st.lists(st.floats(0.0, 1e-4), max_size=8),
    thetas=st.lists(st.floats(-720.0, 720.0), max_size=8),
    amps=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    tau_s=st.floats(5e-9, 3e-8),
    lo_phase=st.floats(0.0, TWO_PI),
    vz_delay_s=st.floats(0.0, 1e-6),
)
@settings(max_examples=60, deadline=None)
def test_run_experiment_matches_per_point_loop(
    kind, t1, t2_frac, detuning_hz, qubit_offset_hz, delays, thetas, amps, tau_s, lo_phase,
    vz_delay_s,
):
    q = QubitParams.from_t2(F_Q + qubit_offset_hz, t1, 2.0 * t1 * t2_frac)
    cfg = MixerConfig(ChannelTone(F_LO, 0.5, lo_phase), 4.0e7)
    x90 = CalibratedPulse(F_LO, F_LO - F_Q, amps[0], tau_s, 0.5 * math.pi)
    x180 = CalibratedPulse(F_LO, F_LO - F_Q, amps[1], tau_s, math.pi)
    grid = np.array([0.0] + sorted(delays))
    want = reference_experiment(kind, q, cfg, x90, x180, grid, detuning_hz, thetas, vz_delay_s)
    if kind == "vz_ramsey":
        got_thetas, got = run_experiment(kind, q, cfg, x90, dtheta_deg=thetas,
                                         vz_delay_s=vz_delay_s)
        assert np.array_equal(got_thetas, np.asarray(thetas, dtype=float))
    else:
        traj = run_experiment(kind, q, cfg, x90, x180, delays_s=grid, detuning_hz=detuning_hz)
        assert np.array_equal(traj.times_s, grid)
        got = traj.p1
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12
