import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.calibration import CalibratedPulse
from qcvz.compiler import Gate, Program, schedule
from qcvz.experiments import (
    VZ_DELAY_S,
    ExperimentError,
    _cycle_maps,
    chevron,
    run_experiment,
    simulate_schedule,
)
from qcvz.mixer import BitTimeline, MixerConfig, MixerError, Nonlinearity, baseband_output
from qcvz.qubit import QubitError, QubitParams, delay_maps, propagate
from qcvz.signals import CycleSpec, Envelope, IfProgram, SignalError, Tone

from oracles import ground_state, ideal_unitary

F_Q = 4.53202e9
F_LO = 8.0e9
TWO_PI = 2.0 * math.pi
PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


def _apply_pulse(q, cfg, pulse, rho, theta_if_deg=0.0, f_if_hz=None):
    env = Envelope(pulse.tau_if_s, pulse.a_if)
    prog = IfProgram(pulse.f_if_hz if f_if_hz is None else f_if_hz, pulse.tau_if_s,
                     [CycleSpec(theta_if_deg, env)], quantized=False)
    cfg = replace(cfg, channel=replace(cfg.channel, freq_hz=pulse.f_lo_hz))
    drive = baseband_output(cfg, prog, BitTimeline((1,)))
    return propagate(q, drive, rho).rho_final


def _free(q, rho, t_s, delta_rad=0.0):
    """rho after a delay: delay_maps' map applied to the Bloch vector (tr rho,
    tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z))."""
    v = np.real([np.trace(rho)] + [np.trace(rho @ p) for p in PAULIS])
    v = delay_maps(q, t_s, delta_rad)[0] @ v
    return 0.5 * (v[0] * np.eye(2) + sum(c * p for c, p in zip(v[1:], PAULIS)))


def reference_experiment(kind, q, cfg, x90, x180, delays, detuning_hz, thetas):
    """Per-point loop: every pulse and delay rebuilt and propagated at each point."""
    if kind == "vz_ramsey":
        p1 = []
        for dth in thetas:
            rho = _apply_pulse(q, cfg, x90, ground_state())
            rho = _free(q, rho, VZ_DELAY_S)
            rho = _apply_pulse(q, cfg, x90, rho, theta_if_deg=float(dth))
            p1.append(rho[1, 1].real)
        return np.array(p1)
    delta = TWO_PI * detuning_hz
    f_if_det = x90.f_lo_hz - (q.f_qubit_hz + detuning_hz) if detuning_hz else None
    p1 = []
    for d in delays:
        if kind == "t1":
            rho = _apply_pulse(q, cfg, x180, ground_state())
            rho = _free(q, rho, float(d))
        elif kind == "ramsey":
            rho = _apply_pulse(q, cfg, x90, ground_state(), f_if_hz=f_if_det)
            rho = _free(q, rho, float(d), delta)
            rho = _apply_pulse(q, cfg, x90, rho, f_if_hz=f_if_det)
        else:  # echo
            rho = _apply_pulse(q, cfg, x90, ground_state())
            rho = _free(q, rho, 0.5 * float(d))
            rho = _apply_pulse(q, cfg, x180, rho)
            rho = _free(q, rho, 0.5 * float(d))
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
)
@settings(max_examples=60, deadline=None)
def test_run_experiment_matches_per_point_loop(
    kind, t1, t2_frac, detuning_hz, qubit_offset_hz, delays, thetas, amps, tau_s, lo_phase,
):
    q = QubitParams.from_t2(F_Q + qubit_offset_hz, t1, 2.0 * t1 * t2_frac)
    cfg = MixerConfig(Tone(F_LO, 0.5, lo_phase), 4.0e7)
    x90 = CalibratedPulse(F_LO, F_LO - F_Q, amps[0], tau_s, 0.5 * math.pi)
    x180 = CalibratedPulse(F_LO, F_LO - F_Q, amps[1], tau_s, math.pi)
    grid = np.array([0.0] + sorted(delays))
    want = reference_experiment(kind, q, cfg, x90, x180, grid, detuning_hz, thetas)
    if kind == "vz_ramsey":
        got_thetas, got = run_experiment(kind, q, cfg, x90, dtheta_deg=thetas)
        assert np.array_equal(got_thetas, np.asarray(thetas, dtype=float))
    else:
        traj = run_experiment(kind, q, cfg, x90, x180, delays_s=grid, detuning_hz=detuning_hz)
        assert np.array_equal(traj.times_s, grid)
        got = traj.p1
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12


def reference_simulate_schedule(sched, program, q_list, cfg_list, x90_list, cycle_period_s):
    """Per-qubit loop: an IF program, its baseband drive and a propagation per
    qubit. Every rolling slot up to the last cycle's is a cycle; an empty slot
    is an idle cycle with bit 0."""
    n = sched.n_qubits
    if not (len(q_list) == len(cfg_list) == len(x90_list) == n):
        raise ExperimentError("schedule/qubit/mixer/pulse counts disagree")
    sim = np.empty(n)
    ideal = np.empty(n)
    at_slot = {c.slot: c for c in sched.cycles}
    slots = range(max(at_slot) + 1 if at_slot else 0)
    for k in range(n):
        pulse = x90_list[k]
        env = Envelope(pulse.tau_if_s, pulse.a_if)
        cycles = [CycleSpec(at_slot[i].theta_if_deg, env) if i in at_slot
                  else CycleSpec(i % 8 * 45.0) for i in slots]
        bits = BitTimeline(tuple(int(i in at_slot and k in at_slot[i].fired) for i in slots))
        prog = IfProgram(pulse.f_if_hz, cycle_period_s, cycles, quantized=False)
        cfg = replace(cfg_list[k], channel=replace(cfg_list[k].channel, freq_hz=pulse.f_lo_hz))
        drive = baseband_output(cfg, prog, bits)
        sim[k] = propagate(q_list[k], drive, ground_state()).p1[-1]
        row = program.codes[k, :program.lens[k]]
        ideal[k] = abs(ideal_unitary(program.table[c] for c in row)[1, 0]) ** 2
    return sim, ideal


CYCLE_S = 15e-9
F_IF = 3.5e9
GATE_NAMES = ["x90", "x180", "h", "s", "sdg", "t", "tdg", "z45", "z90", "z315"]


@st.composite
def cable_cases(draw):
    mode = draw(st.sampled_from(["quantized45", "free"]))
    n = draw(st.integers(1, 4))
    names = st.sampled_from(GATE_NAMES)
    if mode == "free":
        names = st.one_of(names, st.floats(-7.0, 7.0).map(lambda a: f"z:{a!r}"))
    rows = draw(st.lists(st.lists(names, max_size=6), min_size=n, max_size=n))
    qubits = []
    for k in range(n):
        f_lo = 8.0e9 + 2.5e8 * k
        qubits.append(dict(
            f_lo=f_lo,
            f_q=f_lo - F_IF + draw(st.one_of(st.just(0.0), st.floats(-5e6, 5e6))),
            t1=draw(st.one_of(st.just(math.inf), st.floats(1e-6, 1e-4))),
            tphi=draw(st.one_of(st.just(math.inf), st.floats(1e-6, 1e-4))),
            gain=draw(st.floats(1e7, 8e7)),
            nonlinearity=draw(st.sampled_from(list(Nonlinearity))),
            ratio=draw(st.floats(10.0, 100.0)),
            lo_phase=draw(st.floats(0.0, TWO_PI)),
            a_if=draw(st.floats(0.0, 1.0)),
            tau=draw(st.one_of(st.just(CYCLE_S), st.floats(1e-10, CYCLE_S))),
        ))
    return mode, rows, qubits


def build_cable(mode, rows, qubits):
    program = Program(tuple(tuple(Gate.parse(g) for g in row) for row in rows))
    qs = [QubitParams(d["f_q"], d["t1"], d["tphi"]) for d in qubits]
    cfgs = [
        MixerConfig(Tone(d["f_lo"], 0.5, d["lo_phase"]), d["gain"], d["ratio"],
                    d["nonlinearity"])
        for d in qubits
    ]
    x90s = [
        CalibratedPulse(d["f_lo"], F_IF, d["a_if"], d["tau"], 0.5 * math.pi) for d in qubits
    ]
    return schedule(program, mode), program, qs, cfgs, x90s


@given(case=cable_cases())
@settings(max_examples=60, deadline=None)
def test_simulate_schedule_matches_per_qubit_loop(case):
    args = build_cable(*case)
    want_sim, want_ideal = reference_simulate_schedule(*args, CYCLE_S)
    sim, ideal = simulate_schedule(*args, CYCLE_S)
    assert sim.shape == ideal.shape == (args[0].n_qubits,)
    assert np.max(np.abs(sim - want_sim)) < 1e-12
    assert np.max(np.abs(ideal - want_ideal)) < 1e-12


@given(case=cable_cases())
@settings(max_examples=60, deadline=None)
def test_cycle_maps_do_not_depend_on_cable_mates(case):
    # Each qubit is driven through its own mixer, so its maps, after any idle
    # count, are those of a cable of one, bit for bit.
    _, _, qs, cfgs, x90s = build_cable(*case)
    idle = (0, 1, 7)
    maps = _cycle_maps(qs, cfgs, x90s, CYCLE_S, idle=idle)
    assert maps.shape == (len(idle), 2, len(qs), 4, 4)
    for k in range(len(qs)):
        alone = _cycle_maps([qs[k]], [cfgs[k]], [x90s[k]], CYCLE_S, idle=idle)
        assert np.array_equal(maps[:, :, k], alone[:, :, 0], equal_nan=True), k


@pytest.mark.parametrize("t1", [math.inf, 2e-5], ids=["closed", "open"])
def test_overflowed_detuning_gives_nan_populations(t1):
    # A pulse shorter than its cycle leaves a drive-free rest of the cycle, and
    # empty slots leave idle cycles. With f_lo = 1e308 the detuning overflows;
    # every map is then NaN and the populations are an error, with no warning.
    qubit = dict(f_lo=1e308, f_q=4.5e9, t1=t1, tphi=math.inf, gain=4e7,
                 nonlinearity="linear", ratio=30.0, lo_phase=0.0, a_if=0.5, tau=CYCLE_S / 3)
    sched, *args = build_cable("quantized45", [["t", "x90", "x90"]], [qubit])
    assert sched.slot[0] > 0
    with pytest.raises(QubitError, match=r"populations out of \[0, 1\]"):
        simulate_schedule(sched, *args, CYCLE_S)


def test_simulate_schedule_rejects_what_the_loop_rejects():
    qubit = dict(f_lo=8.0e9, f_q=8.0e9 - F_IF, t1=math.inf, tphi=math.inf, gain=4e7,
                 nonlinearity="linear", ratio=30.0, lo_phase=0.0, a_if=0.5, tau=CYCLE_S)
    sched, program, qs, cfgs, x90s = build_cable("quantized45", [["x90"], ["h"]], [qubit] * 2)
    too_long = replace(x90s[1], tau_if_s=2 * CYCLE_S)
    no_carrier = replace(x90s[1], f_if_hz=9.0e9)
    for args, exc in (
        ((sched, program, qs[:1], cfgs, x90s), ExperimentError),
        ((sched, program, qs, cfgs, [x90s[0], too_long]), SignalError),
        ((sched, program, qs, cfgs, [x90s[0], no_carrier]), MixerError),
    ):
        for fn in (reference_simulate_schedule, simulate_schedule):
            with pytest.raises(exc):
                fn(*args, CYCLE_S)
    # The fast path leaves the amplitude to the envelope's peak check.
    for a_if in (1.5, math.nan):
        args = (sched, program, qs, cfgs, [x90s[0], replace(x90s[1], a_if=a_if)], CYCLE_S)
        want = _outcome(reference_simulate_schedule, *args)
        assert want[0] is SignalError
        assert _outcome(simulate_schedule, *args) == want
    # With no cycles no envelope is checked against the cycle period.
    empty = build_cable("quantized45", [["z45"], []], [qubit] * 2)
    want = reference_simulate_schedule(*empty[:4], [x90s[0], too_long], CYCLE_S)
    got = simulate_schedule(*empty[:4], [x90s[0], too_long], CYCLE_S)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _outcome(fn, *args, **kwargs):
    """(exception type, message) that fn raises, or None."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_run_experiment_names_a_missing_grid_or_pulse():
    q = QubitParams(F_Q)
    cfg = MixerConfig(Tone(F_LO, 0.5, 0.0), 4.0e7)
    x90 = CalibratedPulse(F_LO, F_LO - F_Q, 0.5, 15e-9, 0.5 * math.pi)
    x180 = replace(x90, target_angle_rad=math.pi)
    delays = np.array([0.0, 1e-6])
    for kind, pulses, grid, message in (
        ("vz_ramsey", (x90,), {}, "vz_ramsey needs a dtheta grid"),
        ("t1", (x90, x180), {}, "t1 needs a delay grid"),
        ("ramsey", (None, x180), {"delays_s": delays}, "missing calibrated pi/2 pulse"),
        ("echo", (x90, None), {"delays_s": delays}, "missing calibrated pi pulse"),
    ):
        with pytest.raises(ExperimentError) as info:
            run_experiment(kind, q, cfg, *pulses, **grid)
        assert str(info.value) == message, kind


def test_run_experiment_rejects_what_the_loop_rejects():
    q = QubitParams.from_t2(F_Q, 2e-5, 1.5e-5)
    cfg = MixerConfig(Tone(F_LO, 0.5, 0.0), 4.0e7)
    good = CalibratedPulse(F_LO, F_LO - F_Q, 0.5, 15e-9, 0.5 * math.pi)
    bad_fields = [("a_if", 1.5), ("a_if", math.nan), ("tau_if_s", 0.0), ("tau_if_s", math.nan),
                  ("f_if_hz", F_LO), ("f_if_hz", 9.0e9), ("f_if_hz", 0.0),
                  ("f_if_hz", -1.0e9), ("f_if_hz", math.nan)]
    uses = {"t1": ("x180",), "ramsey": ("x90",), "echo": ("x90", "x180"),
            "vz_ramsey": ("x90",)}
    delays, thetas = np.array([0.0, 1e-6]), [0.0, 90.0]
    for kind, pulses in uses.items():
        for which in pulses:
            for field, value in bad_fields:
                x90, x180 = good, replace(good, target_angle_rad=math.pi)
                if which == "x90":
                    x90 = replace(x90, **{field: value})
                else:
                    x180 = replace(x180, **{field: value})
                want = _outcome(reference_experiment, kind, q, cfg, x90, x180, delays, 0.0,
                                thetas)
                got = _outcome(run_experiment, kind, q, cfg, x90, x180, delays_s=delays,
                               dtheta_deg=thetas)
                assert want is not None and got == want, (kind, which, field, value, got)


def reference_chevron(q, cfg, f_lo_hz, f_if_grid, tau_grid, mixer_on=True, a_if=1.0):
    """Per-column loop: an IF program, its baseband drive and a propagation per f_if."""
    f_if_grid = np.asarray(f_if_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if f_if_grid.size == 0 or tau_grid.size == 0:
        raise ExperimentError("empty sweep grid")
    cfg = replace(cfg, channel=replace(cfg.channel, freq_hz=f_lo_hz))
    tau_max = float(tau_grid.max())
    order = np.argsort(tau_grid)
    out = np.empty((len(f_if_grid), len(tau_grid)))
    env = Envelope(tau_max, a_if)
    for i, f_if in enumerate(f_if_grid):
        prog = IfProgram(f_if, tau_max, [CycleSpec(0.0, env)], quantized=True)
        drive = baseband_output(cfg, prog, BitTimeline((1 if mixer_on else 0,)))
        # The drive can end an ulp short of tau_max; a tau <= 0 reads p1(0).
        taus = np.clip(tau_grid[order], 0.0, drive.duration_s)
        out[i, order] = propagate(q, drive, ground_state(), taus).p1
    return out


@given(
    t1=st.one_of(st.just(math.inf), st.floats(1e-6, 1e-4)),
    tphi=st.one_of(st.just(math.inf), st.floats(1e-6, 1e-4)),
    gain=st.floats(1e7, 8e7),
    nonlinearity=st.sampled_from(list(Nonlinearity)),
    ratio=st.floats(10.0, 100.0),
    lo_phase=st.floats(0.0, TWO_PI),
    f_lo=st.floats(7.9e9, 8.1e9),
    # unsorted, possibly repeated, one column or many
    f_if_offsets=st.lists(st.floats(-8e6, 8e6), min_size=1, max_size=5),
    # unsorted, with taus <= 0 that read p1(0); at least one tau is positive
    taus=st.lists(st.floats(-2e-7, 3e-6), min_size=1, max_size=6).filter(lambda t: max(t) > 0),
    mixer_on=st.booleans(),
    a_if=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_chevron_matches_per_column_loop(
    t1, tphi, gain, nonlinearity, ratio, lo_phase, f_lo, f_if_offsets, taus, mixer_on, a_if,
):
    q = QubitParams(F_Q, t1, tphi)
    cfg = MixerConfig(Tone(F_LO, 0.5, lo_phase), gain, ratio, nonlinearity)
    f_if = (f_lo - F_Q) + np.array(f_if_offsets)
    try:
        want = reference_chevron(q, cfg, f_lo, f_if, taus, mixer_on, a_if)
    except Exception as exc:
        # A subnormal tau_max leaves no finite sample rate to drive at; the
        # vectorised sweep must refuse it with the same error.
        got = _outcome(chevron, q, cfg, f_lo, f_if, taus, mixer_on, a_if)
        assert got == (type(exc), str(exc))
        return
    got = chevron(q, cfg, f_lo, f_if, taus, mixer_on, a_if)
    assert got.shape == want.shape == (len(f_if), len(taus))
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("q", [QubitParams(F_Q), QubitParams.from_t2(F_Q, 2e-5, 1.5e-5)],
                         ids=["closed", "open"])
def test_chevron_at_zero_amplitude_reads_the_delay_p1(q):
    # A zero sample is drive-free time, so each column waits from ground.
    cfg = MixerConfig(Tone(F_LO, 0.5, 0.3), 4.0e7)
    f_if = (F_LO - F_Q) + np.array([0.0, 3e6, -8e6])
    taus = np.linspace(0.0, 3e-6, 7)
    for mixer_on in (True, False):
        got = chevron(q, cfg, F_LO, f_if, taus, mixer_on, a_if=0.0)
        for column, f in zip(got, f_if):
            waits = delay_maps(q, taus, TWO_PI * ((F_LO - f) - F_Q))
            want = np.clip(waits @ [1.0, 0.0, 0.0, 1.0] @ [0.5, 0.0, 0.0, -0.5], 0.0, 1.0)
            assert np.array_equal(column, want), (mixer_on, f)


def test_chevron_rejects_what_the_loop_rejects():
    q = QubitParams.from_t2(F_Q, 2e-5, 1.5e-5)
    cfg = MixerConfig(Tone(F_LO, 0.5, 0.3), 4.0e7)
    center = F_LO - F_Q
    taus = np.linspace(1e-7, 1e-6, 4)
    cases = [
        # (f_if grid, tau grid, a_if); the bad column is not the first one
        ([center, 0.0], taus, 0.5),
        ([center, center, -1.0e9], taus, 0.5),
        ([center, math.nan], taus, 0.5),
        ([center, math.inf], taus, 0.5),
        ([center, F_LO], taus, 0.5),
        ([center, 9.0e9, math.nan], taus, 0.5),
        ([center, math.nan, 9.0e9], taus, 0.5),
        ([center], taus, 1.5),
        ([center], taus, -0.1),
        ([center], taus, math.nan),
        ([center, 0.0], taus, 1.5),
        ([center], [-1e-7, 0.0], 0.5),
        ([center], [1e-7, math.nan], 0.5),
        ([center], [1e-7, math.inf], 0.5),
        ([center], [1e-320], 0.5),
        ([center], [1e300, 1.0], 0.5),  # every population NaN
        ([], taus, 0.5),
        ([center], [], 0.5),
    ]
    for f_if, tau_grid, a_if in cases:
        want = _outcome(reference_chevron, q, cfg, F_LO, f_if, tau_grid, a_if=a_if)
        got = _outcome(chevron, q, cfg, F_LO, f_if, tau_grid, a_if=a_if)
        assert want is not None and got == want, (f_if, tau_grid, a_if, got)
    assert got[0] is ExperimentError
    assert _outcome(chevron, q, cfg, F_LO, [center], [1e300, 1.0])[0] is QubitError
