"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line (visible with -v via
the test name, or with -s via stdout) after its assertions hold.
"""
import json
import math
import time

import numpy as np
import pytest

from qcvz.calibration import calibrate_pulse
from qcvz.cli import main as cli_main
from qcvz.compiler import (
    Gate,
    GateKind,
    Program,
    parallelism_stats,
    schedule,
)
from qcvz.experiments import chevron, residual_ratio, run_experiment, simulate_schedule
from qcvz.mixer import (
    BitTimeline,
    MixerConfig,
    Nonlinearity,
    baseband_output,
    output_spectrum,
)
from qcvz.qubit import (
    FitModel,
    QubitParams,
    fit_curve,
    propagate,
)
from qcvz.resources import cable_count, max_tones, power_estimate
from qcvz.signals import CycleSpec, Envelope, IfProgram, Tone

from oracles import (
    ground_state,
    ideal_unitary,
    lower,
    lowered_unitary,
    phase_distance,
    pulse_product,
    rabi_analytic,
)

TWO_PI = 2.0 * math.pi
F_LO = 8.0e9
F_QUBIT = 4.53202e9
F_IF_CENTER = 3.46798e9
QUARTER = 0.25 * math.pi


def make_cfg(f_lo=F_LO, gain=4.0e7, ratio=28.5, nonlinearity=Nonlinearity.SINE_SATURATING):
    return MixerConfig(
        channel=Tone(f_lo, 0.5, 0.0),
        gain_hz_per_unit=gain,
        on_off_ratio_db=ratio,
        nonlinearity=nonlinearity,
    )


# --------------------------------------------------------------------------
# 1. Chevron symmetry axis


def test_criterion_1_chevron_center():
    t0 = time.monotonic()
    q = QubitParams(F_QUBIT)
    cfg = make_cfg()
    step = 0.2e6
    # offset the grid so the true center does not sit on a grid point
    f_grid = F_IF_CENTER + 0.07e6 + np.arange(-20, 21) * step
    tau_grid = np.linspace(2.5e-8, 2.5e-6, 100)
    a_if = 2.0 / math.pi * math.asin(0.05)  # ~2 MHz peak Rabi rate
    p1 = chevron(q, cfg, F_LO, f_grid, tau_grid, a_if=a_if)
    # each column oscillates at the generalized Rabi frequency; its square
    # is quadratic in f_if with the vertex on the symmetry axis
    f_gen = np.array(
        [
            fit_curve(FitModel.RABI_SINUSOID, tau_grid, col).params["f"]
            for col in p1
        ]
    )
    a2, a1, _ = np.polyfit(f_grid - F_IF_CENTER, f_gen**2, 2)
    center = F_IF_CENTER - a1 / (2.0 * a2)
    elapsed = time.monotonic() - t0
    assert abs(center - F_IF_CENTER) <= step
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 PASS: chevron center {center / 1e9:.6f} GHz "
        f"(target 3.46798, step 0.2 MHz) in {elapsed:.1f} s"
    )


# --------------------------------------------------------------------------
# 2. Coherence recovery through the CLI


def _run_cli(*argv):
    assert cli_main(list(argv)) == 0


def test_criterion_2_coherence_recovery(tmp_path):
    out = str(tmp_path)
    _run_cli("calibrate", "--out", out)
    pulses = str(tmp_path / "pulses.json")

    _run_cli("t1", "--out", out, "--pulses", pulses, "--points", "41",
             "--max-delay-s", "8e-5")
    t1_fit = json.loads((tmp_path / "t1_fit.json").read_text())
    assert t1_fit["params"]["tau"] == pytest.approx(25.3e-6, rel=0.02)

    _run_cli("echo", "--out", out, "--pulses", pulses, "--points", "41",
             "--max-delay-s", "6e-5")
    echo_fit = json.loads((tmp_path / "echo_fit.json").read_text())
    assert echo_fit["params"]["tau"] == pytest.approx(17.0e-6, rel=0.02)

    fringes = {}
    for df, delay, points in ((0.05e6, 8e-5, 81), (0.34e6, 3e-5, 91), (1.01e6, 1e-5, 101)):
        _run_cli("ramsey", "--out", out, "--pulses", pulses,
                 "--points", str(points), "--max-delay-s", str(delay),
                 "--detuning-hz", str(df))
        fit = json.loads((tmp_path / "ramsey_fit.json").read_text())
        assert fit["params"]["f"] == pytest.approx(df, rel=0.01)
        fringes[df] = fit["params"]["f"]
    print(
        "ACCEPTANCE 2 PASS: T1 {:.2f} us, T2e {:.2f} us, fringes {} kHz".format(
            t1_fit["params"]["tau"] * 1e6,
            echo_fit["params"]["tau"] * 1e6,
            [round(v / 1e3, 1) for v in fringes.values()],
        )
    )


# --------------------------------------------------------------------------
# 3. Virtual-Z Ramsey interference


def test_criterion_3_vz_ramsey():
    q = QubitParams(F_QUBIT)  # closed system
    cfg = make_cfg()
    x90 = calibrate_pulse(q, cfg, 0.5 * math.pi, 15e-9, F_LO)
    thetas = np.arange(0.0, 360.0, 5.0)
    _, p1 = run_experiment("vz_ramsey", q, cfg, x90, dtheta_deg=thetas)
    expect = 0.5 * (1.0 + np.cos(np.radians(thetas)))
    resid = float(np.max(np.abs(p1 - expect)))
    assert resid < 1e-3
    print(f"ACCEPTANCE 3 PASS: vz-Ramsey max residual {resid:.2e} < 1e-3")


# --------------------------------------------------------------------------
# 4. Gate-sequence oracle

SYMBOLS = [
    Gate(GateKind.X90),
    Gate(GateKind.X180),
    Gate(GateKind.H),
    Gate(GateKind.S),
    Gate(GateKind.SDG),
    Gate(GateKind.T),
    Gate(GateKind.TDG),
    Gate.z(3.0 * QUARTER),
]


def _transfer_tables():
    """Per-symbol pulse-product and frame transitions, taken from the compiler.

    The virtual frame of any program over SYMBOLS stays on the 45-degree
    grid, so appending a symbol acts on (pulse product, frame index) through
    one of 8 x 8 transfer matrices, each computed with the compiler itself.
    """
    n_sym = len(SYMBOLS)
    a_tab = np.empty((n_sym, 8, 2, 2), dtype=complex)
    f_tab = np.empty((n_sym, 8), dtype=np.int64)
    g_tab = np.empty((n_sym, 2, 2), dtype=complex)
    z_tab = np.empty((8, 2, 2), dtype=complex)
    for f in range(8):
        z_tab[f] = ideal_unitary([Gate.z(f * QUARTER)] if f else [])
    for s, gate in enumerate(SYMBOLS):
        g_tab[s] = ideal_unitary([gate])
        for f in range(8):
            prefix = [Gate.z(f * QUARTER)] if f else []
            lq = lower(prefix + [gate])
            a_tab[s, f] = pulse_product(lq.thetas_deg)
            f_new = lq.final_frame_rad / QUARTER
            assert abs(f_new - round(f_new)) < 1e-9
            f_tab[s, f] = round(f_new) % 8
    return a_tab, f_tab, g_tab, z_tab


def _mul(a, b):
    """Products of two stacks of 2x2 matrices held as (2, 2, N), entry by entry."""
    return np.array([[a[i, 0] * b[0, j] + a[i, 1] * b[1, j] for j in (0, 1)] for i in (0, 1)])


def _max_distance(u, v):
    """Largest phase_distance between stacks u and v, both (2, 2, N)."""
    tr = (v.conj() * u).sum(axis=(0, 1))
    diff = u - np.exp(1j * np.angle(tr)) * v
    return float(np.sqrt(np.max((diff.real ** 2 + diff.imag ** 2).sum(axis=(0, 1)))))


def test_criterion_4_exhaustive_equivalence():
    a_tab, f_tab, g_tab, z_tab = _transfer_tables()
    # Stacks of 2x2 matrices are (2, 2, N), one contiguous array per entry;
    # a_tab and z_tab are gathered by frame index.
    a_tab = a_tab.transpose(0, 2, 3, 1)  # (symbol, 2, 2, frame)
    g_tab = g_tab[..., None]
    z_tab = z_tab.transpose(1, 2, 0)
    u = np.eye(2, dtype=complex)[..., None]  # ideal unitaries, all programs of one length
    p = u  # lowered pulse products
    f = np.zeros(1, dtype=np.int64)  # frame indices
    worst = 0.0
    n_programs = 0
    for level in range(1, 9):
        grown = []
        for s in range(len(SYMBOLS)):
            u2, p2, f2 = _mul(g_tab[s], u), _mul(a_tab[s][..., f], p), f_tab[s, f]
            worst = max(worst, _max_distance(u2, _mul(z_tab[..., f2], p2)))
            n_programs += f2.size
            if level < 8:  # the last level is checked and dropped one symbol at a time
                grown.append((u2, p2, f2))
        if grown:
            u, p, f = (np.concatenate(x, axis=-1) for x in zip(*grown))
    assert n_programs == 19_173_960
    assert worst < 1e-9
    print(
        f"ACCEPTANCE 4 PASS: {n_programs} programs of length <= 8, "
        f"max phase distance {worst:.2e} < 1e-9"
    )


def test_criterion_4_transfer_tables_match_compiler():
    # the vectorized enumeration must agree with per-program compilation,
    # including Z angles beyond the Z(3pi/4) alphabet representative
    rng = np.random.default_rng(7)
    names = ["x90", "x180", "h", "s", "sdg", "t", "tdg"]
    worst = 0.0
    for _ in range(400):
        length = int(rng.integers(1, 9))
        gates = []
        for _ in range(length):
            if rng.random() < 0.4:
                gates.append(Gate.z(int(rng.integers(0, 8)) * QUARTER))
            else:
                gates.append(Gate.parse(names[int(rng.integers(len(names)))]))
        d = phase_distance(lowered_unitary(lower(gates)), ideal_unitary(gates))
        worst = max(worst, d)
    assert worst < 1e-9
    print(f"ACCEPTANCE 4 PASS (sample): 400 random Z(k pi/4) programs, max {worst:.2e}")


def test_criterion_4_end_to_end_programs():
    program = Program(
        (
            tuple(Gate.parse(n) for n in ("x90", "x90")),
            tuple(Gate.parse(n) for n in ("x90", "t", "x90", "s", "x90")),
            tuple(Gate.parse(n) for n in ("x90", "h", "x90")),
        )
    )
    sched = schedule(program)
    f_los = (8.0e9, 8.25e9, 8.5e9)
    f_if = F_IF_CENTER
    qs = [QubitParams(f - f_if) for f in f_los]
    # high on/off ratio keeps shared-line leakage inside the error budget
    cfgs = [make_cfg(f_lo=f, ratio=100.0) for f in f_los]
    x90s = [
        calibrate_pulse(q, c, 0.5 * math.pi, 15e-9, f)
        for q, c, f in zip(qs, cfgs, f_los)
    ]
    sim, ideal = simulate_schedule(sched, program, qs, cfgs, x90s, 15e-9)
    err = float(np.max(np.abs(sim - ideal)))
    assert err < 1e-3
    print(f"ACCEPTANCE 4 PASS (end-to-end): 3 programs, max |dp1| {err:.2e} < 1e-3")


def test_criterion_4_pulse_then_idle_cycles():
    # Qubit 0 fires once, then sits through cycles it does not fire in:
    # its drive must stop at the end of its pulse's cycle.
    program = Program(
        (
            (Gate.parse("x90"),),
            tuple(Gate.parse("x90") for _ in range(3)),
        )
    )
    sched = schedule(program)
    f_los = (8.0e9, 8.25e9)
    qs = [QubitParams(f - F_IF_CENTER) for f in f_los]
    cfgs = [make_cfg(f_lo=f, ratio=100.0) for f in f_los]
    x90s = [
        calibrate_pulse(q, c, 0.5 * math.pi, 15e-9, f)
        for q, c, f in zip(qs, cfgs, f_los)
    ]
    sim, ideal = simulate_schedule(sched, program, qs, cfgs, x90s, 15e-9)
    err = float(np.max(np.abs(sim - ideal)))
    assert err < 1e-3
    print(f"ACCEPTANCE 4 PASS (pulse then idle): max |dp1| {err:.2e} < 1e-3")


# --------------------------------------------------------------------------
# 5. Scheduling bounds


def test_criterion_5_parallelism_bounds():
    n = 800
    x90 = Gate(GateKind.X90)
    uniform = Program(tuple(tuple([x90] * 10) for _ in range(n)))
    stats_u = parallelism_stats(schedule(uniform))
    assert stats_u.mean_fired == n

    # worst case: every mixer randomly excited at one of the 8 phases
    rng = np.random.default_rng(20260826)
    pulses_per_qubit = 200
    qubits = []
    for _ in range(n):
        k = int(rng.integers(0, 8))
        gates = ([Gate.z(k * QUARTER)] if k else []) + [x90] * pulses_per_qubit
        qubits.append(tuple(gates))
    stats_r = parallelism_stats(schedule(Program(tuple(qubits))))
    assert stats_r.mean_fired == pytest.approx(n / 8.0, rel=0.05)

    # phases re-drawn per pulse beat the 1/8 bound (the rolling candidate
    # re-synchronizes after every firing) but stay inside [N/8, N]
    qubits = []
    for _ in range(n):
        gates = []
        for _ in range(pulses_per_qubit):
            k = int(rng.integers(0, 8))
            if k:
                gates.append(Gate.z(k * QUARTER))
            gates.append(x90)
        qubits.append(tuple(gates))
    stats_i = parallelism_stats(schedule(Program(tuple(qubits))))
    assert n / 8.0 <= stats_i.mean_fired <= n
    print(
        f"ACCEPTANCE 5 PASS: uniform mean {stats_u.mean_fired:.0f} = N, "
        f"random mean {stats_r.mean_fired:.1f} ~ N/8 = {n / 8:.0f} "
        f"(iid phases: {stats_i.mean_fired:.1f} in [N/8, N])"
    )


# --------------------------------------------------------------------------
# 6. Switching: on/off ratios and residual drive


def test_criterion_6_switching():
    deltas = []
    for ratio in (28.5, 45.1, 39.0):
        cfg = make_cfg(ratio=ratio)
        on = dict(output_spectrum(cfg, F_IF_CENTER, True))
        off = dict(output_spectrum(cfg, F_IF_CENTER, False))
        f_diff = F_LO - F_IF_CENTER
        delta = on[f_diff] - off[f_diff]
        assert delta == pytest.approx(ratio, abs=0.1)
        deltas.append(delta)

    eps = 0.05
    q = QubitParams(F_QUBIT)
    cfg = make_cfg(gain=2.0e7, ratio=-20.0 * math.log10(eps))
    pts = residual_ratio(q, cfg, [0.2, 0.4, 0.6, 0.8, 1.0], F_LO)
    ratios = [r for _, r in pts]
    assert all(abs(r - eps) <= 0.005 for r in ratios)
    print(
        f"ACCEPTANCE 6 PASS: on/off deltas {deltas} dB, "
        f"residual ratios {[round(r, 4) for r in ratios]} ~ 0.05"
    )


# --------------------------------------------------------------------------
# 7. Phase control slope


def test_criterion_7_phase_slope():
    cfg = make_cfg()
    thetas = [45.0 * k for k in range(8)]
    env = Envelope(15e-9, 1.0)
    prog = IfProgram(F_IF_CENTER, 15e-9, [CycleSpec(t, env) for t in thetas])
    drive = baseband_output(cfg, prog, BitTimeline(tuple(1 for _ in thetas)))
    spc = len(drive.samples) // len(thetas)
    phases = np.unwrap(np.angle(drive.samples[::spc]))
    slope = np.polyfit(np.radians(thetas), phases, 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-9)
    print(f"ACCEPTANCE 7 PASS: output phase slope {slope:.12f} vs theta_if")


# --------------------------------------------------------------------------
# 8. Resource estimates


def test_criterion_8_resources():
    avg_pw, _ = power_estimate(1)
    assert avg_pw == pytest.approx(110.96)
    assert max_tones(1.0e4, 2.0e9, 5.0e9) == 4000
    assert cable_count(1_000_000, 4000) == 250
    print("ACCEPTANCE 8 PASS: 110.96 pW/qubit, 4000 tones/cable, 250 cables")


# --------------------------------------------------------------------------
# 9. Numerics


def test_criterion_9_integrator_accuracy():
    from qcvz.mixer import DriveEnvelope

    q = QubitParams(F_QUBIT)
    worst = 0.0
    for f_rabi in (0.25e6, 0.5e6, 1e6, 2e6, 4e6):
        for df in (0.0, 0.5e6, -0.5e6, 1e6, 3e6):
            f_gen = math.hypot(f_rabi, df)
            dt = 1.0 / (200.0 * f_gen)
            tau = 3.0 / f_gen
            rate = 64.0 / dt
            n = int(round(tau * rate))
            drive = DriveEnvelope(
                F_QUBIT + df, np.full(n, f_rabi, dtype=complex), rate
            )
            times = np.linspace(0.0, drive.duration_s, int(round(drive.duration_s / dt)) + 1)
            traj = propagate(q, drive, ground_state(), times)
            ana = rabi_analytic(
                TWO_PI * f_rabi, TWO_PI * df, traj.times_s
            )
            worst = max(worst, float(np.max(np.abs(traj.p1 - ana))))
    assert worst < 1e-12
    print(f"ACCEPTANCE 9 PASS (accuracy): max |dp1| {worst:.2e} over 5x5 grid")


def test_criterion_9_trace_preservation():
    from qcvz.mixer import DriveEnvelope

    q = QubitParams.from_t2(F_QUBIT, 25.3e-6, 17.0e-6)
    f_rabi = 1e6
    dt = 5e-9
    n_steps = 100_000
    tau = n_steps * dt
    rate = 1e9
    drive = DriveEnvelope(
        F_QUBIT, np.full(int(tau * rate), f_rabi, dtype=complex), rate
    )
    times = np.linspace(0.0, drive.duration_s, n_steps + 1)
    traj = propagate(q, drive, ground_state(), times)
    err = abs(np.trace(traj.rho_final) - 1.0)
    assert err < 1e-14
    print(f"ACCEPTANCE 9 PASS (trace): |tr - 1| = {err:.2e} after {n_steps} steps")
