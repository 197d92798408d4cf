import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcvz.calibration import CalibratedPulse
from qcvz.compiler import Gate, Program, schedule
from qcvz.demux import ChannelTone
from qcvz.experiments import simulate_schedule
from qcvz.mixer import DriveEnvelope, MixerConfig
from qcvz.qubit import (
    FitError,
    FitModel,
    QubitError,
    QubitParams,
    _bloch_generator,
    _held_maps,
    excited_state,
    delay_maps,
    fit_curve,
    ground_state,
    propagate,
    rabi_analytic,
    validate_density_matrix,
)

TWO_PI = 2.0 * math.pi
F_Q = 4.53202e9

# The vec-basis oracle. vec(rho) is rho flattened row-major; the Lindblad
# generator there is built from Kronecker products, and the Bloch vector
# v = (1, x, y, z) of rho = (I + x SX + y SY + z SZ)/2 is FROM_VEC @ vec(rho).
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, decay operator
TO_VEC = np.array([[0.5, 0, 0, 0.5], [0, 0.5, -0.5j, 0], [0, 0.5, 0.5j, 0], [0.5, 0, 0, -0.5]])
FROM_VEC = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


def to_vec(bloch_maps):
    """Bloch-basis maps as vec-basis maps."""
    return TO_VEC @ bloch_maps @ FROM_VEC


def apply_bloch_map(bloch_map, rho):
    """rho after a Bloch-basis map, through the vec basis."""
    return (to_vec(bloch_map) @ rho.reshape(4)).reshape(2, 2)


def kron_liouvillian_parts(q, delta_rad):
    """l0 = delta LZ + D[SM]/T1 + D[SZ]/(2 Tphi) and the drive generators LX, LY,
    each the Liouvillian of its term in the vec basis, from Kronecker products."""
    i2 = np.eye(2, dtype=complex)

    def dissipator(lop, rate):
        ldl = lop.conj().T @ lop
        return rate * (np.kron(lop, lop.conj()) - 0.5 * (np.kron(ldl, i2) + np.kron(i2, ldl.T)))

    def hamiltonian(h):
        return -1j * (np.kron(h, i2) - np.kron(i2, h.T))

    l0 = hamiltonian(0.5 * delta_rad * SZ)
    if math.isfinite(q.t1_s):
        l0 = l0 + dissipator(SM, 1.0 / q.t1_s)
    if math.isfinite(q.tphi_s):
        l0 = l0 + dissipator(SZ, 0.5 / q.tphi_s)
    return l0, hamiltonian(0.5 * SX), hamiltonian(0.5 * SY)


def flat_drive(f_rabi_hz, tau_s, carrier_hz=F_Q, rate_hz=1e9):
    n = max(int(round(tau_s * rate_hz)), 1)
    return DriveEnvelope(carrier_hz, np.full(n, f_rabi_hz, dtype=complex), rate_hz)


def step_grid(drive, dt_s):
    """Report times on a uniform grid of about ``dt_s`` over the drive."""
    n = max(1, int(round(drive.duration_s / dt_s)))
    return np.linspace(0.0, drive.duration_s, n + 1)


def test_t2_relation():
    q = QubitParams(F_Q, t1_s=25.3e-6, tphi_s=50.0e-6)
    assert q.t2_s == pytest.approx(1.0 / (1.0 / (2 * 25.3e-6) + 1.0 / 50.0e-6))
    q2 = QubitParams.from_t2(F_Q, 25.3e-6, 17.0e-6)
    assert q2.t2_s == pytest.approx(17.0e-6, rel=1e-12)
    assert q2.t1_s == 25.3e-6
    closed = q2.closed()
    assert math.isinf(closed.t1_s) and math.isinf(closed.tphi_s)


def test_qubit_params_validation():
    for args in ((math.nan,), (math.inf,), (-F_Q,), (F_Q, math.nan), (F_Q, 0.0),
                 (F_Q, 1e-5, math.nan), (F_Q, 1e-5, -1e-5)):
        with pytest.raises(QubitError):
            QubitParams(*args)
    for t1, t2 in ((math.nan, 1e-5), (1e-5, math.nan), (0.0, 1e-5), (1e-5, 0.0)):
        with pytest.raises(QubitError):
            QubitParams.from_t2(F_Q, t1, t2)
    closed = QubitParams(F_Q, math.inf, math.inf)  # the closed-system sentinel
    assert math.isinf(closed.t2_s)


def test_validate_density_matrix():
    validate_density_matrix(ground_state())
    validate_density_matrix(excited_state())
    with pytest.raises(Exception):
        validate_density_matrix(np.array([[0.7, 0.0], [0.0, 0.7]]))
    with pytest.raises(Exception):
        validate_density_matrix(np.array([[0.5, 0.9], [0.9, 0.5]]))


def test_rabi_analytic_pi_pulse():
    omega = TWO_PI * 1e6
    assert rabi_analytic(omega, 0.0, 0.5e-6) == pytest.approx(1.0)
    assert rabi_analytic(omega, 0.0, 0.25e-6) == pytest.approx(0.5)
    # detuned oscillation is bounded by omega^2/(omega^2+delta^2)
    delta = TWO_PI * 2e6
    t = np.linspace(0.0, 2e-6, 400)
    p1 = rabi_analytic(omega, delta, t)
    assert np.max(p1) <= omega**2 / (omega**2 + delta**2) + 1e-12
    assert np.all((p1 >= 0.0) & (p1 <= 1.0))


def test_evolve_matches_analytic_on_resonance():
    q = QubitParams(F_Q)
    f_rabi = 1e6
    drive = flat_drive(f_rabi, 2e-6)
    dt = 1.0 / (200.0 * f_rabi)
    traj = propagate(q, drive, ground_state(), step_grid(drive, dt))
    ana = rabi_analytic(TWO_PI * f_rabi, 0.0, traj.times_s)
    assert np.max(np.abs(traj.p1 - ana)) < 1e-6
    validate_density_matrix(traj.rho_final)


def test_evolve_matches_analytic_detuned():
    q = QubitParams(F_Q)
    f_rabi, df = 1e6, 2.5e6
    f_gen = math.hypot(f_rabi, df)
    drive = flat_drive(f_rabi, 1e-6, carrier_hz=F_Q + df)
    traj = propagate(q, drive, ground_state(), step_grid(drive, 1.0 / (200.0 * f_gen)))
    ana = rabi_analytic(TWO_PI * f_rabi, TWO_PI * df, traj.times_s)
    assert np.max(np.abs(traj.p1 - ana)) < 1e-6


def test_propagate_rejects_times_outside_drive():
    q = QubitParams(F_Q)
    drive = flat_drive(10e6, 1e-7)
    for times in ([-1e-12, 5e-8], [0.0, 1.01e-7], [0.0, math.nan], [5e-8, 1e-8]):
        with pytest.raises(QubitError):
            propagate(q, drive, ground_state(), times)


def bloch_state(r, theta, phi):
    n = r * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                      math.cos(theta)])
    return 0.5 * (np.eye(2) + n[0] * SX + n[1] * SY + n[2] * SZ)


@given(
    f_rabi=st.floats(0.0, 20e6),
    df=st.floats(-10e6, 10e6),
    t1=st.floats(1e-7, 1e-4),
    tphi=st.floats(1e-7, 1e-4),
    codes=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    split=st.integers(0, 40),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    bloch=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, math.pi), st.floats(0.0, TWO_PI)),
    z_gates=st.lists(st.sampled_from(["t", "tdg", "s", "sdg", "z135", "z:0.3"]),
                     min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_propagate_properties(f_rabi, df, t1, tphi, codes, split, fracs, bloch, z_gates):
    rate = 2.5e8
    rho0 = bloch_state(*bloch)

    # closed system, flat drive: the Rabi closed form at any report time
    flat = flat_drive(f_rabi, len(codes) / rate, carrier_hz=F_Q + df, rate_hz=rate)
    times = np.sort(fracs) * flat.duration_s
    traj = propagate(QubitParams(F_Q), flat, ground_state(), times)
    ana = rabi_analytic(TWO_PI * f_rabi, TWO_PI * df, times)
    assert np.max(np.abs(traj.p1 - ana)) < 1e-9

    # open system, piecewise drive: a density matrix at the end
    q = QubitParams(F_Q, t1_s=t1, tphi_s=tphi)
    levels = f_rabi * np.array([0.0, 1.0, 1j, -0.5 + 0.5j])
    drive = DriveEnvelope(F_Q + df, levels[codes], rate)
    rho = propagate(q, drive, rho0).rho_final
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) >= -1e-12

    # one call equals the two halves in sequence
    k = min(split, len(codes))
    first = DriveEnvelope(F_Q + df, levels[codes[:k]], rate)
    second = DriveEnvelope(F_Q + df, levels[codes[k:]], rate)
    halves = propagate(q, second, propagate(q, first, rho0).rho_final).rho_final
    assert np.max(np.abs(halves - rho)) < 1e-12

    # a zero-sample drive returns rho0; a Z-only program schedules no cycles
    empty = propagate(q, DriveEnvelope(F_Q, [], rate), rho0)
    assert np.array_equal(empty.rho_final, rho0)
    program = Program((tuple(Gate.parse(g) for g in z_gates),))
    f_lo = 8.0e9
    cfg = MixerConfig(ChannelTone(f_lo, 0.5, 0.0), 4.0e7)
    x90 = CalibratedPulse(f_lo, f_lo - F_Q, 0.3, 15e-9, math.pi / 2)
    sim, ideal = simulate_schedule(schedule(program, "free"), program, [q], [cfg], [x90], 15e-9)
    assert sim[0] == ideal[0] == 0.0


def test_evolve_t1_decay():
    q = QubitParams(F_Q, t1_s=10e-6)
    drive = flat_drive(0.0, 5e-6)  # idle line
    traj = propagate(q, drive, excited_state(), step_grid(drive, 5e-9))
    expect = np.exp(-traj.times_s / 10e-6)
    assert np.max(np.abs(traj.p1 - expect)) < 1e-12


@given(
    t1=st.one_of(st.just(math.inf), st.floats(1e-7, 1e-3)),
    tphi=st.one_of(st.just(math.inf), st.floats(1e-7, 1e-3)),
    delta=st.one_of(st.just(0.0), st.floats(-TWO_PI * 1e7, TWO_PI * 1e7)),
    t=st.floats(0.0, 2e-5),
    bloch=st.tuples(*[st.floats(-0.57, 0.57)] * 3),  # inside the unit ball
)
@example(t1=20e-6, tphi=30e-6, delta=TWO_PI * 0.3e6, t=7e-6, bloch=(1.0, 0.0, 0.0))
@example(t1=1e-7, tphi=math.inf, delta=1e-307, t=1.3e-5, bloch=(0.1, 0.2, 0.3))  # was NaN
@settings(max_examples=300, deadline=None)
def test_delay_maps_closed_form(t1, tphi, delta, t, bloch):
    # Drive-free: p1 relaxes at 1/T1; rho01 rotates at delta and decays at 1/T2.
    q = QubitParams(F_Q, t1_s=t1, tphi_s=tphi)
    x, y, z = bloch
    rho = 0.5 * (np.eye(2) + x * SX + y * SY + z * SZ)
    out = apply_bloch_map(delay_maps(q, t, delta)[0], rho)
    coh = rho[0, 1] * np.exp(-1j * delta * t) * math.exp(-t / q.t2_s)
    assert abs(out[1, 1] - rho[1, 1] * math.exp(-t / t1)) < 1e-13
    assert abs(out[0, 1] - coh) < 1e-13
    assert abs(out[1, 0] - np.conj(coh)) < 1e-13
    assert abs(np.trace(out) - 1.0) < 1e-13
    validate_density_matrix(out)


def reference_delay_maps(q, t_s, delta_rad=0.0):
    """The stacked expm(l0 t) in the vec basis that the closed form replaces."""
    t = np.asarray(t_s, dtype=float).reshape(-1)
    # expm's triangular path divides by the eigenvalue gap 2 delta and returns NaN
    # when delta t underflows; a rotation below one ulp is dropped instead.
    delta = np.where(np.abs(delta_rad * t) < 2.0**-53, 0.0, delta_rad)
    return expm(np.array([kron_liouvillian_parts(q, d)[0] for d in delta]) * t[:, None, None])


@given(
    t1=st.one_of(st.just(math.inf), st.floats(1e-7, 1e-3)),
    tphi=st.one_of(st.just(math.inf), st.floats(1e-7, 1e-3)),
    delta=st.one_of(st.just(0.0), st.floats(-TWO_PI * 1e7, TWO_PI * 1e7)),
    t=st.lists(st.floats(0.0, 2e-5), min_size=1, max_size=8),
)
@example(t1=1e-7, tphi=math.inf, delta=1e-307, t=[0.0, 1.3e-5])
@example(t1=20e-6, tphi=30e-6, delta=TWO_PI * 0.34e6, t=[0.0, 1e-5, 2e-5])
@settings(max_examples=300, deadline=None)
def test_delay_maps_match_stacked_expm(t1, tphi, delta, t):
    q = QubitParams(F_Q, t1_s=t1, tphi_s=tphi)
    got, want = to_vec(delay_maps(q, t, delta)), reference_delay_maps(q, t, delta)
    assert got.shape == want.shape == (len(t), 4, 4)
    assert np.max(np.abs(got - want)) < 1e-13


def vec_generator(t1, tphi, delta, sample, dt):
    """(l0 + 2 pi (Re s LX + Im s LY)) dt in the vec basis, from the kron construction."""
    l0, lx, ly = kron_liouvillian_parts(QubitParams(F_Q, t1_s=t1, tphi_s=tphi), delta)
    return (l0 + TWO_PI * (sample.real * lx + sample.imag * ly)) * dt


def bloch_expm(t1, tphi, delta, sample, dt):
    """scipy's expm of the generator, taken in the Bloch basis.

    At 30 squarings expm in the vec basis moves the trace-keeping eigenvalue 1
    by about 2^30 ulps (its maps are off by 1e-7 from a 60-digit reference);
    in the Bloch basis that eigenvalue is exact, and expm there is within
    5e-16 of the reference on DEEP.
    """
    bloch = FROM_VEC @ vec_generator(t1, tphi, delta, sample, dt) @ TO_VEC
    assert np.max(np.abs(bloch.imag)) <= 1e-15 * np.max(np.abs(bloch))
    return expm(bloch.real)


def squarings(t1, tphi, delta, sample, dt):
    """Squarings that Pade-13 needs for this generator (Higham's theta_13)."""
    norm = np.abs(_bloch_generator(t1, tphi, delta, sample, dt)).sum(axis=0).max()
    return max(0, math.ceil(math.log2(norm / 5.371920351148152)))


RATE_S = st.one_of(st.just(math.inf), st.floats(1e-9, 1e-3))
SLICE = st.tuples(
    RATE_S,  # T1
    RATE_S,  # Tphi
    st.floats(-TWO_PI * 15e6, TWO_PI * 15e6),  # delta
    st.floats(0.0, 4e7),  # |s|
    st.floats(-math.pi, math.pi),  # arg s
    st.floats(0.0, 120e-9),  # dt
)


@given(stack=st.lists(SLICE, min_size=1, max_size=300))
@example(stack=[(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)])
@example(stack=[(math.inf, math.inf, TWO_PI * 15e6, 4e7, 0.5, 120e-9),
                (1e-9, 1e-9, 0.0, 0.0, 0.0, 1e-7)])
# Open slices of small 1-norm, which take no squaring.
@example(stack=[(1e-3, math.inf, 0.0, 2.1e4, 0.0, 1e-7)])  # 1-norm 0.013
@example(stack=[(1e-3, math.inf, 0.0, 3.6e5, 0.0, 1e-7)])  # 0.23
@example(stack=[(1e-3, math.inf, 0.0, 1.36e6, 0.0, 1e-7)])  # 0.85
@example(stack=[(1e-3, math.inf, 0.0, 3.0e6, 0.0, 1e-7)])  # 1.9
@settings(max_examples=60, deadline=None)
def test_held_maps_match_expm(stack):
    # Against scipy's expm of the vec-basis generator, the exponential it
    # replaces. Worst case seen: 8.9e-15 over 2000 random stacks (3e5 slices).
    t1, tphi, delta, mag, arg, dt = map(np.array, zip(*stack))
    sample = mag * np.exp(1j * arg)
    got = to_vec(_held_maps(t1, tphi, delta, sample, dt))
    assert got.shape == (len(stack), 4, 4)
    want = expm(np.array([vec_generator(*args) for args in zip(t1, tphi, delta, sample, dt)]))
    assert np.max(np.abs(got - want)) <= 1e-12


@given(stack=st.lists(SLICE, min_size=1, max_size=300))
@example(stack=[(1e-3, math.inf, 0.0, 2.1e4, 0.0, 1e-7), (1e-9, 1e-9, 0.0, 0.0, 0.0, 1e-7)])
@settings(max_examples=60, deadline=None)
def test_held_maps_are_the_same_alone_or_stacked(stack):
    # Each slice's map depends on its own slice only, bit for bit: one Pade
    # degree, squarings per slice, and no product that mixes slices.
    t1, tphi, delta, mag, arg, dt = map(np.array, zip(*stack))
    sample = mag * np.exp(1j * arg)
    maps = _held_maps(t1, tphi, delta, sample, dt)
    for k, args in enumerate(zip(t1, tphi, delta, sample, dt)):
        assert np.array_equal(maps[k], _held_maps(*args), equal_nan=True), k


# Decay strong enough that Pade needs >= 30 squarings; the maps are still
# well conditioned, since each relaxes onto its fixed point.
DEEP = [
    (1e-15, 1e-6, TWO_PI * 1.6e6, 3e7, 0.0, 1e-5),
    (2e-16, math.inf, TWO_PI * 15e6, 4e7, 1.0, 1.2e-6),
    (2e-16, 1e-16, -TWO_PI * 15e6, 4e7, -2.0, 1.2e-6),
    (1e-12, 1e-6, 0.0, 0.0, 0.0, 1e-2),
]


def test_held_maps_with_thirty_squarings_match_expm():
    # Worst case seen: 5.0e-16.
    t1, tphi, delta, mag, arg, dt = map(np.array, zip(*DEEP))
    sample = mag * np.exp(1j * arg)
    assert min(map(squarings, t1, tphi, delta, sample, dt)) >= 30
    want = np.array([bloch_expm(*args) for args in zip(t1, tphi, delta, sample, dt)])
    assert np.max(np.abs(_held_maps(t1, tphi, delta, sample, dt) - want)) <= 1e-12


@given(
    t1=st.one_of(st.just(math.inf), st.floats(1e-16, 1e-3)),
    tphi=st.one_of(st.just(math.inf), st.floats(1e-16, 1e-3)),
    delta=st.floats(-TWO_PI * 15e6, TWO_PI * 15e6),
    t=st.floats(0.0, 2e-5),
)
@example(t1=math.inf, tphi=1e-16, delta=-TWO_PI * 15e6, t=1.2e-6)  # 32 squarings
@example(t1=1e-16, tphi=math.inf, delta=TWO_PI * 15e6, t=2e-5)  # 36 squarings
@example(t1=math.inf, tphi=652e-6, delta=TWO_PI * 15e6, t=907.0 / (TWO_PI * 15e6))
@settings(max_examples=200, deadline=None)
def test_drive_free_held_maps_match_closed_form(t1, tphi, delta, t):
    # A zero sample is drive-free time, so its map is delay_maps' closed form
    # bit for bit. Pade would lose ~2^squarings ulps on rotation-dominated
    # slices such as the last example (delta t = 907 rad): 2.8e-14.
    q = QubitParams(F_Q, t1_s=t1, tphi_s=tphi)
    got, want = _held_maps(t1, tphi, delta, 0.0, t), delay_maps(q, t, delta)[0]
    assert np.array_equal(got, want)


def test_held_maps_give_nan_for_overflowing_steps():
    # A step too large for float64 gives a NaN map with no warning (warnings
    # are errors here); the other slices of the stack are unaffected.
    # Finite norms past _NORM_MAX (the last slice before the zero sample)
    # would need more than 52 squarings. A zero sample held as long takes the
    # drive-free closed form, which is exact at any length.
    t1 = np.array([math.inf, 20e-6, math.inf, 20e-6, math.inf, 20e-6, 20e-6])
    tphi = np.array([math.inf, 30e-6, math.inf, 30e-6, math.inf, 30e-6, math.inf])
    sample = np.array([1e7, 1e7, 1e300, 1e7, 1e7, 0.0, 1e6])
    dt = np.array([1e300, 1e300, 1e10, math.inf, 1e12, 1e12, 1e-8])
    maps = _held_maps(t1, tphi, 0.0, sample, dt)
    assert np.isnan(maps[:5]).all()
    assert np.array_equal(maps[5], delay_maps(QubitParams(F_Q, 20e-6, 30e-6), 1e12)[0])
    want = expm(vec_generator(20e-6, math.inf, 0.0, 1e6, 1e-8))
    assert np.max(np.abs(to_vec(maps[6]) - want)) < 1e-15


@given(slice_=SLICE)
@settings(max_examples=200, deadline=None)
def test_bloch_generator_is_the_liouvillian_in_the_bloch_basis(slice_):
    t1, tphi, delta, mag, arg, dt = slice_
    sample = mag * np.exp(1j * arg)
    want = FROM_VEC @ vec_generator(t1, tphi, delta, sample, dt) @ TO_VEC
    got = _bloch_generator(t1, tphi, delta, sample, dt)
    assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def test_delay_maps_reject_bad_delays():
    q = QubitParams(F_Q, t1_s=20e-6)
    assert delay_maps(q, [0.0, 1e-6]).shape == (2, 4, 4)
    for t in (-1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(QubitError):
            delay_maps(q, t)
        with pytest.raises(QubitError):
            delay_maps(q, [0.0, 1e-6, t])


def test_delay_maps_match_propagate():
    q = QubitParams(F_Q, t1_s=12e-6, tphi_s=9e-6)
    rho = np.array([[0.75, 0.25 - 0.3j], [0.25 + 0.3j, 0.25]], dtype=complex)
    t = 2e-6
    traj = propagate(q, flat_drive(0.0, t), rho)
    direct = apply_bloch_map(delay_maps(q, t)[0], rho)
    assert np.max(np.abs(traj.rho_final - direct)) < 1e-12


def test_fit_exp_decay():
    t = np.linspace(0.0, 80e-6, 41)
    y = 0.93 * np.exp(-t / 25.3e-6) + 0.02
    fit = fit_curve(FitModel.EXP_DECAY, t, y)
    assert fit.params["tau"] == pytest.approx(25.3e-6, rel=1e-6)
    assert fit.params["a"] == pytest.approx(0.93, rel=1e-6)
    assert fit.residual < 1e-9


def test_fit_damped_cosine():
    t = np.linspace(0.0, 30e-6, 91)
    y = 0.5 * np.exp(-t / 17e-6) * np.cos(TWO_PI * 0.34e6 * t) + 0.5
    fit = fit_curve("damped_cosine", t, y)
    assert fit.params["f"] == pytest.approx(0.34e6, rel=1e-6)
    assert fit.params["tau"] == pytest.approx(17e-6, rel=1e-4)


def test_fit_rabi_sinusoid():
    t = np.linspace(0.0, 2e-6, 80)
    y = 0.4 * np.cos(TWO_PI * 2.2e6 * t + 0.3) + 0.5
    fit = fit_curve(FitModel.RABI_SINUSOID, t, y)
    assert fit.params["f"] == pytest.approx(2.2e6, rel=1e-6)


def test_fit_needs_enough_points():
    t = np.linspace(0.0, 1e-6, 8)
    with pytest.raises(FitError):
        fit_curve(FitModel.EXP_DECAY, t, np.exp(-t / 1e-6))
    for model in FitModel:  # too few points is a FitError before any guess is made
        for n in (0, 1):
            with pytest.raises(FitError):
                fit_curve(model, np.zeros(n), np.zeros(n))
    # Non-finite data, or times with no spread, cannot be fitted (a FitError,
    # not a ValueError from curve_fit or non-finite parameters).
    t = np.linspace(0.0, 1e-5, 41)
    y = np.exp(-t / 2e-6)
    for model in FitModel:
        for times, values in (
            (t, np.where(t > 5e-6, np.nan, y)),
            (np.where(t > 5e-6, np.inf, t), y),
            (np.zeros_like(t), y),
        ):
            with pytest.raises(FitError):
                fit_curve(model, times, values)
