"""Single-qubit experiment suite: Rabi chevron, the mixer's off/on Rabi
ratio, coherence runs, virtual-Z Ramsey, and execution of compiled TDM
schedules through the full mixer-plus-qubit chain.

Every drive is sample-and-hold, so pulses and the free evolution between
them are propagated exactly, with no step size to choose.
"""
from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum

import numpy as np

from . import qubit as qb
from .calibration import CalibratedPulse, CalibrationError
from .mixer import (CARRIER_CHECKS, DRIVE_CHECKS, SAMPLES_PER_CYCLE, MixerConfig, _rate_map,
                    rabi_rates)
from .qubit import FitModel, QubitParams, Trajectory, fit_curve
from .signals import CYCLE_CHECKS, ENVELOPE_CHECKS, IF_CHECKS, NumericError, raise_first

# Rabi periods in each trace residual_ratio fits.
RABI_PERIODS = 3.0
# vz_ramsey's free evolution between its two X90 pulses.
VZ_DELAY_S = 1e-8


class ExperimentError(NumericError, RuntimeError):
    pass


class ExperimentKind(str, Enum):
    T1 = "t1"
    RAMSEY = "ramsey"
    ECHO = "echo"
    VZ_RAMSEY = "vz_ramsey"


def chevron(
    q: QubitParams,
    cfg: MixerConfig,
    f_lo_hz: float,
    f_if_grid,
    tau_grid,
    mixer_on: bool = True,
    a_if: float = 1.0,
) -> np.ndarray:
    """Final excited-state population over (f_if, tau).

    Each f_if column is one flat pulse of the maximum duration from the
    ground state: one held sample, the Rabi rate at a_if rotated by the
    channel phase (times off_leakage with the mixer off). p1 is reported
    exactly at every tau (a flat pulse of length tau is a prefix of the
    longer one). Every column is cut at the same times, 0, the end of the
    drive and each tau, so one stacked exponential gives every step and one
    batched product per cut advances all columns. Raises what building each
    column's drive would.
    """
    f_if = np.asarray(f_if_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if f_if.size == 0 or tau_grid.size == 0:
        raise ExperimentError("empty sweep grid")
    tau_max = tau_grid.max()
    delta, rate, rabi = _flat_pulses([q], [cfg], f_lo_hz, f_if, a_if, tau_max, tau_max)
    duration = SAMPLES_PER_CYCLE / rate  # can end an ulp short of tau_max
    taus = np.clip(tau_grid, 0.0, duration)  # a tau <= 0 reads p1(0)
    cuts = np.union1d([0.0, duration], taus)
    dts, which = np.unique(np.diff(cuts), return_inverse=True)
    scale = 1.0 if mixer_on else cfg.off_leakage
    sample = scale * rabi[0] * np.exp(1j * cfg.channel.phase_rad)
    steps = qb._held_maps(q.t1_s, q.tphi_s, delta[:, None], sample, dts)
    # Column vectors, so each cut is one matmul written in place.
    states = np.empty((len(cuts), len(f_if), 4, 1))
    states[0] = qb.BLOCH_GROUND[:, None]
    for j, k in enumerate(which, 1):
        np.matmul(steps[:, k], states[j - 1], out=states[j])
    return _populations((states[np.searchsorted(cuts, taus), ..., 0] @ qb.BLOCH_P1).T)


def rabi_trace(q: QubitParams, cfg: MixerConfig, f_lo_hz: float, tau_s: float,
               mixer_on: bool = True, a_if: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(t, p1) of one resonant flat pulse of duration tau_s: the chevron
    column at f_if = f_lo - f_qubit, read at the pulse's sample edges."""
    t = np.arange(SAMPLES_PER_CYCLE + 1) / (SAMPLES_PER_CYCLE / tau_s)
    return t, chevron(q, cfg, f_lo_hz, [f_lo_hz - q.f_qubit_hz], t, mixer_on, a_if)[0]


def residual_ratio(
    q: QubitParams,
    cfg: MixerConfig,
    a_if_grid,
    f_lo_hz: float,
) -> list[tuple[float, float]]:
    """Off/on Rabi-frequency ratio across IF amplitudes.

    Each point fits a sinusoid to the ``rabi_trace`` of both mixer states.
    Points where the off-state fit fails (vanishing drive) are dropped with a
    warning entry of NaN.
    """
    eps = cfg.off_leakage
    out = []
    for a in np.asarray(a_if_grid, dtype=float):
        if not 0.0 <= a <= 1.0:
            raise CalibrationError(f"a_if grid value {a} outside [0, 1]")
        f_on = rabi_rates([cfg], a)[0]
        if f_on <= 0 or eps * f_on <= 0:
            out.append((float(a), math.nan))
            continue
        freqs = {}
        for on, f_scale in ((True, 1.0), (False, eps)):
            t, p1 = rabi_trace(q, cfg, f_lo_hz, RABI_PERIODS / (f_scale * f_on), on, float(a))
            try:
                freqs[on] = fit_curve(FitModel.RABI_SINUSOID, t, p1).params["f"]
            except qb.FitError:
                freqs[on] = math.nan
        out.append((float(a), freqs[False] / freqs[True]))
    return out


def run_experiment(
    kind: ExperimentKind | str,
    q: QubitParams,
    cfg: MixerConfig,
    x90: CalibratedPulse,
    x180: CalibratedPulse | None = None,
    delays_s=None,
    detuning_hz: float = 0.0,
    dtheta_deg=None,
):
    """Coherence and virtual-Z experiment driver.

    t1: X180 then delay. ramsey: X90, delay, X90 with the drive carrier
    detuned by ``detuning_hz``. echo: X90, delay/2, X180, delay/2, X90.
    vz_ramsey: two X90 pulses with the second pulse's theta_if shifted by
    each value of ``dtheta_deg`` across the delay ``VZ_DELAY_S``; returns
    (dtheta_deg, p1) arrays instead of a Trajectory.
    Each pulse map is the on map of ``_cycle_maps``, the pulse filling its
    own cycle, and each delay map comes from ``delay_maps``; every map is
    built once and reused at every point, and vz_ramsey rotates one X90 map
    by each frame angle.
    """
    kind = ExperimentKind(kind)
    g, p1_row = qb.BLOCH_GROUND, qb.BLOCH_P1

    def on_map(pulse: CalibratedPulse) -> np.ndarray:
        return _cycle_maps([q], [cfg], [pulse], pulse.tau_if_s)[0, 1, 0]

    if kind is ExperimentKind.VZ_RAMSEY:
        if dtheta_deg is None:
            raise ExperimentError("vz_ramsey needs a dtheta grid")
        thetas = np.asarray(dtheta_deg, dtype=float)
        s90 = on_map(x90)
        state = qb.delay_maps(q, VZ_DELAY_S)[0] @ s90 @ g
        r = _frame_rotations(thetas)
        return thetas, _populations(r @ s90 @ np.swapaxes(r, -1, -2) @ state @ p1_row)

    if delays_s is None:
        raise ExperimentError(f"{kind.value} needs a delay grid")
    delays = np.asarray(delays_s, dtype=float)
    if kind is not ExperimentKind.T1 and x90 is None:
        raise ExperimentError("missing calibrated pi/2 pulse")
    if kind in (ExperimentKind.T1, ExperimentKind.ECHO) and x180 is None:
        raise ExperimentError("missing calibrated pi pulse")

    if kind is ExperimentKind.T1:
        p1 = qb.delay_maps(q, delays) @ (on_map(x180) @ g) @ p1_row
    elif kind is ExperimentKind.RAMSEY:
        # Detuning shifts f_if so the carrier moves to f_qubit + detuning;
        # delta is then constant through pulses and delays.
        if detuning_hz:
            x90 = replace(x90, f_if_hz=x90.f_lo_hz - (q.f_qubit_hz + detuning_hz))
        waits = qb.delay_maps(q, delays, math.tau * detuning_hz)
        s90 = on_map(x90)
        p1 = np.einsum("j,njk,k->n", p1_row @ s90, waits, s90 @ g)
    else:  # echo
        waits = qb.delay_maps(q, 0.5 * delays)
        s90, s180 = on_map(x90), on_map(x180)
        p1 = np.einsum("j,njk,kl,nlm,m->n", p1_row @ s90, waits, s180, waits, s90 @ g)
    return Trajectory(delays, np.clip(p1, 0.0, 1.0))


def simulate_schedule(
    sched,
    program,
    q_list: list[QubitParams],
    cfg_list: list[MixerConfig],
    x90_list: list[CalibratedPulse],
    cycle_period_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Execute ``sched``, the compiler.Schedule of the compiler.Program
    ``program``, through mixer and qubit models.

    The shared IF line carries qubit k's flat x90 envelope in every emitted
    cycle; mixer k's bit gates it, and an off cycle leaks off_leakage of the
    drive. So every cycle of qubit k applies one of two fixed maps, S_on[k]
    or S_off[k] (the held sample over the envelope, then a drive-free
    remainder of the cycle), rotated by the cycle's IF phase theta:
    R S R^T with R from ``_frame_rotations``. Cycles sit at their rolling
    slots, so a qubit also waits drive-free through the empty slots before
    each cycle; that wait commutes with R and is folded into S once per
    distinct gap. ``_cycle_maps`` builds all maps from one stacked
    exponential, and each cycle is one batched product over the qubits.
    Returns (simulated final p1 per qubit, ideal |<1|U|0>|^2 per qubit).
    """
    n = sched.n_qubits
    if not (len(q_list) == len(cfg_list) == len(x90_list) == n):
        raise ExperimentError("schedule/qubit/mixer/pulse counts disagree")
    n_cycles = sched.slot.size
    # The empty slots before each cycle, as indices into their distinct counts.
    idle, gap = np.unique(np.diff(sched.slot, prepend=-1) - 1, return_inverse=True)
    maps = _cycle_maps(q_list, cfg_list, x90_list, cycle_period_s, n_cycles > 0, idle)

    fired = np.zeros((n_cycles, n), dtype=np.intp)
    fired[np.repeat(np.arange(n_cycles), np.diff(sched.offsets)), sched.fired] = 1
    qubits = np.arange(n)
    state = np.tile(qb.BLOCH_GROUND, (n, 1))
    for g, bits, r in zip(gap, fired, _frame_rotations(sched.theta_if_deg)):
        state = np.einsum("kij,kj->ki", maps[g, bits, qubits], state @ r) @ r.T
    return _populations(state @ qb.BLOCH_P1), _ideal_p1(program.table, program.codes[:n])


def _frame_rotations(theta_deg) -> np.ndarray:
    """R per frame angle theta (deg), shape (..., 4, 4). A frame shift
    multiplies the drive by exp(-i theta), so a map S in the shifted frame
    is R S R^T, with R the rotation of (x, y) by -theta; it is exact since
    the drive-free generator commutes with that rotation."""
    theta = np.radians(theta_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    r = np.zeros(theta.shape + (4, 4))
    r[..., 0, 0] = r[..., 3, 3] = 1.0
    r[..., 1, 1] = r[..., 2, 2] = cos
    r[..., 1, 2], r[..., 2, 1] = sin, -sin
    return r


def _cycle_maps(qs, cfgs, pulses, cycle_period_s, has_cycles=True, idle=(0,)) -> np.ndarray:
    """[off, on] maps of one cycle per qubit k after each count of idle cycles
    in ``idle``, shape (len(idle), 2, n, 4, 4): drive-free for the idle
    cycles, then the flat pulses[k] held over its envelope (off_leakage of it
    when off), then drive-free for the rest of the cycle. Raises what building
    the drive would."""
    tau = np.array([p.tau_if_s for p in pulses], dtype=float)
    a_if = np.array([p.a_if for p in pulses], dtype=float)
    f_lo = np.array([p.f_lo_hz for p in pulses], dtype=float)
    f_if = np.array([p.f_if_hz for p in pulses], dtype=float)
    delta, rate, rabi = _flat_pulses(qs, cfgs, f_lo, f_if, a_if, tau, cycle_period_s, has_cycles)
    # Samples at t <= tau hold the pulse (baseband_output's window);
    # the rest of the cycle is drive-free.
    t_sample = np.arange(SAMPLES_PER_CYCLE) / rate
    n_in = np.count_nonzero(t_sample <= tau[:, None], axis=1)
    lo_phase = np.array([c.channel.phase_rad for c in cfgs], dtype=float)
    on = rabi * np.exp(1j * lo_phase)
    off = np.array([c.off_leakage for c in cfgs]) * on
    t1 = np.array([q.t1_s for q in qs], dtype=float)
    tphi = np.array([q.tphi_s for q in qs], dtype=float)
    held = qb._held_maps(t1, tphi, delta, np.stack([off, on]), n_in / rate)
    maps = qb._drive_free_maps(t1, tphi, delta, (SAMPLES_PER_CYCLE - n_in) / rate) @ held
    idle = np.asarray(idle, dtype=float)[:, None]
    return maps @ qb._drive_free_maps(t1, tphi, delta, idle * cycle_period_s)[:, None]


def _flat_pulses(qs, cfgs, f_lo, f_if, a_if, tau, cycle_period_s, has_cycles=True):
    """(delta, rate, rabi) of flat pulse k, in one cycle at phase 0: the
    detuning (rad/s) of carrier f_lo - f_if from qs[k], the envelope sample
    rate, and the Rabi rate of a_if[k] through cfgs[k]. Raises what building
    the drives would: Envelope, IfProgram (its cycle checks only with
    ``has_cycles``), baseband_output and DriveEnvelope, in that order. The
    envelope's peak check is stricter than rabi_rates' amplitude check (it
    also rejects NaN), so the map runs unchecked."""
    # Infinite f_lo and f_if give a NaN carrier, which DRIVE_CHECKS reject;
    # an absurd finite carrier overflows the detuning into NaN populations.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        carrier = f_lo - f_if
        delta = math.tau * (carrier - np.array([q.f_qubit_hz for q in qs], dtype=float))
        rate = SAMPLES_PER_CYCLE / np.float64(cycle_period_s)
    checks = (ENVELOPE_CHECKS + IF_CHECKS + (CYCLE_CHECKS if has_cycles else ())
              + CARRIER_CHECKS + DRIVE_CHECKS)
    raise_first(checks, duration_s=tau, peak=a_if, f_if_hz=f_if, cycle_period_s=cycle_period_s,
                cycle=0, quantized=True, theta_if_deg=0.0, carrier_hz=carrier,
                envelope_rate_hz=rate)
    gain = np.array([c.gain_hz_per_unit for c in cfgs], dtype=float)
    return delta, rate, _rate_map(cfgs, gain, a_if)


def _populations(p1: np.ndarray) -> np.ndarray:
    """p1 clipped to [0, 1]; a NaN raises the QubitError that a Trajectory would."""
    p1 = np.clip(p1, 0.0, 1.0)
    raise_first(qb.POPULATION_CHECKS, p1=p1)
    return p1


def _ideal_p1(table, codes) -> np.ndarray:
    """|<1|U|0>|^2 per row of gate ``codes`` into ``table`` (``len(table)``
    pads): each gate's matrix is built once, then U|0> is built one gate
    column at a time over all rows."""
    from .compiler import _gate_matrix

    mats = np.stack([_gate_matrix(g) for g in table] + [np.eye(2, dtype=complex)])
    psi = np.zeros((len(codes), 2), dtype=complex)
    psi[:, 0] = 1.0
    for col in codes.T:
        psi = np.einsum("kij,kj->ki", mats[col], psi)
    return np.abs(psi[:, 1]) ** 2
