"""Single-qubit experiment suite: Rabi chevron, coherence runs, virtual-Z
Ramsey, and execution of compiled TDM schedules through the full
mixer-plus-qubit chain.

Every drive is sample-and-hold, so pulses and the free evolution between
them are propagated exactly, with no step size to choose.
"""
from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum

import numpy as np

from . import qubit as qb
from .calibration import CalibratedPulse
from .compiler import Program, Schedule, _gate_codes, ideal_unitary
from .mixer import SAMPLES_PER_CYCLE, MixerConfig, MixerError, rabi_rates
from .qubit import QubitParams, Trajectory
from .signals import SignalError

TWO_PI = 2.0 * math.pi


class ExperimentError(RuntimeError):
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
    tau_max = float(tau_grid.max())
    n = len(f_if)
    carrier = f_lo_hz - f_if
    _check_pulses(np.full(n, tau_max), np.full(n, a_if, dtype=float), f_if, carrier, tau_max,
                  True)
    rate = SAMPLES_PER_CYCLE / tau_max
    duration = SAMPLES_PER_CYCLE / rate  # can end an ulp short of tau_max
    taus = np.clip(tau_grid, 0.0, duration)  # a tau <= 0 reads p1(0)
    cuts = np.union1d([0.0, duration], taus)
    dts, which = np.unique(np.diff(cuts), return_inverse=True)
    scale = 1.0 if mixer_on else cfg.off_leakage
    sample = scale * rabi_rates([cfg], [a_if])[0] * np.exp(1j * cfg.channel.phase_rad)
    delta = TWO_PI * (carrier - q.f_qubit_hz)
    steps = qb._held_maps(q.t1_s, q.tphi_s, delta[:, None], sample, dts)
    state = np.zeros((n, 4), dtype=complex)
    state[:, 0] = 1.0  # ground
    p1 = np.zeros((n, len(cuts)))
    for j, k in enumerate(which, 1):
        state = np.einsum("kij,kj->ki", steps[:, k], state)
        p1[:, j] = state[:, 3].real
    return _populations(p1[:, np.searchsorted(cuts, taus)])


def run_experiment(
    kind: ExperimentKind | str,
    q: QubitParams,
    cfg: MixerConfig,
    x90: CalibratedPulse,
    x180: CalibratedPulse | None = None,
    delays_s=None,
    detuning_hz: float = 0.0,
    dtheta_deg=None,
    vz_delay_s: float = 1e-8,
):
    """Coherence and virtual-Z experiment driver.

    t1: X180 then delay. ramsey: X90, delay, X90 with the drive carrier
    detuned by ``detuning_hz``. echo: X90, delay/2, X180, delay/2, X90.
    vz_ramsey: two X90 pulses with the second pulse's theta_if shifted by
    each value of ``dtheta_deg`` across a fixed short delay; returns
    (dtheta_deg, p1) arrays instead of a Trajectory.
    Each pulse map is the on map of ``_cycle_maps``, the pulse filling its
    own cycle, and each delay map comes from ``delay_maps``; every map is
    built once and reused at every point, and vz_ramsey rotates one X90 map
    by each frame angle.
    """
    kind = ExperimentKind(kind)
    g = qb.ground_state().reshape(4)

    def on_map(pulse: CalibratedPulse) -> np.ndarray:
        return _cycle_maps([q], [cfg], [pulse], pulse.tau_if_s)[1, 0]

    if kind is ExperimentKind.VZ_RAMSEY:
        if dtheta_deg is None:
            raise ExperimentError("vz_ramsey needs a dtheta grid")
        thetas = np.asarray(dtheta_deg, dtype=float)
        s90 = on_map(x90)
        rho = qb.delay_maps(q, vz_delay_s)[0] @ s90 @ g
        # A frame shift multiplies the drive by exp(-i theta): the map becomes R s90 R^H,
        # R = diag(1, e^{i theta}, e^{-i theta}, 1), exact since l0 commutes with Z.
        r = np.exp(1j * np.outer(np.radians(thetas), [0, 1, -1, 0]))
        rotated = r[:, :, None] * s90 * r.conj()[:, None, :]
        p1 = (rotated @ rho)[:, 3].real
        if not np.all((p1 >= -1e-9) & (p1 <= 1.0 + 1e-9)):  # NaN fails too
            raise ExperimentError("populations out of [0, 1]")
        return thetas, p1

    if delays_s is None:
        raise ExperimentError(f"{kind.value} needs a delay grid")
    delays = np.asarray(delays_s, dtype=float)
    if kind is not ExperimentKind.T1 and x90 is None:
        raise ExperimentError("missing calibrated pi/2 pulse")
    if kind in (ExperimentKind.T1, ExperimentKind.ECHO) and x180 is None:
        raise ExperimentError("missing calibrated pi pulse")

    if kind is ExperimentKind.T1:
        waits = qb.delay_maps(q, delays)
        p1 = np.einsum("nj,j->n", waits[:, 3], on_map(x180) @ g)
    elif kind is ExperimentKind.RAMSEY:
        # Detuning shifts f_if so the carrier moves to f_qubit + detuning;
        # delta is then constant through pulses and delays.
        if detuning_hz:
            x90 = replace(x90, f_if_hz=x90.f_lo_hz - (q.f_qubit_hz + detuning_hz))
        waits = qb.delay_maps(q, delays, TWO_PI * detuning_hz)
        s90 = on_map(x90)
        p1 = np.einsum("j,njk,k->n", s90[3], waits, s90 @ g)
    else:  # echo
        waits = qb.delay_maps(q, 0.5 * delays)
        s90, s180 = on_map(x90), on_map(x180)
        p1 = np.einsum("j,njk,kl,nlm,m->n", s90[3], waits, s180, waits, s90 @ g)
    return Trajectory(delays, np.clip(p1.real, 0.0, 1.0))


def simulate_schedule(
    sched: Schedule,
    program: Program,
    q_list: list[QubitParams],
    cfg_list: list[MixerConfig],
    x90_list: list[CalibratedPulse],
    cycle_period_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Execute a compiled schedule through mixer and qubit models.

    The shared IF line carries qubit k's flat x90 envelope in every emitted
    cycle; mixer k's bit gates it, and an off cycle leaks off_leakage of the
    drive. So every cycle of qubit k applies one of two fixed maps, S_on[k]
    or S_off[k] (the held sample over the envelope, then a drive-free
    remainder of the cycle), rotated by the cycle's IF phase theta:
    R S R^H with R = diag(1, e^{i theta}, e^{-i theta}, 1). ``_cycle_maps``
    builds all maps from one stacked exponential, and each cycle is one
    batched product over the qubits. Returns (simulated final p1 per qubit,
    ideal |<1|U|0>|^2 per qubit).
    """
    n = sched.n_qubits
    if not (len(q_list) == len(cfg_list) == len(x90_list) == n):
        raise ExperimentError("schedule/qubit/mixer/pulse counts disagree")
    n_cycles = sched.slot.size
    maps = _cycle_maps(q_list, cfg_list, x90_list, cycle_period_s, n_cycles > 0)

    fired = np.zeros((n_cycles, n), dtype=np.intp)
    fired[np.repeat(np.arange(n_cycles), np.diff(sched.offsets)), sched.fired] = 1
    frame = np.array([0.0, 1.0, -1.0, 0.0])
    qubits = np.arange(n)
    state = np.tile(qb.ground_state().reshape(4), (n, 1))
    for bits, theta in zip(fired, sched.theta_if_deg.tolist()):
        r = np.exp(1j * math.radians(theta) * frame)
        state = r * np.einsum("kij,kj->ki", maps[bits, qubits], r.conj() * state)
    return _populations(state[:, 3].real), _ideal_p1(program.gates[:n])


def _cycle_maps(qs, cfgs, pulses, cycle_period_s, has_cycles=True) -> np.ndarray:
    """[off, on] maps of one cycle per qubit k, shape (2, n, 4, 4): the flat
    pulses[k] held over its envelope, off_leakage of it when off, then a
    drive-free remainder of the cycle. Raises what building the drive would."""
    tau = np.array([p.tau_if_s for p in pulses], dtype=float)
    a_if = np.array([p.a_if for p in pulses], dtype=float)
    f_if = np.array([p.f_if_hz for p in pulses], dtype=float)
    carrier = np.array([p.f_lo_hz for p in pulses], dtype=float) - f_if
    _check_pulses(tau, a_if, f_if, carrier, cycle_period_s, has_cycles)
    rate = SAMPLES_PER_CYCLE / cycle_period_s
    # Samples inside [0, tau] hold the pulse (Envelope.value's inside test);
    # the rest of the cycle is drive-free.
    t_sample = np.arange(SAMPLES_PER_CYCLE) / rate
    n_in = np.count_nonzero(t_sample <= tau[:, None], axis=1)
    lo_phase = np.array([c.channel.phase_rad for c in cfgs], dtype=float)
    on = rabi_rates(cfgs, a_if) * np.exp(1j * lo_phase)
    off = np.array([c.off_leakage for c in cfgs]) * on
    delta = TWO_PI * (carrier - np.array([q.f_qubit_hz for q in qs], dtype=float))
    t1 = np.array([q.t1_s for q in qs], dtype=float)
    tphi = np.array([q.tphi_s for q in qs], dtype=float)
    # One stack: off and on for every qubit, then the drive-free remainder only
    # where the pulse leaves one (an empty remainder is the identity).
    n = len(qs)
    rest = np.flatnonzero(n_in < SAMPLES_PER_CYCLE)
    k = np.concatenate([np.arange(n), np.arange(n), rest])
    held = np.concatenate([off, on, np.zeros(rest.size)])
    dur = np.concatenate([n_in, n_in, SAMPLES_PER_CYCLE - n_in[rest]]) / rate
    steps = qb._held_maps(t1[k], tphi[k], delta[k], held, dur)
    maps = steps[:2 * n].reshape(2, n, 4, 4)
    maps[:, rest] = steps[2 * n:] @ maps[:, rest]  # envelope, then the remainder
    return maps


def _populations(p1: np.ndarray) -> np.ndarray:
    """p1 clipped to [0, 1]; a NaN raises the QubitError that a Trajectory would."""
    p1 = np.clip(p1, 0.0, 1.0)
    if np.isnan(p1).any():
        raise qb.QubitError("populations out of [0, 1]")
    return p1


def _check_pulses(tau, a_if, f_if, carrier, cycle_period_s, has_cycles) -> None:
    """Raise the error that building qubit k's drive would, for the first bad k."""
    checks = [
        (~((tau > 0) & (tau < math.inf)),
         lambda k: SignalError(f"envelope duration must be positive and finite, got {tau[k]}")),
        (~((a_if >= 0) & (a_if <= 1)),
         lambda k: SignalError(f"envelope peak A_if must be in [0, 1], got {a_if[k]}")),
        (~((f_if > 0) & (f_if < math.inf)),
         lambda k: SignalError(f"IF frequency must be positive and finite, got {f_if[k]}")),
        (not 0 < cycle_period_s < math.inf,
         lambda k: SignalError(f"cycle period must be positive and finite, got {cycle_period_s}")),
        (has_cycles & (tau > cycle_period_s * (1 + 1e-12)),
         lambda k: SignalError(
             f"cycle 0: envelope duration {tau[k]} exceeds cycle period {cycle_period_s}")),
        (carrier <= 0,
         lambda k: MixerError(
             f"difference frequency {carrier[k]} Hz is not positive (f_if >= f_lo)")),
        (~(carrier < math.inf),
         lambda k: MixerError(f"carrier must be positive and finite, got {carrier[k]}")),
        (not (cycle_period_s > 0 and SAMPLES_PER_CYCLE / cycle_period_s < math.inf),
         lambda k: MixerError("envelope rate must be positive and finite, got inf")),
    ]
    bad = np.array([np.broadcast_to(mask, tau.shape) for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        raise checks[int(np.argmax(bad[:, k]))][1](k)


def _ideal_p1(rows) -> np.ndarray:
    """|<1|U|0>|^2 per gate row: each distinct gate's matrix is looked up once,
    then U|0> is built one gate column at a time over all rows."""
    gates, codes = _gate_codes(rows)
    code_of: dict = {}  # distinct gate value -> its row in table
    value_code = [code_of.setdefault(g, len(code_of)) for g in gates]
    table = np.stack([ideal_unitary([g]) for g in code_of] + [np.eye(2, dtype=complex)])
    codes = np.array(value_code + [len(code_of)], dtype=np.intp)[codes]  # pads: identity
    psi = np.zeros((len(rows), 2), dtype=complex)
    psi[:, 0] = 1.0
    for col in codes.T:
        psi = np.einsum("kij,kj->ki", table[col], psi)
    return np.abs(psi[:, 1]) ** 2
