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
from .calibration import CalibratedPulse, pulse_drive
from .compiler import Program, Schedule, ideal_unitary
from .mixer import BitTimeline, MixerConfig, baseband_output
from .qubit import QubitParams, Trajectory
from .signals import CycleSpec, Envelope, EnvelopeShape, make_if_program

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

    Each f_if column runs one flat-envelope pulse of the maximum duration
    from the ground state and reports p1 exactly at every tau (a flat pulse
    of length tau is a prefix of the longer one).
    """
    f_if_grid = np.asarray(f_if_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if f_if_grid.size == 0 or tau_grid.size == 0:
        raise ExperimentError("empty sweep grid")
    cfg = replace(cfg, channel=replace(cfg.channel, freq_hz=f_lo_hz))
    tau_max = float(tau_grid.max())
    order = np.argsort(tau_grid)
    out = np.empty((len(f_if_grid), len(tau_grid)))
    env = Envelope(EnvelopeShape.FLAT, tau_max, a_if)
    for i, f_if in enumerate(f_if_grid):
        prog = make_if_program(f_if, tau_max, [CycleSpec(0.0, env)], quantized=True)
        drive = baseband_output(cfg, prog, BitTimeline((1 if mixer_on else 0,)))
        # The drive can end an ulp short of tau_max; a tau <= 0 reads p1(0).
        taus = np.clip(tau_grid[order], 0.0, drive.duration_s)
        out[i, order] = qb.propagate(q, drive, qb.ground_state(), taus).p1
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
    vz_delay_s: float = 1e-8,
):
    """Coherence and virtual-Z experiment driver.

    t1: X180 then delay. ramsey: X90, delay, X90 with the drive carrier
    detuned by ``detuning_hz``. echo: X90, delay/2, X180, delay/2, X90.
    vz_ramsey: two X90 pulses with the second pulse's theta_if shifted by
    each value of ``dtheta_deg`` across a fixed short delay; returns
    (dtheta_deg, p1) arrays instead of a Trajectory.
    Each pulse and delay map is built once and reused at every point;
    vz_ramsey rotates one X90 map by each frame angle.
    """
    kind = ExperimentKind(kind)
    g = qb.ground_state().reshape(4)
    if kind is ExperimentKind.VZ_RAMSEY:
        if dtheta_deg is None:
            raise ExperimentError("vz_ramsey needs a dtheta grid")
        thetas = np.asarray(dtheta_deg, dtype=float)
        s90 = qb.drive_map(q, pulse_drive(cfg, x90))
        rho = qb.delay_maps(q, vz_delay_s)[0] @ s90 @ g
        # A frame shift multiplies the drive by exp(-i theta): the map becomes R s90 R^H,
        # R = diag(1, e^{i theta}, e^{-i theta}, 1), exact since l0 commutes with Z.
        r = np.exp(1j * np.outer(np.radians(thetas), [0, 1, -1, 0]))
        rotated = r[:, :, None] * s90 * r.conj()[:, None, :]
        return thetas, (rotated @ rho)[:, 3].real

    if delays_s is None:
        raise ExperimentError(f"{kind.value} needs a delay grid")
    delays = np.asarray(delays_s, dtype=float)
    if kind is not ExperimentKind.T1 and x90 is None:
        raise ExperimentError("missing calibrated pi/2 pulse")
    if kind in (ExperimentKind.T1, ExperimentKind.ECHO) and x180 is None:
        raise ExperimentError("missing calibrated pi pulse")

    if kind is ExperimentKind.T1:
        waits = qb.delay_maps(q, delays)
        p1 = np.einsum("nj,j->n", waits[:, 3], qb.drive_map(q, pulse_drive(cfg, x180)) @ g)
    elif kind is ExperimentKind.RAMSEY:
        # Detuning shifts f_if so the carrier moves to f_qubit + detuning;
        # delta is then constant through pulses and delays.
        f_if_det = x90.f_lo_hz - (q.f_qubit_hz + detuning_hz) if detuning_hz else None
        waits = qb.delay_maps(q, delays, TWO_PI * detuning_hz)
        s90 = qb.drive_map(q, pulse_drive(cfg, x90, f_if_hz=f_if_det))
        p1 = np.einsum("j,njk,k->n", s90[3], waits, s90 @ g)
    else:  # echo
        waits = qb.delay_maps(q, 0.5 * delays)
        s90 = qb.drive_map(q, pulse_drive(cfg, x90))
        s180 = qb.drive_map(q, pulse_drive(cfg, x180))
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

    The shared IF line carries a full-width flat envelope in every emitted
    cycle; each mixer's bit timeline gates its own pulses. Returns
    (simulated final p1 per qubit, ideal |<1|U|0>|^2 per qubit).
    """
    n = sched.n_qubits
    if not (len(q_list) == len(cfg_list) == len(x90_list) == n):
        raise ExperimentError("schedule/qubit/mixer/pulse counts disagree")
    sim = np.empty(n)
    ideal = np.empty(n)
    for k in range(n):
        pulse = x90_list[k]
        env = Envelope(EnvelopeShape.FLAT, pulse.tau_if_s, pulse.a_if)
        cycles = [CycleSpec(c.theta_if_deg, env) for c in sched.cycles]
        bits = BitTimeline(tuple(1 if k in c.fired else 0 for c in sched.cycles))
        prog = make_if_program(pulse.f_if_hz, cycle_period_s, cycles, quantized=False)
        cfg = replace(cfg_list[k], channel=replace(cfg_list[k].channel, freq_hz=pulse.f_lo_hz))
        drive = baseband_output(cfg, prog, bits)
        sim[k] = qb.propagate(q_list[k], drive, qb.ground_state()).p1[-1]
        u = ideal_unitary(program.gates[k])
        ideal[k] = abs(u[1, 0]) ** 2
    return sim, ideal
