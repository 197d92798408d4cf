"""Pulse amplitude calibration against the simulated qubit.

A coarse bisection lands the single-pulse rotation near the target, then an
error-amplification stage (2, 4 and 8 pulse repeats) refines the amplitude
until the per-pulse angle error drops below 1e-4 rad. Amplitude is
calibrated at fixed duration so the search stays one-dimensional.

A calibration pulse fills its cycle with one held sample, so n repeats are
one exponential expm(L n tau). calibrate_pulses runs the search for a whole
LO cable in lockstep: each iteration is one stacked exponential over the
qubits still searching, and calibrate_pulse is its one-qubit case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qubit as qb
from .experiments import chevron
from .mixer import (
    SAMPLES_PER_CYCLE,
    MixerConfig,
    MixerError,
    amplitude_map,
    inverse_amplitude_map,
    rabi_rates,
)
from .qubit import FitModel, QubitParams, fit_curve
from .signals import SignalError

TWO_PI = 2.0 * math.pi


class CalibrationError(RuntimeError):
    """Target unreachable or protocol did not converge."""


@dataclass(frozen=True)
class CalibratedPulse:
    """Resonance-matched flat pulse realizing a target rotation angle."""

    f_lo_hz: float
    f_if_hz: float
    a_if: float
    tau_if_s: float
    target_angle_rad: float

    @property
    def carrier_hz(self) -> float:
        return self.f_lo_hz - self.f_if_hz

    def to_dict(self) -> dict:
        return {
            "f_lo_hz": self.f_lo_hz,
            "f_if_hz": self.f_if_hz,
            "a_if": self.a_if,
            "tau_if_s": self.tau_if_s,
            "target_angle_rad": self.target_angle_rad,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibratedPulse":
        return cls(
            d["f_lo_hz"], d["f_if_hz"], d["a_if"], d["tau_if_s"], d["target_angle_rad"]
        )


# Bloch vector after an exact pi/2 rotation about x from ground; biases the
# amplification signal onto the equator so it stays linear in the angle
# error for both pi/2 and pi targets.
_PREP = np.array([1.0, 0.0, -1.0, 0.0])


def _estimate_angles(p1: np.ndarray, expected_total: float, repeats: int) -> np.ndarray:
    """Per-pulse angles from p1 = sin^2((pi/2 + n*theta)/2), branch nearest expected."""
    base = np.arccos(np.clip(1.0 - 2.0 * p1, -1.0, 1.0))
    m0 = round(expected_total / TWO_PI)
    # Candidates in the order a strict-less scan visits them; argmin keeps the first.
    totals = np.array(
        [sign * base + TWO_PI * m for m in (m0 - 1, m0, m0 + 1) for sign in (1.0, -1.0)]
    )
    best = totals[np.argmin(np.abs(totals - expected_total), axis=0), np.arange(len(p1))]
    return (best - 0.5 * math.pi) / repeats


def calibrate_pulse(
    q: QubitParams,
    cfg: MixerConfig,
    target_angle_rad: float,
    tau_if_s: float,
    f_lo_hz: float,
) -> CalibratedPulse:
    """Find the IF amplitude realizing the target rotation at fixed duration.

    The pulse is placed on resonance (f_if = f_lo - f_qubit). Raises
    CalibrationError if the rotation is unreachable at a_if <= 1 or the
    amplification stage fails to converge. The one-qubit case of
    calibrate_pulses.
    """
    return calibrate_pulses([q], [cfg], target_angle_rad, tau_if_s, [f_lo_hz])[0]


def calibrate_pulses(
    qs: list[QubitParams],
    cfgs: list[MixerConfig],
    target_angle_rad: float,
    tau_if_s: float,
    f_lo_hz_list,
) -> list[CalibratedPulse]:
    """calibrate_pulse for every qubit k (mixer cfgs[k], LO f_lo_hz_list[k]),
    run in lockstep.

    A calibration drive holds one sample for whole cycles, so every
    iteration is one stacked exponential over the qubits still searching;
    each qubit keeps its own stop rules. Raises the error the first failing
    qubit would raise on its own.
    """
    n = len(qs)
    if not len(cfgs) == len(f_lo_hz_list) == n:
        raise CalibrationError("qubit/mixer/LO counts disagree")
    if not 0.0 <= target_angle_rad <= math.pi:
        raise CalibrationError(f"target angle must be in [0, pi], got {target_angle_rad}")
    target, tau = target_angle_rad, tau_if_s
    f_lo = np.array(f_lo_hz_list, dtype=float)
    f_q = np.array([q.f_qubit_hz for q in qs], dtype=float)
    f_if = f_lo - f_q
    cfg_arr = np.empty(n, dtype=object)
    cfg_arr[:] = cfgs
    errors: dict[int, Exception] = {}

    def fail(bad: np.ndarray, make) -> None:
        """Record make(k) for each qubit k in ``bad`` that has no earlier error."""
        for k in np.flatnonzero(bad).tolist():
            errors.setdefault(k, make(k))

    fail(f_if <= 0, lambda k: CalibrationError(
        f"f_lo={f_lo_hz_list[k]} below qubit frequency {qs[k].f_qubit_hz}"))
    # Far enough above the qubit, the carrier f_lo - f_if rounds away from it.
    fail(np.abs((f_lo - f_if) - f_q) > 1e-9 * f_q, lambda k: CalibrationError(
        f"carrier f_lo - f_if = {f_lo[k] - f_if[k]} Hz misses f_qubit={f_q[k]} Hz "
        f"(f_lo={f_lo[k]}, f_if={f_if[k]}): f_lo is too far above the qubit"))
    a = np.zeros(n)
    if target != 0.0:
        with np.errstate(over="ignore"):  # an absurd duration reaches any angle
            max_angle = TWO_PI * rabi_rates(cfgs, np.ones(n)) * tau
        fail(max_angle < target, lambda k: CalibrationError(
            f"target {target:.4f} rad unreachable: max angle {max_angle[k]:.4f} rad at a_if=1"))
        # The first drive would reject a bad duration or IF frequency.
        fail(np.full(n, not 0 < tau < math.inf), lambda k: SignalError(
            f"envelope duration must be positive and finite, got {tau}"))
        fail(~(f_if < math.inf), lambda k: SignalError(
            f"IF frequency must be positive and finite, got {f_if[k]}"))
        live = np.ones(n, dtype=bool)
        live[list(errors)] = False
        a, failed = _search(qs, cfg_arr, f_lo, f_if, target, tau, live)
        for k, exc in failed.items():
            errors.setdefault(k, exc)
    if errors:
        raise errors[min(errors)]
    return [
        CalibratedPulse(f_lo_hz_list[k], float(f_if[k]), float(a[k]), tau, target)
        for k in range(n)
    ]


def _search(qs, cfg_arr, f_lo, f_if, target, tau, live) -> tuple[np.ndarray, dict]:
    """Coarse bisection, then error amplification, over the ``live`` qubits:
    (a_if, 0 for the other qubits; {qubit: the error that stopped its search})."""
    a = np.zeros(len(qs))
    failed: dict[int, Exception] = {}
    live = live.copy()
    t1 = np.array([q.t1_s for q in qs], dtype=float)
    tphi = np.array([q.tphi_s for q in qs], dtype=float)
    # Drives are emitted at theta_if = 0 on carrier f_lo - f_if.
    delta = TWO_PI * ((f_lo - f_if) - np.array([q.f_qubit_hz for q in qs], dtype=float))
    lo_phase = np.array([c.channel.phase_rad for c in cfg_arr], dtype=float)
    rate = SAMPLES_PER_CYCLE / tau

    def run(idx, repeats, v0):
        """Final p1 of ``repeats`` held-sample cycles from Bloch vector v0, per qubit in idx."""
        s = rabi_rates(cfg_arr[idx], a[idx]) * np.exp(1j * lo_phase[idx])
        dt = repeats * SAMPLES_PER_CYCLE / rate  # as DriveEnvelope.duration_s
        steps = qb._held_maps(t1[idx], tphi[idx], delta[idx], s, dt)
        return np.clip(steps @ v0 @ qb.BLOCH_P1, 0.0, 1.0)

    # Coarse: bisection of the single-pulse population toward sin^2(angle/2).
    # The rotation angle is monotone in a_if and capped at pi by the
    # reachability check, so p1 is monotone over the bracket.
    idx = np.flatnonzero(live)
    a[idx] = rabi_rates(cfg_arr[idx], np.full(len(idx), target / (TWO_PI * tau)), inverse=True)
    lo, hi = np.zeros_like(a), np.ones_like(a)
    for _ in range(30):
        if not idx.size:
            break
        angle = 2.0 * np.arcsin(np.sqrt(np.minimum(run(idx, 1, qb.BLOCH_GROUND), 1.0)))
        done = np.abs(angle - target) < 5e-3
        under = angle < target
        lo[idx[~done & under]] = a[idx[~done & under]]
        hi[idx[~done & ~under]] = a[idx[~done & ~under]]
        idx = idx[~done]
        a[idx] = 0.5 * (lo[idx] + hi[idx])

    # Fine: error amplification with 2, 4 and 8 repeats from an
    # equator-biased start, driving the over/under-rotation to zero. Even
    # repeat counts keep the total angle pi/2 + n*theta on the steep flank
    # of p1 for both pi/2 and pi targets.
    gain = np.array([c.gain_hz_per_unit for c in cfg_arr], dtype=float)
    for n in (2, 4, 8):
        idx = np.flatnonzero(live)
        for _ in range(8):
            if not idx.size:
                break
            est = _estimate_angles(run(idx, n, _PREP), 0.5 * math.pi + n * target, n)
            keep = ~(np.abs(est - target) < 1e-6)
            idx, est = idx[keep], est[keep]
            omega = np.minimum(rabi_rates(cfg_arr[idx], a[idx]) * target / est, gain[idx])
            neg = omega < 0  # a negative estimate asks for a rate the map rejects
            for k, w in zip(idx[neg].tolist(), omega[neg].tolist()):
                try:
                    inverse_amplitude_map(cfg_arr[k], w)
                except MixerError as exc:
                    failed[k] = exc
            live[idx[neg]] = False
            idx, omega = idx[~neg], omega[~neg]
            a[idx] = rabi_rates(cfg_arr[idx], omega, inverse=True)

    # A qubit that met the 8-repeat stop rule keeps that amplitude, and its
    # angle error (< 1e-6) is the final one. The others changed amplitude
    # after their last run, so they are run once more.
    if idx.size:
        final_err = np.abs(
            _estimate_angles(run(idx, 8, _PREP), 0.5 * math.pi + 8 * target, 8) - target
        )
        for k, err in zip(idx.tolist(), final_err.tolist()):
            if not err <= 1e-4:  # NaN fails too
                failed[k] = CalibrationError(
                    f"amplification stalled: angle error {err:.2e} rad > 1e-4"
                )
    return a, failed


def residual_ratio(
    q: QubitParams,
    cfg: MixerConfig,
    a_if_grid,
    f_lo_hz: float,
    periods: float = 3.0,
) -> list[tuple[float, float]]:
    """Off/on Rabi-frequency ratio across IF amplitudes.

    Each point fits a sinusoid to the resonant Rabi trace for both mixer
    states: a one-column chevron read at the pulse's sample edges. Points
    where the off-state fit fails (vanishing drive) are dropped with a
    warning entry of NaN.
    """
    eps = cfg.off_leakage
    f_if = f_lo_hz - q.f_qubit_hz
    out = []
    for a in np.asarray(a_if_grid, dtype=float):
        if not 0.0 <= a <= 1.0:
            raise CalibrationError(f"a_if grid value {a} outside [0, 1]")
        f_on = amplitude_map(cfg, float(a))
        if f_on <= 0 or eps * f_on <= 0:
            out.append((float(a), math.nan))
            continue
        freqs = {}
        for on, f_scale in ((True, 1.0), (False, eps)):
            tau = periods / (f_scale * f_on)
            t = np.arange(SAMPLES_PER_CYCLE + 1) / (SAMPLES_PER_CYCLE / tau)  # sample edges
            p1 = chevron(q, cfg, f_lo_hz, [f_if], t, mixer_on=on, a_if=float(a))[0]
            try:
                freqs[on] = fit_curve(FitModel.RABI_SINUSOID, t, p1).params["f"]
            except qb.FitError:
                freqs[on] = math.nan
        out.append((float(a), freqs[False] / freqs[True]))
    return out
