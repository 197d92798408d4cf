"""Pulse amplitude calibration against the simulated qubit.

A coarse bisection lands the single-pulse rotation near the target, then an
error-amplification stage (3, 5 and 9 pulse repeats) refines the amplitude
until the per-pulse angle error drops below 1e-4 rad. Amplitude is
calibrated at fixed duration so the search stays one-dimensional.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qubit as qb
from .mixer import (
    BitTimeline,
    DriveEnvelope,
    MixerConfig,
    amplitude_map,
    baseband_output,
    inverse_amplitude_map,
)
from .qubit import FitModel, QubitParams, fit_curve
from .signals import CycleSpec, Envelope, EnvelopeShape, make_if_program

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


def pulse_drive(
    cfg: MixerConfig,
    pulse: CalibratedPulse,
    theta_if_deg: float = 0.0,
    repeats: int = 1,
    on: bool = True,
    f_if_hz: float | None = None,
    a_if: float | None = None,
) -> DriveEnvelope:
    """Drive envelope for ``repeats`` back-to-back copies of a calibrated pulse."""
    cfg = replace(cfg, channel=replace(cfg.channel, freq_hz=pulse.f_lo_hz))
    env = Envelope(EnvelopeShape.FLAT, pulse.tau_if_s, pulse.a_if if a_if is None else a_if)
    cycles = [CycleSpec(theta_if_deg, env) for _ in range(repeats)]
    prog = make_if_program(
        f_if_hz if f_if_hz is not None else pulse.f_if_hz,
        pulse.tau_if_s,
        cycles,
        quantized=False,
    )
    bits = BitTimeline(tuple(1 if on else 0 for _ in range(repeats)))
    return baseband_output(cfg, prog, bits)


def _run_pulses(
    q: QubitParams,
    cfg: MixerConfig,
    pulse: CalibratedPulse,
    a_if: float,
    repeats: int,
    rho0: np.ndarray,
) -> float:
    drive = pulse_drive(cfg, pulse, repeats=repeats, a_if=a_if)
    return float(qb.propagate(q, drive, rho0).p1[-1])


# State after an exact pi/2 rotation about x from ground; biases the
# amplification signal onto the equator so it stays linear in the angle
# error for both pi/2 and pi targets.
_PREP_RHO = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)


def _estimate_angle(p1: float, expected_total: float, repeats: int) -> float:
    """Per-pulse angle from p1 = sin^2((pi/2 + n*theta)/2), branch nearest expected."""
    c = float(np.clip(1.0 - 2.0 * p1, -1.0, 1.0))
    base = math.acos(c)
    best = None
    m0 = round(expected_total / TWO_PI)
    for m in (m0 - 1, m0, m0 + 1):
        for total in (base + TWO_PI * m, -base + TWO_PI * m):
            if best is None or abs(total - expected_total) < abs(best - expected_total):
                best = total
    return (best - 0.5 * math.pi) / repeats


def calibrate_pulse(
    q: QubitParams,
    cfg: MixerConfig,
    target_angle_rad: float,
    tau_if_s: float,
    f_lo_hz: float,
    max_iter: int = 60,
) -> CalibratedPulse:
    """Find the IF amplitude realizing the target rotation at fixed duration.

    The pulse is placed on resonance (f_if = f_lo - f_qubit). Raises
    CalibrationError if the rotation is unreachable at a_if <= 1 or the
    amplification stage fails to converge.
    """
    if not 0.0 <= target_angle_rad <= math.pi:
        raise CalibrationError(f"target angle must be in [0, pi], got {target_angle_rad}")
    f_if = f_lo_hz - q.f_qubit_hz
    if f_if <= 0:
        raise CalibrationError(f"f_lo={f_lo_hz} below qubit frequency {q.f_qubit_hz}")
    pulse = CalibratedPulse(f_lo_hz, f_if, 1.0, tau_if_s, target_angle_rad)
    if target_angle_rad == 0.0:
        return CalibratedPulse(f_lo_hz, f_if, 0.0, tau_if_s, 0.0)
    max_angle = TWO_PI * amplitude_map(cfg, 1.0) * tau_if_s
    if max_angle < target_angle_rad:
        raise CalibrationError(
            f"target {target_angle_rad:.4f} rad unreachable: max angle "
            f"{max_angle:.4f} rad at a_if=1"
        )

    # Coarse: bisection of the single-pulse population toward sin^2(angle/2).
    # The rotation angle is monotone in a_if and capped at pi by the
    # reachability check, so p1 is monotone over the bracket.
    target_p1 = math.sin(0.5 * target_angle_rad) ** 2
    lo, hi = 0.0, 1.0
    a = inverse_amplitude_map(cfg, target_angle_rad / (TWO_PI * tau_if_s))
    for _ in range(30):
        p1 = _run_pulses(q, cfg, pulse, a, 1, qb.ground_state())
        angle = 2.0 * math.asin(math.sqrt(min(p1, 1.0)))
        if abs(angle - target_angle_rad) < 5e-3:
            break
        if angle < target_angle_rad:
            lo = a
        else:
            hi = a
        a = 0.5 * (lo + hi)

    # Fine: error amplification with 2, 4 and 8 repeats from an
    # equator-biased start, driving the over/under-rotation to zero. Even
    # repeat counts keep the total angle pi/2 + n*theta on the steep flank
    # of p1 for both pi/2 and pi targets.
    for n in (2, 4, 8):
        for _ in range(8):
            p1 = _run_pulses(q, cfg, pulse, a, n, _PREP_RHO)
            est = _estimate_angle(p1, 0.5 * math.pi + n * target_angle_rad, n)
            err = est - target_angle_rad
            if abs(err) < 1e-6:
                break
            omega = amplitude_map(cfg, a) * target_angle_rad / est
            a = inverse_amplitude_map(cfg, min(omega, cfg.gain_hz_per_unit))

    p1 = _run_pulses(q, cfg, pulse, a, 8, _PREP_RHO)
    final_err = abs(_estimate_angle(p1, 0.5 * math.pi + 8 * target_angle_rad, 8) - target_angle_rad)
    if final_err > 1e-4:
        raise CalibrationError(
            f"amplification stalled: angle error {final_err:.2e} rad > 1e-4"
        )
    return CalibratedPulse(f_lo_hz, f_if, a, tau_if_s, target_angle_rad)


def residual_ratio(
    q: QubitParams,
    cfg: MixerConfig,
    a_if_grid,
    f_lo_hz: float,
    periods: float = 3.0,
) -> list[tuple[float, float]]:
    """Off/on Rabi-frequency ratio across IF amplitudes.

    Each point fits a sinusoid to the resonant Rabi trace for both mixer
    states. Points where the off-state fit fails (vanishing drive) are
    dropped with a warning entry of NaN.
    """
    eps = cfg.off_leakage
    out = []
    for a in np.asarray(a_if_grid, dtype=float):
        if not 0.0 <= a <= 1.0:
            raise CalibrationError(f"a_if grid value {a} outside [0, 1]")
        f_on = amplitude_map(cfg, float(a))
        if f_on <= 0 or eps * f_on <= 0:
            out.append((float(a), math.nan))
            continue
        freqs = {}
        for state, f_scale in (("on", 1.0), ("off", eps)):
            f_eff = f_scale * f_on
            tau = periods / f_eff
            pulse = CalibratedPulse(f_lo_hz, f_lo_hz - q.f_qubit_hz, float(a), tau, math.pi)
            drive = pulse_drive(cfg, pulse, on=(state == "on"))
            traj = qb.propagate(q, drive, qb.ground_state(), drive.edges_s)
            try:
                fit = fit_curve(FitModel.RABI_SINUSOID, traj.times_s, traj.p1)
                freqs[state] = fit.params["f"]
            except qb.FitError:
                freqs[state] = math.nan
        out.append((float(a), freqs["off"] / freqs["on"]))
    return out
