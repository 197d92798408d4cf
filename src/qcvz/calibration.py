"""Pulse amplitude calibration from the mixer's own amplitude map.

A calibration pulse fills its cycle with one resonant held sample, so on the
closed qubit it rotates the Bloch vector about its drive axis by exactly
2 pi rate(a_if) tau, whatever the channel phase. The amplitude for a target
angle is therefore the inverse of the mixer map at target / (2 pi tau); no
simulation is run, and T1 and Tphi do not enter. calibrate_pulses inverts the
map for a whole LO cable at once, and calibrate_pulse is its one-qubit case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import qubit as qb
from .experiments import chevron
from .mixer import SAMPLES_PER_CYCLE, MixerConfig, amplitude_map, rabi_rates
from .qubit import FitModel, QubitParams, fit_curve
from .signals import ENVELOPE_CHECKS, IF_CHECKS, raise_first

TWO_PI = 2.0 * math.pi


class CalibrationError(RuntimeError):
    """A request with no amplitude: a target outside [0, pi] or unreachable
    at a_if <= 1, an LO that puts no carrier on the qubit, or malformed input.
    The amplitude is closed form and T1/Tphi do not enter, so no search can
    fail to converge."""


# calibrate_pulses' checks of each qubit, in order. A nonzero target is then
# checked for reach, and for what building its pulse's drive would raise.
_LO_CHECKS = (
    (CalibrationError, "f_lo={f_lo_hz} below qubit frequency {f_qubit_hz}",
     lambda f: np.logical_not(f["f_if_hz"] <= 0)),
    # Far enough above the qubit, the carrier f_lo - f_if rounds away from it.
    (CalibrationError,
     "carrier f_lo - f_if = {carrier_hz} Hz misses f_qubit={f_qubit_hz} Hz "
     "(f_lo={f_lo_hz}, f_if={f_if_hz}): f_lo is too far above the qubit",
     lambda f: np.logical_not(abs(f["carrier_hz"] - f["f_qubit_hz"]) > 1e-9 * f["f_qubit_hz"])),
)
_TARGET_CHECKS = (
    (CalibrationError,
     "target {target:.4f} rad unreachable: max angle {max_angle:.4f} rad at a_if=1",
     lambda f: np.logical_not(f["max_angle"] < f["target"])),
) + ENVELOPE_CHECKS + IF_CHECKS


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
        """Raises KeyError for a missing field, TypeError for a value that is
        not an int or float (a bool or None included) and OverflowError for
        an int beyond the float range."""
        values = [d[f.name] for f in fields(cls)]
        for f, v in zip(fields(cls), values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError(f"{f.name} must be a number, got {v!r}")
        return cls(*map(float, values))


def calibrate_pulse(
    q: QubitParams,
    cfg: MixerConfig,
    target_angle_rad: float,
    tau_if_s: float,
    f_lo_hz: float,
) -> CalibratedPulse:
    """The IF amplitude realizing the target rotation at fixed duration.

    The pulse is placed on resonance (f_if = f_lo - f_qubit). T1 and Tphi do
    not enter, so ``q`` and ``q.closed()`` give the same pulse. Raises
    CalibrationError if the rotation is unreachable at a_if <= 1. The
    one-qubit case of calibrate_pulses.
    """
    return calibrate_pulses([q], [cfg], target_angle_rad, tau_if_s, [f_lo_hz])[0]


def calibrate_pulses(
    qs: list[QubitParams],
    cfgs: list[MixerConfig],
    target_angle_rad: float,
    tau_if_s: float,
    f_lo_hz_list,
) -> list[CalibratedPulse]:
    """calibrate_pulse for every qubit k (mixer cfgs[k], LO f_lo_hz_list[k]):
    a_if = inverse mixer map of target / (2 pi tau), and 0 for a zero target.

    Raises the error the first failing qubit would raise on its own.
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
    with np.errstate(over="ignore"):  # an absurd duration reaches any angle
        max_angle = TWO_PI * rabi_rates(cfgs, np.ones(n)) * tau
    # A nonzero target's drive: an envelope of peak 1 filling a cycle of tau.
    raise_first(_LO_CHECKS + (_TARGET_CHECKS if target else ()), f_lo_hz=f_lo, f_qubit_hz=f_q,
                f_if_hz=f_if, carrier_hz=f_lo - f_if, target=target, max_angle=max_angle,
                duration_s=tau, peak=1.0, cycle_period_s=tau)
    # On the closed qubit the resonant held sample turns by 2 pi rate(a_if) tau.
    rate = target / (TWO_PI * tau) if target else 0.0
    a = rabi_rates(cfgs, np.full(n, rate), inverse=True)
    return [
        CalibratedPulse(f_lo_hz_list[k], float(f_if[k]), float(a[k]), tau, target)
        for k in range(n)
    ]


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
