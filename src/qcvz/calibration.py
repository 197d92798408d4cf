"""Pulse amplitude calibration from the mixer's own amplitude map.

A calibration pulse fills its cycle with one resonant held sample, so on the
closed qubit it rotates the Bloch vector about its drive axis by exactly
2 pi rate(a_if) tau, whatever the channel phase. The amplitude for a target
angle is therefore the inverse of the mixer map at target / (2 pi tau); no
simulation is run, and T1 and Tphi do not enter. calibrate_pulses inverts the
map for a whole LO cable at once, and calibrate_pulse is its one-qubit case.
This module is closed form only: the simulated off/on check of the mixer,
residual_ratio, sits beside the chevron it reads, in experiments.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .mixer import RATE_CHECKS, MixerConfig, _rate_map
from .qubit import QubitParams
from .signals import ENVELOPE_CHECKS, IF_CHECKS, NumericError, raise_first



class CalibrationError(NumericError, RuntimeError):
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

    def to_dict(self) -> dict:
        return asdict(self)

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

    Runs every qubit's calibration checks, then the mixer's rate check
    (mixer.RATE_CHECKS), each raising at the first qubit that fails it. So
    where 2 pi gain tau overflows, a batch can raise a later qubit's
    CalibrationError where an earlier qubit alone raises MixerError.
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
    # The rate at a_if = 1 is the gain: both response curves have f(1) = 1.
    gain = np.array([c.gain_hz_per_unit for c in cfgs], dtype=float)
    # An absurd duration reaches any angle. At tau = 0 a 2 pi gain that overflows
    # gives inf * 0 = NaN, which passes the reach check for the envelope's to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        max_angle = math.tau * gain * tau
    # A nonzero target's drive: an envelope of peak 1 filling a cycle of tau.
    raise_first(_LO_CHECKS + (_TARGET_CHECKS if target else ()), f_lo_hz=f_lo, f_qubit_hz=f_q,
                f_if_hz=f_if, carrier_hz=f_lo - f_if, target=target, max_angle=max_angle,
                duration_s=tau, peak=1.0, cycle_period_s=tau)
    # On the closed qubit the resonant held sample turns by 2 pi rate(a_if) tau.
    rate = target / (math.tau * tau) if target else 0.0
    # Only after every qubit's checks: where 2 pi gain overflows, a rate can
    # pass the reach check and still exceed the gain.
    raise_first(RATE_CHECKS, value=rate, gain=gain)
    a = _rate_map(cfgs, gain, rate, inverse=True)
    return [
        CalibratedPulse(f_lo_hz_list[k], float(f_if[k]), float(a[k]), tau, target)
        for k in range(n)
    ]
