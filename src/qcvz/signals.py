"""LO tones, IF cycle programs, and the checks that every drive constructor
shares with the array fast paths.

Amplitudes are flux amplitudes in units of Phi_0 throughout; conversion to
Rabi rates happens in the mixer model. Phases are degrees at the API
boundary (45 degree grid) and radians internally.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np


class NumericError(Exception):
    """Base of every qcvz error that the CLI reports as a numerical failure
    (exit 3). Each layer's error class derives from it and from ValueError or
    RuntimeError."""


class SignalError(NumericError, ValueError):
    """Invalid signal description."""


# Dtypes whose one value .item() turns into a Python number that every check
# treats as numpy does; not bool, whose arrays numpy refuses to subtract.
_ONE_VALUE_DTYPES = frozenset(map(np.dtype, (np.float64, np.int64)))


def _one_values(fields) -> dict | None:
    """``fields`` as Python numbers if each holds one value, else None. An int
    beyond 2**53, which numpy would round to a float64, does not count."""
    one = {}
    for name, v in fields.items():
        if isinstance(v, (np.ndarray, np.generic)):
            if v.size != 1 or v.dtype not in _ONE_VALUE_DTYPES:
                return None
            v = v.item()
        if not (type(v) in (float, bool) or type(v) is int and abs(v) <= 2**53):
            return None
        one[name] = v
    return one


def raise_first(checks, **fields) -> None:
    """Raise, at the first index where one of ``checks`` fails, the first of
    them that fails there. A check is (error, message, ok): ``ok`` takes the
    fields as a dict (each a number, or an array of one value per index; they
    broadcast together) and is true, or a mask true, where they are valid,
    and ``error(message)`` is raised formatted from the fields at the index.
    A field can be a plain number, so ``ok`` negates with np.logical_not.
    With no index (an empty field) nothing is raised. Each constructor calls
    its own checks with its scalars, and a fast path calls the checks of every
    constructor it stands in for, in their order, with one value per pulse.

    When every field holds one value (a float, bool or int, or a float64 or
    int64 array of size 1, as for one pulse or one qubit), the checks first
    run on those values as Python numbers, at a tenth of the cost of numpy
    calls. Python compares, adds, subtracts, multiplies and takes % of them
    with numpy's IEEE results, and no check in qcvz divides by a field or
    multiplies two fields, so each check answers as it would on the arrays.
    If all pass, nothing is raised; if any fails or raises, the array code
    below runs on the fields as given and raises exactly what it raised."""
    one = _one_values(fields)
    if one is not None:
        try:
            if all(ok(one) for _, _, ok in checks):
                return
        except Exception:
            pass
    oks = [ok(fields) for _, _, ok in checks]
    if np.asarray(functools.reduce(operator.and_, oks)).all():
        return
    shape = np.broadcast_shapes(*map(np.shape, (*fields.values(), *oks)))
    bad = ~np.array([np.broadcast_to(ok, shape).reshape(-1) for ok in oks])
    at = np.flatnonzero(bad.any(axis=0))
    if at.size:
        k = at[0]
        error, message, _ = checks[int(np.argmax(bad[:, k]))]
        raise error(message.format(
            **{name: np.broadcast_to(v, shape).flat[k] for name, v in fields.items()}))


ENVELOPE_CHECKS = (
    (SignalError, "envelope duration must be positive and finite, got {duration_s}",
     lambda f: (f["duration_s"] > 0) & (f["duration_s"] < math.inf)),
    (SignalError, "envelope peak A_if must be in [0, 1], got {peak}",
     lambda f: (f["peak"] >= 0.0) & (f["peak"] <= 1.0)),
)
IF_CHECKS = (
    (SignalError, "IF frequency must be positive and finite, got {f_if_hz}",
     lambda f: (f["f_if_hz"] > 0) & (f["f_if_hz"] < math.inf)),
    (SignalError, "cycle period must be positive and finite, got {cycle_period_s}",
     lambda f: (f["cycle_period_s"] > 0) & (f["cycle_period_s"] < math.inf)),
)
# One value per cycle; an idle cycle has envelope duration 0.
CYCLE_CHECKS = (
    (SignalError, "cycle {cycle}: theta_if={theta_if_deg} deg is not a multiple of 45",
     lambda f: np.logical_not(f["quantized"] & (abs(f["theta_if_deg"] % 45.0) > 1e-9 * 45.0))),
    (SignalError,
     "cycle {cycle}: envelope duration {duration_s} exceeds cycle period {cycle_period_s}",
     lambda f: np.logical_not(f["duration_s"] > f["cycle_period_s"] * (1 + 1e-12))),
)


@dataclass(frozen=True)
class Tone:
    """One LO tone: frequency, flux amplitude (Phi_0 units) and fixed phase."""

    freq_hz: float
    amp: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not 0 < self.freq_hz < math.inf:
            raise SignalError(f"tone frequency must be positive and finite, got {self.freq_hz}")
        if not 0.0 <= self.amp <= 1.0:
            raise SignalError(f"tone amplitude must be in [0, 1] Phi_0, got {self.amp}")
        if not math.isfinite(self.phase_rad):
            raise SignalError(f"tone phase must be finite, got {self.phase_rad}")
        phase = self.phase_rad % math.tau
        # float modulo can round a tiny negative phase up to exactly 2 pi
        if phase >= math.tau:
            phase = 0.0
        object.__setattr__(self, "phase_rad", phase)


@dataclass(frozen=True)
class MultiToneLo:
    """Ordered set of LO tones sharing one line."""

    tones: tuple[Tone, ...]

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        freqs = [t.freq_hz for t in self.tones]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise SignalError("LO tone frequencies must be strictly increasing")


@dataclass(frozen=True)
class Envelope:
    """Flat pulse within one control cycle: the IF amplitude ``peak`` (A_if,
    dimensionless in [0, 1]) held from the cycle start for ``duration_s``."""

    duration_s: float
    peak: float = 1.0

    def __post_init__(self):
        raise_first(ENVELOPE_CHECKS, duration_s=self.duration_s, peak=self.peak)


@dataclass(frozen=True)
class CycleSpec:
    """One TDM control cycle: IF phase plus an optional pulse envelope.

    ``envelope is None`` marks an idle cycle (no IF drive in the slot).
    """

    theta_if_deg: float
    envelope: Envelope | None = None

    def __post_init__(self):
        if not math.isfinite(self.theta_if_deg):
            raise SignalError(f"cycle phase must be finite, got {self.theta_if_deg}")

    @property
    def idle(self) -> bool:
        return self.envelope is None


@dataclass(frozen=True)
class IfProgram:
    """IF frequency plus the per-cycle (theta_if, envelope) schedule.

    Cycle i starts at time i * cycle_period_s. In quantized mode every cycle
    phase must sit on the 45 degree grid.
    """

    f_if_hz: float
    cycle_period_s: float
    cycles: tuple[CycleSpec, ...]
    quantized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        raise_first(IF_CHECKS, f_if_hz=self.f_if_hz, cycle_period_s=self.cycle_period_s)
        raise_first(
            CYCLE_CHECKS, cycle=np.arange(len(self.cycles)), quantized=self.quantized,
            theta_if_deg=np.array([c.theta_if_deg for c in self.cycles], dtype=float),
            duration_s=np.array([0.0 if c.idle else c.envelope.duration_s for c in self.cycles]),
            cycle_period_s=self.cycle_period_s,
        )
