import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.signals import (
    CycleSpec,
    Envelope,
    IfProgram,
    MultiToneLo,
    SignalError,
    Tone,
)

TWO_PI = 2.0 * math.pi


def test_tone_validation():
    with pytest.raises(SignalError):
        Tone(-1.0, 0.5)
    with pytest.raises(SignalError):
        Tone(1e9, 1.5)
    with pytest.raises(SignalError):
        Tone(1e9, -0.1)
    for args in ((math.nan, 0.5), (math.inf, 0.5), (0.0, 0.5), (1e9, math.nan), (1e9, math.inf),
                 (1e9, 0.5, math.nan), (1e9, 0.5, math.inf)):
        with pytest.raises(SignalError):
            Tone(*args)
    assert Tone(8e9, 0.0, -1.0).amp == 0.0


@given(st.floats(-100.0, 100.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_tone_phase_normalized(phase):
    t = Tone(1e9, 0.5, phase)
    assert 0.0 <= t.phase_rad < TWO_PI
    assert math.isclose(
        math.cos(t.phase_rad), math.cos(phase), abs_tol=1e-9
    )


def test_lo_tones_strictly_increasing():
    a, b = Tone(8.0e9, 0.5), Tone(8.2e9, 0.5)
    MultiToneLo((a, b))
    with pytest.raises(SignalError):
        MultiToneLo((b, a))
    with pytest.raises(SignalError):
        MultiToneLo((a, a))


def test_envelope_validation():
    with pytest.raises(SignalError):
        Envelope(0.0, 1.0)
    with pytest.raises(SignalError):
        Envelope(1e-9, 1.5)
    for duration in (math.nan, math.inf):
        with pytest.raises(SignalError):
            Envelope(duration, 1.0)


def test_if_program_quantization():
    env = Envelope(10e-9, 1.0)
    prog = IfProgram(3e9, 15e-9, [CycleSpec(45.0, env), CycleSpec(90.0, None)])
    assert isinstance(prog, IfProgram)
    assert len(prog.cycles) * prog.cycle_period_s == pytest.approx(30e-9)
    assert prog.cycles[1].idle
    with pytest.raises(SignalError):
        IfProgram(3e9, 15e-9, [CycleSpec(30.0, env)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SignalError):
            CycleSpec(bad, env)
        with pytest.raises(SignalError):
            IfProgram(bad, 15e-9, [CycleSpec(45.0, env)])
        with pytest.raises(SignalError):
            IfProgram(3e9, bad, [CycleSpec(45.0, env)])
    # arbitrary phases allowed when not quantized
    IfProgram(3e9, 15e-9, [CycleSpec(30.0, env)], quantized=False)


def test_if_program_envelope_too_long():
    env = Envelope(20e-9, 1.0)
    with pytest.raises(SignalError):
        IfProgram(3e9, 15e-9, [CycleSpec(0.0, env)])


_ENV = Envelope(10e-9, 1.0)


@pytest.mark.parametrize("f_if, period, cycles, message", [
    *((f, 15e-9, [CycleSpec(45.0, _ENV)], f"IF frequency must be positive and finite, got {f}")
      for f in (math.nan, math.inf, -math.inf, 0.0, -3e9)),
    *((3e9, p, [CycleSpec(45.0, _ENV)], f"cycle period must be positive and finite, got {p}")
      for p in (math.nan, math.inf, -math.inf, 0.0, -15e-9)),
    # the IF frequency is checked before the period, and both before any cycle
    (math.nan, -1.0, [CycleSpec(30.0, _ENV)], "IF frequency must be positive and finite, got nan"),
    (3e9, 15e-9, [CycleSpec(45.0, _ENV), CycleSpec(30.0, _ENV)],
     "cycle 1: theta_if=30.0 deg is not a multiple of 45"),
    (3e9, 15e-9, [CycleSpec(0.0), CycleSpec(0.0, Envelope(20e-9))],
     "cycle 1: envelope duration 2e-08 exceeds cycle period 1.5e-08"),
])
def test_if_program_checks_itself(f_if, period, cycles, message):
    with pytest.raises(SignalError, match=f"^{re.escape(message)}$"):
        IfProgram(f_if, period, cycles)


def test_if_program_replace_checks_again():
    prog = IfProgram(3e9, 15e-9, [CycleSpec(30.0, _ENV)], quantized=False)
    assert prog.cycles == (CycleSpec(30.0, _ENV),)
    with pytest.raises(SignalError, match="cycle 0: theta_if=30.0 deg is not a multiple of 45"):
        replace(prog, quantized=True)
    with pytest.raises(SignalError, match="IF frequency must be positive and finite, got nan"):
        replace(prog, f_if_hz=math.nan)
    with pytest.raises(SignalError, match="cycle 0: envelope duration 1e-08 exceeds"):
        replace(prog, cycle_period_s=5e-9)
