import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvz.signals import (
    CycleSpec,
    Envelope,
    EnvelopeShape,
    IfProgram,
    MultiToneLo,
    SignalError,
    Tone,
    make_if_program,
)

TWO_PI = 2.0 * math.pi


def test_tone_validation():
    with pytest.raises(SignalError):
        Tone(-1.0, 0.5)
    with pytest.raises(SignalError):
        Tone(1e9, 1.5)
    with pytest.raises(SignalError):
        Tone(1e9, -0.1)
    for args in ((math.nan, 0.5), (math.inf, 0.5), (1e9, math.nan), (1e9, 0.5, math.nan),
                 (1e9, 0.5, math.inf)):
        with pytest.raises(SignalError):
            Tone(*args)


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


def test_envelope_shapes():
    d = 10e-9
    flat = Envelope(EnvelopeShape.FLAT, d, 0.7)
    assert flat.value(d / 3) == pytest.approx(0.7)
    assert flat.value(-1e-12) == 0.0
    assert flat.value(d + 1e-12) == 0.0

    tri = Envelope(EnvelopeShape.TRIANGULAR, d, 1.0)
    assert tri.value(d / 2) == pytest.approx(1.0)
    assert tri.value(0.0) == pytest.approx(0.0)
    # symmetric about the midpoint
    ts = np.linspace(0.0, d / 2, 11)
    assert np.allclose(tri.value(ts), tri.value(d - ts))
    # area of a triangle: peak * duration / 2
    ts = np.linspace(0.0, d, 20001)
    area = np.trapezoid(tri.value(ts), ts)
    assert area == pytest.approx(0.5 * d, rel=1e-6)

    g = Envelope("gaussian", d, 1.0)
    assert g.value(d / 2) == pytest.approx(1.0)
    assert g.value(0.0) == pytest.approx(math.exp(-0.5 * 3.0**2))


def test_envelope_validation():
    with pytest.raises(SignalError):
        Envelope(EnvelopeShape.FLAT, 0.0, 1.0)
    with pytest.raises(SignalError):
        Envelope(EnvelopeShape.FLAT, 1e-9, 1.5)
    for duration in (math.nan, math.inf):
        with pytest.raises(SignalError):
            Envelope(EnvelopeShape.FLAT, duration, 1.0)


def test_make_if_program_quantization():
    env = Envelope(EnvelopeShape.FLAT, 10e-9, 1.0)
    prog = make_if_program(3e9, 15e-9, [CycleSpec(45.0, env), CycleSpec(90.0, None)])
    assert isinstance(prog, IfProgram)
    assert prog.duration_s == pytest.approx(30e-9)
    assert prog.cycles[1].idle
    assert prog.theta_rad(0) == pytest.approx(math.pi / 4)
    with pytest.raises(SignalError):
        make_if_program(3e9, 15e-9, [CycleSpec(30.0, env)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SignalError):
            CycleSpec(bad, env)
        with pytest.raises(SignalError):
            make_if_program(bad, 15e-9, [CycleSpec(45.0, env)])
        with pytest.raises(SignalError):
            make_if_program(3e9, bad, [CycleSpec(45.0, env)])
    # arbitrary phases allowed when not quantized
    make_if_program(3e9, 15e-9, [CycleSpec(30.0, env)], quantized=False)


def test_make_if_program_envelope_too_long():
    env = Envelope(EnvelopeShape.FLAT, 20e-9, 1.0)
    with pytest.raises(SignalError):
        make_if_program(3e9, 15e-9, [CycleSpec(0.0, env)])
