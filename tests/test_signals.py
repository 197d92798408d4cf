import importlib
import math
import pkgutil
import re
import string
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcvz
from oracles import reference_raise_first
from qcvz.signals import (
    CycleSpec,
    Envelope,
    IfProgram,
    MultiToneLo,
    SignalError,
    Tone,
    _one_values,
    raise_first,
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


def _check_tables() -> dict:
    """Every module-level *_CHECKS table in the package, by name."""
    tables = {}
    for info in pkgutil.iter_modules(qcvz.__path__):
        module = importlib.import_module(f"qcvz.{info.name}")
        tables.update((name, value) for name, value in vars(module).items()
                      if name.endswith("_CHECKS") and isinstance(value, tuple))
    return tables


CHECK_TABLES = _check_tables()


class _Reads(dict):
    """A field dict that records each name a check reads and gives it True."""

    def __missing__(self, name):
        self[name] = True
        return True


def _field_names(checks) -> list[str]:
    """The fields that the checks' tests and messages read."""
    names = _Reads()
    for _, message, ok in checks:
        ok(names)
        for _, name, _, _ in string.Formatter().parse(message):
            if name:
                names[name]
    return sorted(names)


def _near(x):
    return [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf),
            x * (1 + 1e-12), x * (1 + 1e-9)]


# Each check's boundaries (and their neighbours, and the relative slack of the
# checks that compare two fields), signed zeros, subnormals, huge values and
# non-finite values; ints on both sides of 2**53, past which float64 rounds them.
EDGE_FLOATS = sorted({y for x in (0.0, 5e-324, 1e-9 * 45.0, 45.0, 90.0, 1.0, 1e-9, 0.5,
                                  1.5e-8, 5e9, 5.1e9, math.pi / 2, math.pi, 1e308)
                      for y in _near(x) + [-v for v in _near(x)]}) + [math.nan, math.inf, -math.inf]
EDGE_INTS = [0, 1, -1, 2, 45, 2**53, 2**53 + 1, -(2**53) - 1, 10**18]
NUMBERS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.sampled_from(EDGE_INTS),
                    st.booleans())


@st.composite
def field_values(draw, values):
    """A plain number, a numpy scalar, or an array of one or three values."""
    form = draw(st.sampled_from(["plain", "scalar", "one", "three"]))
    if form == "plain":
        return draw(values)
    if form == "scalar":
        return np.array(draw(values))[()]
    return np.array([draw(values) for _ in range(1 if form == "one" else 3)])


def _outcome(fn, checks, fields):
    """(error class and message or None, warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn(checks, **fields)
            error = None
        except Exception as exc:
            error = (type(exc), str(exc))
    return error, {str(w.message) for w in caught}


def test_every_check_table_is_drawn():
    assert set(CHECK_TABLES) == {
        "ENVELOPE_CHECKS", "IF_CHECKS", "CYCLE_CHECKS", "CARRIER_CHECKS", "DRIVE_CHECKS",
        "RATE_CHECKS", "_AMPLITUDE_CHECKS", "POPULATION_CHECKS", "_LO_CHECKS", "_TARGET_CHECKS"}


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_raise_first_raises_what_the_array_code_raises(data):
    # One to three tables, as the fast paths chain them; the Python path may
    # only drop a warning that numpy gives, never add one.
    names = data.draw(st.lists(st.sampled_from(sorted(CHECK_TABLES)), min_size=1, max_size=3,
                               unique=True), label="tables")
    checks = sum((CHECK_TABLES[name] for name in names), ())
    # quantized is a flag: a number there makes `&` raise, on each path its own way.
    fields = {name: data.draw(field_values(st.one_of(st.booleans(), NUMBERS)
                                           if name == "quantized" else NUMBERS), label=name)
              for name in _field_names(checks)}
    want, want_warnings = _outcome(reference_raise_first, checks, fields)
    got, got_warnings = _outcome(raise_first, checks, fields)
    assert got == want
    assert got_warnings <= want_warnings


@pytest.mark.parametrize("table, fields", [
    # numpy refuses to subtract bool arrays, where Python subtracts bools as ints
    ("_LO_CHECKS", dict(f_lo_hz=1.0, f_qubit_hz=np.array([True]), f_if_hz=1.0,
                        carrier_hz=np.array([True]))),
    # `&` on a float raises on both paths, each with its own message
    ("CYCLE_CHECKS", dict(cycle=0, quantized=np.array([1.0]), theta_if_deg=0.0, duration_s=0.0,
                          cycle_period_s=1.0)),
])
def test_raise_first_raises_what_the_array_code_raises_on_odd_fields(table, fields):
    checks = CHECK_TABLES[table]
    assert _outcome(raise_first, checks, fields) == _outcome(reference_raise_first, checks, fields)


def test_one_values_unwraps_what_python_checks_alike():
    one = _one_values({"a": np.array([1.5]), "b": True, "c": np.int64(2**53), "d": -0.0,
                       "e": np.array([[-7]]), "f": np.float64(3.0)})
    assert one == {"a": 1.5, "b": True, "c": 2**53, "d": 0.0, "e": -7, "f": 3.0}
    assert [type(v) for v in one.values()] == [float, bool, int, float, int, float]
    for other in (np.zeros(3), np.zeros(0), np.float32(1.0), np.array([1], dtype=np.int32),
                  np.array([True]), np.True_, 2**53 + 1, np.array([-(2**53) - 1]), 1j, "1",
                  None):
        assert _one_values({"a": 1.0, "b": other}) is None
