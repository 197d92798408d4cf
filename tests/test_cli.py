import argparse
import ast
import contextlib
import copy
import importlib
import io
import json
import math
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcvz import cli
from qcvz.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    main,
)
from qcvz.demux import demux, resonator_gain
from qcvz.mixer import BitTimeline, baseband_output
from qcvz.qubit import Trajectory, ground_state, propagate
from qcvz.signals import CycleSpec, Envelope, IfProgram, NumericError, Tone
from qcvz.svgplot import PlotError, emit_plot


def run(outdir, *argv):
    return main([argv[0], "--out", str(outdir), *argv[1:]])


def test_unknown_command():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help():
    assert main([]) == EXIT_OK
    assert main(["--help"]) == EXIT_OK


def test_bad_flag_is_usage_error(tmp_path):
    assert main(["resources", "--no-such-flag"]) == EXIT_USAGE
    for qubit in ("1", "3", "-1"):  # the default device has one qubit
        assert run(tmp_path, "calibrate", "--qubit", qubit) == EXIT_USAGE
    for argv in (
        ("chevron", "--step-hz", "0"),
        ("chevron", "--step-hz", "-2e5"),
        ("chevron", "--step-hz", "nan"),
        ("chevron", "--tau-points", "0"),
        ("vz-ramsey", "--points", "0"),
        ("t1", "--points", "0"),
        ("echo", "--points", "-3"),
        ("ramsey", "--points", "x"),
        ("calibrate", "--tau-s", "0"),
        ("calibrate", "--tau-s=-1e-9"),
        ("t1", "--tau-s", "nan"),
        ("vz-ramsey", "--tau-s", "inf"),
        ("chevron", "--span-hz", "nan"),
        ("chevron", "--span-hz", "inf"),
        ("chevron", "--tau-max-s", "-inf"),
        ("rabi", "--tau-max-s", "-1"),
        ("ramsey", "--detuning-hz", "-inf"),
        ("resources", "-n", "5", "--q-factor", "nan"),
        ("resources", "-n", "5", "--bandwidth-hz", "inf"),
        ("resources", "-n", "5", "--ref-freq-hz", "-inf"),
        *((cmd, "--a-if", value) for cmd in ("chevron", "rabi") for value in ("nan", "inf")),
        ("chevron", "--a-if=-inf"),
        ("rabi", "--a-if=-inf"),
    ):
        assert run(tmp_path, *argv) == EXIT_USAGE, argv


@pytest.mark.parametrize("cmd, flag, value, code, err", [
    ("ramsey", "--detuning-hz", "-3.4e5", EXIT_OK, ""),
    ("chevron", "--span-hz", "-8e6", EXIT_NUMERIC, "qcvz: empty sweep grid\n"),  # sweeps nothing
])
def test_negative_exponent_values_need_the_equals_form(tmp_path, cmd, flag, value, code, err):
    # argparse reads "-3.4e5" after a space as a flag, not a value, so it
    # must be written "--flag=-3.4e5".
    spaced, text = run_clean(cmd, flag, value, "--out", str(tmp_path))
    assert spaced == EXIT_USAGE and f"argument {flag}: expected one argument" in text, text
    assert run_clean(cmd, f"{flag}={value}", "--out", str(tmp_path)) == (code, err)


def test_parser_reuse_is_stateless(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["t1", "--out", "out"]) == EXIT_OK
    Path("out").rename("first")
    assert main(["t1", "--out", "out", "--points", "0"]) == EXIT_USAGE
    assert main(["t1", "--help"]) == EXIT_OK
    assert main(["chevron", "--out", "chevron"]) == EXIT_OK
    assert main(["t1", "--out", "out"]) == EXIT_OK
    names = sorted(p.name for p in Path("first").iterdir())
    assert names == ["t1.csv", "t1.csv.meta.json", "t1_fit.json"]
    assert names == sorted(p.name for p in Path("out").iterdir())
    for name in names:
        assert (Path("first") / name).read_bytes() == (Path("out") / name).read_bytes(), name
    assert cli._build_parser("t1") is cli._build_parser("t1")
    first, second = (cli._build_parser("t1").parse_args([]) for _ in range(2))
    assert first is not second and vars(first) == vars(second)
    cached = cli._build_parser.cache_info().currsize
    assert main(["nonsense"]) == EXIT_USAGE
    assert cli._build_parser.cache_info().currsize == cached <= len(cli.COMMANDS)


def test_bad_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    assert main(["resources", "-n", "10", "--config", str(p)]) == EXIT_CONFIG
    p.write_text(json.dumps({"qubits": []}))
    assert main(["resources", "-n", "10", "--config", str(p)]) == EXIT_CONFIG
    base = cli.DEFAULT_CONFIG
    for raw in (
        dict(base, mixers=base["mixers"] * 2, qubits=base["qubits"] * 2),  # 1 resonator
        dict(base, lo_tones=[]),
        dict(base, resonators=[], mixers=[], qubits=[]),
        dict(base, resonators=[{"f_r_hz": math.nan, "q": 1.0e4}]),
        dict(base, mixers=[dict(base["mixers"][0], nonlinearity="cubic")]),
        dict(base, if_defaults={"f_if_hz": math.inf}),
        dict(base, if_defaults=[]),
    ):
        p.write_text(json.dumps(raw))
        assert run(tmp_path, "spectrum", "--config", str(p)) == EXIT_CONFIG


def test_default_config_loads():
    cfg = load_config(None)
    assert len(cfg.qubits) == len(cfg.mixers) == len(cfg.resonators)


def test_cable_config_matches_tone_k_to_mixer_k(tmp_path):
    n = 1000
    f_r = 6.0e9 + 2.0e6 * np.arange(n)
    raw = dict(
        cli.DEFAULT_CONFIG,
        # each tone sits 50 kHz above its resonance, 2 MHz from the next one
        lo_tones=[{"freq_hz": f + 5.0e4, "amp_phi0": 0.5, "phase_rad": 0.1} for f in f_r],
        resonators=[{"f_r_hz": f, "q": 1.0e4} for f in f_r],
        mixers=cli.DEFAULT_CONFIG["mixers"] * n,
        qubits=cli.DEFAULT_CONFIG["qubits"] * n,
    )
    p = tmp_path / "cable.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(str(p))
    assert len(cfg.mixers) == n
    for tone, r, mixer in zip(cfg.lo.tones, cfg.resonators, cfg.mixers):
        g = resonator_gain(r, tone.freq_hz)
        assert abs(g) < 1.0
        assert mixer.channel == Tone(
            tone.freq_hz, tone.amp * abs(g), tone.phase_rad + float(np.angle(g))
        )


def test_resources_outputs(tmp_path):
    assert run(tmp_path, "resources", "-n", "1000000") == EXIT_OK
    data = json.loads((tmp_path / "resources.json").read_text())
    assert data["avg_pw_per_qubit"] == pytest.approx(110.96)
    assert data["cable_count"] == 250
    assert (tmp_path / "resources.txt").exists()
    meta = json.loads((tmp_path / "resources.json.meta.json").read_text())
    assert meta["command"] == "resources"
    assert meta["seed"] == 0


def test_resources_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "resources", "-n", "4000") == EXIT_OK
    assert run(b, "resources", "-n", "4000") == EXIT_OK
    assert (a / "resources.json").read_bytes() == (b / "resources.json").read_bytes()


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QCVZ_OUT_DIR", str(tmp_path / "envdir"))
    assert main(["resources", "-n", "10"]) == EXIT_OK
    assert (tmp_path / "envdir" / "resources.json").exists()


def test_compile_example_programs(tmp_path):
    prog = tmp_path / "prog.json"
    prog.write_text(
        json.dumps(
            {
                "qubits": [
                    ["x90", "x90"],
                    ["x90", "t", "x90", "s", "x90"],
                    ["x90", "h", "x90"],
                ]
            }
        )
    )
    assert run(tmp_path, "compile", "--program", str(prog)) == EXIT_OK
    sched = json.loads((tmp_path / "schedule.json").read_text())
    slots_q0 = [c["slot"] for c in sched["cycles"] if 0 in c["fired"]]
    assert slots_q0 == [0, 8]
    stats = json.loads((tmp_path / "schedule_stats.json").read_text())
    assert stats["cycles"] == len(sched["cycles"])
    assert (tmp_path / "schedule.csv").exists()


def test_compile_bad_gate_is_numeric_error(tmp_path):
    prog = tmp_path / "prog.json"
    # a non-finite Z angle never matched a free-mode phase, so compile hung
    for gates in (["x90", "cnot"], ["z:nan", "x90"], ["z:inf", "x90"], ["z:abc"]):
        prog.write_text(json.dumps({"qubits": [gates]}))
        for mode in ("quantized45", "free"):
            assert run(tmp_path, "compile", "--program", str(prog), "--mode", mode) == EXIT_NUMERIC


@pytest.mark.parametrize("qubits, code, message", [
    ([["x90", "cnot"]], EXIT_NUMERIC, "unknown gate name 'cnot'"),
    # distinct names are parsed in first-seen order: the first bad one is reported
    ([["x90", "s"], ["t", "bogus", "x90"], ["zz"]], EXIT_NUMERIC, "unknown gate name 'bogus'"),
    ([["x90", 3]], EXIT_CONFIG, 'is not {"qubits": [[gate name, ...], ...]}'),
    ([["x90"], "x90"], EXIT_CONFIG, 'is not {"qubits": [[gate name, ...], ...]}'),
    ([], EXIT_NUMERIC, "program needs at least one qubit"),
    ([["x90", "z:nan"]], EXIT_NUMERIC, "Z angle must be finite, got nan"),
    # a name that is not a string is refused before any name is parsed
    ([["bogus", 3]], EXIT_CONFIG, 'is not {"qubits": [[gate name, ...], ...]}'),
    ([["bogus", ["x90"]]], EXIT_CONFIG, 'is not {"qubits": [[gate name, ...], ...]}'),
    ([["x90", True]], EXIT_CONFIG, 'is not {"qubits": [[gate name, ...], ...]}'),
])
def test_compile_bad_program_exit_code_and_message(tmp_path, capsys, qubits, code, message):
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps({"qubits": qubits}))
    assert run(tmp_path, "compile", "--program", str(prog)) == code
    err = capsys.readouterr().err
    assert err.startswith("qcvz: ") and message in err and err.count("\n") == 1


def test_compile_missing_program_is_config_error(tmp_path):
    assert run(tmp_path, "compile", "--program", str(tmp_path / "nope.json")) == EXIT_CONFIG
    prog = tmp_path / "prog.json"
    for bad in ({}, [], {"qubits": "x90"}, {"qubits": [[1]]}, {"qubits": [None]},
                {"qubits": [["x90", ["x90"]]]}):
        prog.write_text(json.dumps(bad))
        assert run(tmp_path, "compile", "--program", str(prog)) == EXIT_CONFIG
    assert run(tmp_path, "t1", "--pulses", str(tmp_path / "missing.json")) == EXIT_CONFIG
    pulses = tmp_path / "pulses.json"
    for text in ("{not json", json.dumps({"x90": {}}), "[]"):
        pulses.write_text(text)
        assert run(tmp_path, "t1", "--pulses", str(pulses)) == EXIT_CONFIG


def test_spectrum_outputs(tmp_path):
    assert run(tmp_path, "spectrum") == EXIT_OK
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "freq_hz,power_db"
    assert len(lines) == 5
    on = {float(f): float(p) for f, p in (ln.split(",") for ln in lines[1:])}
    off_dir = tmp_path / "off"
    assert run(off_dir, "spectrum", "--off") == EXIT_OK
    lines = (off_dir / "spectrum.csv").read_text().splitlines()
    off = {float(f): float(p) for f, p in (ln.split(",") for ln in lines[1:])}
    f_diff = max(on, key=on.get)  # difference tone sits at 0 dB when on
    assert on[f_diff] - off[f_diff] == pytest.approx(28.5, abs=1e-9)
    assert (tmp_path / "crosstalk.csv").exists()


def test_spectrum_encodes_its_sidecar_once(tmp_path, monkeypatch):
    # Both artifacts take a sidecar, and the meta names neither of them.
    encoded, dumps = [], cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda obj: encoded.append(obj) or dumps(obj))
    assert run(tmp_path, "spectrum") == EXIT_OK
    assert len(encoded) == 1
    meta = {"command": "spectrum", "seed": 0, "config": cli.DEFAULT_CONFIG,
            "args": dict(PARSED_DEFAULTS["spectrum"], out=str(tmp_path))}
    want = (json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    for name in ("spectrum", "crosstalk"):
        assert (tmp_path / f"{name}.csv.meta.json").read_bytes() == want, name


def test_spectrum_with_if_above_lo_is_numeric_error(tmp_path, capsys):
    # A 9-GHz IF against the default 8-GHz tone: no positive difference tone.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cli.DEFAULT_CONFIG,
                                    if_defaults={"f_if_hz": 9e9, "cycle_period_s": 1.5e-8})))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(out, "spectrum", "--config", str(path)) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "difference frequency -1000000000.0 Hz is not positive" in err, err
    assert "Traceback" not in err
    assert not (out / "spectrum.csv").exists()


def test_default_crosstalk_reads_positive_zero(tmp_path):
    # The default qubit's tone sits on its resonance: 0 dB, written 0, not -0.
    assert run(tmp_path, "spectrum") == EXIT_OK
    assert (tmp_path / "crosstalk.csv").read_text().splitlines() == ["resonator,tone0_db", "0,0"]


def test_multi_tone_crosstalk_is_the_demux_matrix(tmp_path):
    # Three tones, each 50 kHz above its resonance and 2 MHz from the next.
    f_r = 6.0e9 + 2.0e6 * np.arange(3)
    raw = dict(
        cli.DEFAULT_CONFIG,
        lo_tones=[{"freq_hz": f + 5.0e4, "amp_phi0": 0.5, "phase_rad": 0.1} for f in f_r],
        resonators=[{"f_r_hz": f, "q": 1.0e4} for f in f_r],
        mixers=cli.DEFAULT_CONFIG["mixers"] * 3,
        qubits=cli.DEFAULT_CONFIG["qubits"] * 3,
    )
    path = tmp_path / "cable.json"
    path.write_text(json.dumps(raw))
    assert run(tmp_path, "spectrum", "--config", str(path)) == EXIT_OK
    cfg = load_config(str(path))
    _, xtalk = demux(cfg.resonators, cfg.lo)
    rows = [line.split(",") for line in (tmp_path / "crosstalk.csv").read_text().splitlines()]
    assert rows[0] == ["resonator", "tone0_db", "tone1_db", "tone2_db"]
    assert rows[1:] == [[str(k), *("%.12g" % v for v in row)] for k, row in enumerate(xtalk)]
    assert (xtalk < 0).all()  # no tone sits on a resonance


def row_csv(header, rows):
    """The per-cell writer that the column writer replaces."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
)


@given(
    floats=st.lists(st.tuples(CSV_FLOATS, CSV_FLOATS), max_size=40),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=40, max_size=40),
    words=st.lists(st.text("abc_-.09", max_size=5), min_size=40, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_csv_columns_match_the_row_writer(floats, ints, words):
    n = len(floats)
    a = [x for x, _ in floats]
    b = np.array([y for _, y in floats])
    rows = list(zip(ints[:n], a, words[:n], b.tolist()))
    with tempfile.TemporaryDirectory() as tmp:
        args = argparse.Namespace(out=tmp, plot=False)
        cli._Artifacts("test", args, None).csv(
            "t", ["i", "a", "w", "b"], [np.array(ints[:n], dtype=np.int64), a, words[:n], b],
            sidecar=False)
        assert (Path(tmp) / "t.csv").read_bytes() == row_csv(["i", "a", "w", "b"], rows).encode()


def test_rabi_and_plot(tmp_path):
    assert run(tmp_path, "rabi", "--tau-max-s", "1e-7") == EXIT_OK
    csv = tmp_path / "rabi.csv"
    assert csv.read_text().splitlines()[0] == "t_s,p1"
    assert run(tmp_path, "plot", "--csv", str(csv), "--kind", "line") == EXIT_OK
    svg = csv.with_suffix(".svg")
    assert svg.exists() and svg.read_text().startswith("<svg")
    # plotting is deterministic
    first = svg.read_bytes()
    assert run(tmp_path, "plot", "--csv", str(csv), "--kind", "line") == EXIT_OK
    assert svg.read_bytes() == first


def test_heatmap_is_deterministic_and_rejects_a_ragged_grid(tmp_path):
    # Values 0, 1/4, ..., 1 on a 3 x 2 grid: one cell at each colormap stop.
    rows = [f"{x},{y},{(x + 2 * y) / 4}\n" for x in (0, 1, 2) for y in (0, 1)]

    def render(name, lines):
        csv = tmp_path / f"{name}.csv"
        csv.write_text("x,y,v\n" + "".join(lines))
        return emit_plot(csv, "heatmap").read_bytes()

    first = render("grid", rows)
    assert render("grid", rows) == first
    assert render("reversed", rows[::-1]) == first
    assert render("shuffled", rows[3:] + rows[:3]) == first
    assert first.count(b"<rect x=") == 6
    for color in (b"#440154", b"#3b528b", b"#21918c", b"#5ec962", b"#fde725"):
        assert first.count(b'fill="' + color + b'"') == (2 if color == b"#21918c" else 1)
    with pytest.raises(PlotError, match="rectangular"):
        render("ragged", rows[:-1])
    with pytest.raises(PlotError, match="rectangular"):  # one cell twice, one missing
        render("repeated", rows[:-1] + rows[:1])
    assert run(tmp_path, "chevron", "--plot") == EXIT_OK
    assert (tmp_path / "chevron.svg").read_bytes().count(b"<rect x=") == 41 * 26


class _Tables:
    """An artifact writer that keeps each CSV's columns at full precision."""

    def __init__(self):
        self.columns = {}

    def csv(self, name, header, columns, plot=None):
        self.columns[name] = columns


def reference_rabi(cfg, args):
    """The Rabi trace through the drive: one flat resonant pulse filling its
    cycle, from baseband_output, propagated and read at its sample edges."""
    q, mixer = cfg.qubits[args.qubit], cfg.mixers[args.qubit]
    env = Envelope(args.tau_max_s, args.a_if)
    prog = IfProgram(mixer.channel.freq_hz - q.f_qubit_hz, args.tau_max_s,
                     [CycleSpec(0.0, env)], quantized=False)
    drive = baseband_output(mixer, prog, BitTimeline((0 if args.off else 1,)))
    edges = np.arange(len(drive.samples) + 1) / drive.envelope_rate_hz
    return propagate(q, drive, ground_state(), edges)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_rabi_matches_drive_propagation(tmp_path, closed):
    raw = dict(cli.DEFAULT_CONFIG)
    if closed:
        raw["qubits"] = [{"f_qubit_hz": raw["qubits"][0]["f_qubit_hz"]}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    for flags in ([], ["--off"], ["--a-if", "0.3", "--tau-max-s", "2e-7"],
                  ["--a-if", "0.3", "--tau-max-s", "3e-6", "--off"]):
        args = cli._build_parser("rabi").parse_args(flags)
        out = _Tables()
        cli.cmd_rabi(cfg, args, out)
        t, p1 = out.columns["rabi"]
        want = reference_rabi(cfg, args)
        assert np.array_equal(t, want.times_s), flags
        assert np.max(np.abs(p1 - want.p1)) <= 1e-12, flags


def test_carrier_lost_to_rounding_is_a_calibration_error(tmp_path, capsys):
    # Far above the qubit, f_lo - (f_lo - f_qubit) is no longer f_qubit.
    for f_lo in (1e308, 1e25):
        tone = dict(cli.DEFAULT_CONFIG["lo_tones"][0], freq_hz=f_lo)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cli.DEFAULT_CONFIG, lo_tones=[tone])))
        capsys.readouterr()
        assert run(tmp_path, "calibrate", "--config", str(path)) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "misses f_qubit=4532020000.0 Hz" in err and f"f_lo={f_lo!r}" in err, err


def test_plot_bad_csv_is_numeric_error(tmp_path):
    bad = tmp_path / "bad.csv"
    for kind, text in (
        ("line", "a,b\n1,2\nx,y\n"),
        ("line", "a,b\n1,2\n2,nan\n"),  # non-finite cells
        ("heatmap", "x,y,v\n0,0,0.5\n0,1,inf\n"),
        ("line", "a,b\n1,2\n2,3,4\n"),  # rows longer or shorter than the header
        ("line", "a,b\n1,2\n2\n"),
    ):
        bad.write_text(text)
        code, err = run_clean("plot", "--csv", str(bad), "--kind", kind, "--out", str(tmp_path))
        assert code == EXIT_NUMERIC and str(bad) in err, (text, err)



@pytest.mark.parametrize("data", [b"a,b\n1,2\n\xff,3\n", b"a,b\n1," + b"2" * 131073 + b"\n"],
                         ids=["not-utf8", "field-over-csv-limit"])
def test_plot_unreadable_csv_is_numeric_error(tmp_path, data):
    # Bytes that do not decode, and a cell past the csv module's field size
    # limit, fail like an unreadable path: exit 3, naming the file.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    code, err = run_clean("plot", "--csv", str(bad), "--kind", "line", "--out", str(tmp_path))
    assert code == EXIT_NUMERIC and f"cannot read {bad}" in err, err

def test_calibrate_then_t1(tmp_path):
    assert run(tmp_path, "calibrate") == EXIT_OK
    pulses = tmp_path / "pulses.json"
    d = json.loads(pulses.read_text())
    assert d["x90"]["target_angle_rad"] == pytest.approx(math.pi / 2)
    assert (
        run(
            tmp_path,
            "t1",
            "--pulses",
            str(pulses),
            "--points",
            "13",
            "--max-delay-s",
            "8e-5",
        )
        == EXIT_OK
    )
    fit = json.loads((tmp_path / "t1_fit.json").read_text())
    assert fit["params"]["tau"] == pytest.approx(25.3e-6, rel=0.02)


def test_bad_delay_grid_is_numeric_error(tmp_path, capsys):
    assert run(tmp_path, "calibrate") == EXIT_OK
    pulses = str(tmp_path / "pulses.json")
    for max_delay, message in (("-1", "negative delay"), ("nan", "finite"), ("inf", "finite")):
        out = tmp_path / max_delay
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(out, "t1", "--pulses", pulses, "--max-delay-s", max_delay)
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert message in err
        # A warning would reach a user's terminal on stderr.
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], max_delay
        assert not (out / "t1.csv").exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_fit_json_is_strict_when_covariance_is_singular(tmp_path, monkeypatch):
    # A flat trace (a = 0) leaves the rate undetermined, so the covariance is
    # singular: tau and every sigma are infinite, written as strict JSON.
    def flat_t1(kind, q, cfg, x90, x180, delays_s, **kwargs):
        return Trajectory(delays_s, np.full(len(delays_s), 0.25))

    monkeypatch.setattr(cli, "run_experiment", flat_t1)
    assert run(tmp_path, "t1") == EXIT_OK
    fit = json.loads((tmp_path / "t1_fit.json").read_text(), parse_constant=_reject_constant)
    assert fit["params"] == {"a": 0.0, "c": 0.25, "tau": "Infinity"}
    assert fit["sigma"] == {"a": "Infinity", "c": "Infinity", "tau": "Infinity"}

    # A noise-free exponential is not singular: its sigma is finite.
    def noise_free_t1(kind, q, cfg, x90, x180, delays_s, **kwargs):
        return Trajectory(delays_s, np.exp(-delays_s / 25.3e-6))

    monkeypatch.setattr(cli, "run_experiment", noise_free_t1)
    assert run(tmp_path, "t1") == EXIT_OK
    fit = json.loads((tmp_path / "t1_fit.json").read_text(), parse_constant=_reject_constant)
    assert fit["params"]["tau"] == pytest.approx(25.3e-6, rel=1e-12)
    assert all(0.0 <= v < 1e-12 for v in fit["sigma"].values())


@pytest.mark.parametrize("argv", [
    ("t1",), ("echo",), ("ramsey",),
    ("ramsey", "--points", "91", "--max-delay-s", "3e-5", "--detuning-hz", "3.4e5"),
    ("ramsey", "--points", "101", "--max-delay-s", "1e-5", "--detuning-hz", "1.01e6"),
    ("ramsey", "--points", "41", "--max-delay-s", "1e-5", "--detuning-hz", "2e4"),  # 0.2 cycle
    ("ramsey", "--points", "21", "--max-delay-s", "3e-5", "--detuning-hz", "3e3"),  # 0.09 cycle
], ids=" ".join)
def test_closed_qubit_fits_no_decay(tmp_path, argv):
    # A qubit with no T1 or T2 in its config shows no decay: tau and its sigma
    # are Infinity, and the fit file has the same bytes on every run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(cli.DEFAULT_CONFIG, qubits=[{"f_qubit_hz": 4.53202e9}])))
    texts = []
    for out in ("a", "b"):
        assert run(tmp_path / out, *argv, "--config", str(cfg)) == EXIT_OK
        texts.append((tmp_path / out / f"{argv[0]}_fit.json").read_text())
    assert texts[0] == texts[1]
    fit = json.loads(texts[0], parse_constant=_reject_constant)
    assert fit["params"]["tau"] == fit["sigma"]["tau"] == "Infinity"


def test_vz_ramsey_cmd(tmp_path):
    assert run(tmp_path, "vz-ramsey", "--points", "8") == EXIT_OK
    lines = (tmp_path / "vz_ramsey.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,p1"
    assert len(lines) == 9


def test_sidecars_are_strict_json_with_infinite_config(tmp_path):
    # The config format allows Infinity for t1_s and tphi_s (no decay).
    raw = dict(cli.DEFAULT_CONFIG, qubits=[{"f_qubit_hz": 4.53202e9, "t1_s": math.inf,
                                             "tphi_s": math.inf}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run(out, "calibrate", "--config", str(cfg)) == EXIT_OK
    artifacts = sorted(out.glob("*.json"))
    assert [p.name for p in artifacts] == ["pulses.json", "pulses.json.meta.json"]
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    meta = json.loads((out / "pulses.json.meta.json").read_text())
    assert meta["config"]["qubits"][0]["t1_s"] == meta["config"]["qubits"][0]["tphi_s"] == (
        "Infinity")


def test_nan_populations_are_numeric_errors(tmp_path):
    # An absurd duration leaves every population NaN; no CSV may be written.
    for argv in (
        ("rabi", "--tau-max-s", "1e300"),
        ("chevron", "--tau-max-s", "1e300", "--tau-points", "2", "--step-hz", "4e6"),
        ("vz-ramsey", "--tau-s", "1e300"),
        ("t1", "--tau-s", "1e300"),
        ("ramsey", "--max-delay-s", "1e300", "--detuning-hz", "1e300"),  # delta t overflows
    ):
        out = tmp_path / argv[0]
        assert run(out, *argv) == EXIT_NUMERIC, argv
        assert not list(out.glob("*.csv")), argv


# Each command's parsed flags with only its required flags given.
PARSED_DEFAULTS = {
    "calibrate": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0,
                  "tau_s": None},
    "chevron": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0,
                "span_hz": 8000000.0, "step_hz": 200000.0, "tau_max_s": 2.5e-06,
                "tau_points": 26, "a_if": 0.05, "off": False},
    "compile": {"config": None, "out": None, "seed": 0, "plot": False, "program": "p.json",
                "mode": "quantized45"},
    "echo": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0, "tau_s": None,
             "points": 41, "pulses": None, "max_delay_s": 8e-05},
    "plot": {"config": None, "out": None, "seed": 0, "plot": False, "csv": "a.csv",
             "kind": "line", "svg": None},
    "rabi": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0, "a_if": 1.0,
             "tau_max_s": 5e-07, "off": False},
    "ramsey": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0,
               "tau_s": None, "points": 41, "pulses": None, "max_delay_s": 8e-05,
               "detuning_hz": 340000.0},
    "resources": {"config": None, "out": None, "seed": 0, "plot": False, "n": 10,
                  "q_factor": 10000.0, "bandwidth_hz": 2000000000.0,
                  "ref_freq_hz": 5000000000.0},
    "spectrum": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0,
                 "off": False},
    "t1": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0, "tau_s": None,
           "points": 41, "pulses": None, "max_delay_s": 8e-05},
    "vz-ramsey": {"config": None, "out": None, "seed": 0, "plot": False, "qubit": 0,
                  "tau_s": None, "points": 36, "pulses": None},
}
REQUIRED_FLAGS = {"compile": ["--program", "p.json"], "resources": ["-n", "10"],
                  "plot": ["--csv", "a.csv", "--kind", "line"]}


def test_each_command_parses_its_flags():
    assert sorted(cli.COMMANDS) == sorted(PARSED_DEFAULTS)
    for cmd, want in PARSED_DEFAULTS.items():
        args = cli._build_parser(cmd).parse_args(REQUIRED_FLAGS.get(cmd, []))
        assert vars(args) == want, cmd


def test_unwritable_artifacts_are_config_errors(tmp_path, monkeypatch):
    # Every command with its output directory (and plot with its SVG) under a
    # regular file: one "qcvz:" line naming the path, exit 2, no traceback.
    monkeypatch.chdir(tmp_path)
    Path("p.json").write_text('{"qubits": [["x90"]]}')
    Path("a.csv").write_text("a,b\n0,0\n1,1\n")
    Path("file").write_text("")
    for cmd in cli.COMMANDS:
        svg = ["--svg", "file/a.svg"] if cmd == "plot" else []
        code, text = run_clean(cmd, *REQUIRED_FLAGS.get(cmd, []), *svg, "--out", "file/out")
        assert (code == EXIT_CONFIG and text.startswith("qcvz: ") and text.count("\n") == 1
                and "file/" in text), (cmd, text)


def test_each_command_makes_its_output_directory_once(tmp_path, monkeypatch):
    made, mkdir = [], Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    out = tmp_path / "out"
    assert run(out, "t1", "--points", "13", "--plot") == EXIT_OK
    assert made == [out]
    assert sorted(p.name for p in out.iterdir()) == [
        "t1.csv", "t1.csv.meta.json", "t1.svg", "t1_fit.json"]


def test_every_layer_error_is_a_numeric_error():
    # main maps NumericError to exit 3, so a layer's error class that does
    # not derive from it would end in a traceback.
    found = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"qcvz.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error"):
                found.add(node.name)
                if node.name not in ("ConfigError", "_UsageError"):
                    assert issubclass(getattr(module, node.name), NumericError), node.name
    assert found >= {"SignalError", "CompileError", "PlotError", "MixerError", "ResourceError",
                     "QubitError", "FitError", "CalibrationError", "ExperimentError",
                     "ConfigError", "_UsageError"}


def test_numeric_error_exits_3_with_its_message(tmp_path, monkeypatch, capsys):
    def fail(cfg, args, out):
        raise NumericError("no such number")

    monkeypatch.setitem(cli.COMMANDS, "calibrate", (fail, cli.COMMANDS["calibrate"][1]))
    assert run(tmp_path, "calibrate") == EXIT_NUMERIC
    assert capsys.readouterr().err == "qcvz: no such number\n"
    assert list(tmp_path.iterdir()) == []


# The numeric flags of each command that takes any, from the command table,
# each drawn from the values that have ended in tracebacks or warnings (None
# keeps the default).
NUMERIC_FLAGS = {
    cmd: tuple(name for name, kwargs in rows if "type" in kwargs)
    for cmd, (_, rows) in cli.COMMANDS.items()
    if any("type" in kwargs for _, kwargs in rows)
}
EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", None)


@given(data=st.data(), cmd=st.sampled_from(sorted(NUMERIC_FLAGS)))
@settings(max_examples=60, deadline=None)
def test_numeric_flags_end_in_documented_exit_codes(data, cmd):
    argv = [cmd]
    for flag in NUMERIC_FLAGS[cmd]:
        value = data.draw(st.sampled_from(EDGE_VALUES), label=flag)
        if value is None and flag == "-n":
            value = "10"  # required, no default
        if value is not None:
            argv.append(f"{flag}={value}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out])
        cells = [
            cell
            for csv in Path(out).glob("*.csv")
            for line in csv.read_text().splitlines()[1:]
            for cell in line.split(",")
        ]
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_USAGE), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == EXIT_OK:
        assert all(math.isfinite(float(cell)) for cell in cells), argv


def run_clean(*argv):
    """(exit code, stderr) of ``main(argv)``; the code is None unless it is a
    documented one reached with no traceback and no warning, and the text then
    holds what went wrong."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except Exception:
            return None, traceback.format_exc()
    text = err.getvalue() + "".join(f"\n{w.category.__name__}: {w.message}" for w in caught)
    if (code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_USAGE)
            or "Traceback" in text or "Warning" in text):
        return None, f"exit {code}: {text}"
    return code, text


def _numeric_paths(raw, path=()):
    """Key paths of every number in a config, e.g. ("mixers", 0, "gain_hz_per_unit")."""
    if isinstance(raw, dict):
        items = raw.items()
    elif isinstance(raw, list):
        items = enumerate(raw)
    else:
        return [path] if isinstance(raw, (int, float)) and not isinstance(raw, bool) else []
    return [p for key, value in items for p in _numeric_paths(value, (*path, key))]


CONFIG_NUMBERS = _numeric_paths(cli.DEFAULT_CONFIG)
CONFIG_EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e308, 10**400)


def test_config_numbers_are_all_swept():
    assert len(CONFIG_NUMBERS) == 13


@pytest.mark.parametrize("path", CONFIG_NUMBERS, ids=lambda p: ".".join(map(str, p)))
def test_config_numbers_end_in_documented_exit_codes(tmp_path, path):
    # Each number of the default config set to each edge value, through every
    # command that reads the device physics: a documented exit code, with no
    # traceback and no warning on stderr.
    failures = []
    for value in CONFIG_EDGE_VALUES:
        raw = copy.deepcopy(cli.DEFAULT_CONFIG)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        for cmd in ("calibrate", "chevron", "rabi", "spectrum"):
            code, text = run_clean(cmd, "--config", str(cfg), "--out", str(tmp_path / "out"))
            if code is None:
                failures.append((value, cmd, text))
    assert not failures


@pytest.mark.parametrize("path", [("lo_tones", 0, "amp_phi0"), ("resonators", 0, "q"),
                                  ("qubits", 0, "t1_s"), ("if_defaults", "f_if_hz")],
                         ids=lambda p: ".".join(map(str, p)))
def test_config_booleans_are_config_errors(tmp_path, path):
    # Python would take JSON true and false as the numbers 1 and 0; a config
    # refuses both, naming the key.
    for value in (True, False):
        raw = copy.deepcopy(cli.DEFAULT_CONFIG)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, text = run_clean("calibrate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_CONFIG and f"{path[-1]} is {json.dumps(value)}" in text, text


# Keys and strings that spell true or false without being a boolean. Keys
# repeat, since a text's object members are written one by one.
JSON_WORDS = st.sampled_from(["true", "false", "untrue", "falsehood", "q", ""]) | st.text(max_size=4)
JSON_TEXTS = st.recursive(
    (st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.none()
     | st.booleans() | JSON_WORDS).map(json.dumps),
    lambda inner: (
        st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
        | st.lists(st.tuples(JSON_WORDS, inner), max_size=3).map(
            lambda members: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in members) + "}")
    ),
    max_leaves=8,
)


@given(text=JSON_TEXTS)
@example(text='{"lo_tones": [true, 1.0]}')  # the check looks at object members only
@example(text="true")
@example(text='{"q": 1, "q": 2.5, "q": 3}')  # the last duplicate wins
@example(text='{"q": false, "q": 1}')
@settings(max_examples=300, deadline=None)
def test_config_reads_skip_the_boolean_check_only_where_no_boolean_is_spelled(text):
    # A text without "true" or "false" is parsed without the per-object hook:
    # the result, or the ConfigError, is the hook path's.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text)
        try:
            want = json.loads(text, parse_int=cli._json_int, object_pairs_hook=cli._no_booleans)
        except (ValueError, OverflowError) as exc:
            want = f"cannot read config {path}: {exc}"
        try:
            got = cli._read_json(str(path), "config", refuse_booleans=True)
        except cli.ConfigError as exc:
            got = str(exc)
    assert got == want and repr(got) == repr(want)


def _objects(raw):
    if isinstance(raw, dict):
        return 1 + sum(_objects(v) for v in raw.values())
    if isinstance(raw, list):
        return sum(_objects(v) for v in raw)
    return 0


def test_config_loads_call_the_boolean_check_only_on_texts_that_spell_one(tmp_path, monkeypatch):
    calls = []
    check = cli._no_booleans

    def counted(pairs):
        calls.append(pairs)
        return check(pairs)

    monkeypatch.setattr(cli, "_no_booleans", counted)
    n, f_if = 40, cli.DEFAULT_CONFIG["if_defaults"]["f_if_hz"]
    freqs = [7.0e9 + 2.0e7 * k for k in range(n)]
    cable = {
        "lo_tones": [{"freq_hz": f, "amp_phi0": 0.5, "phase_rad": 0.1 * k}
                     for k, f in enumerate(freqs)],
        "resonators": [{"f_r_hz": f, "q": 1.0e4} for f in freqs],
        "mixers": cli.DEFAULT_CONFIG["mixers"] * n,
        "qubits": [{"f_qubit_hz": f - f_if, "t1_s": 2.5e-5, "t2_s": 1.7e-5} for f in freqs],
        "if_defaults": cli.DEFAULT_CONFIG["if_defaults"],
    }
    noted = {**copy.deepcopy(cli.DEFAULT_CONFIG), "note": "untrue"}
    cfg = tmp_path / "cfg.json"
    for raw, want_calls in ((cli.DEFAULT_CONFIG, 0), (cable, 0), (noted, _objects(noted))):
        cfg.write_text(json.dumps(raw))
        calls.clear()
        loaded = load_config(str(cfg))
        assert loaded.raw == raw and len(calls) == want_calls


PULSE_NUMBERS = [(pulse, field) for pulse in ("x90", "x180")
                 for field in ("f_lo_hz", "f_if_hz", "a_if", "tau_if_s", "target_angle_rad")]
PULSE_BAD_VALUES = (*CONFIG_EDGE_VALUES, "abc", None, True, [1])


@pytest.fixture(scope="module")
def default_pulses(tmp_path_factory):
    out = tmp_path_factory.mktemp("calibrate")
    assert run(out, "calibrate") == EXIT_OK
    return json.loads((out / "pulses.json").read_text())


@pytest.mark.parametrize("path", PULSE_NUMBERS, ids=lambda p: ".".join(p))
def test_pulses_numbers_end_in_documented_exit_codes(tmp_path, default_pulses, path):
    # Each number of a default pulses.json set to each edge value or non-number,
    # through every command that reads --pulses: a documented exit code, with
    # no traceback and no warning on stderr. A value that is not a float is a
    # configuration error that names the field.
    assert set(default_pulses[path[0]]) == {field for _, field in PULSE_NUMBERS}
    failures = []
    for value in PULSE_BAD_VALUES:
        raw = copy.deepcopy(default_pulses)
        raw[path[0]][path[1]] = value
        pulses = tmp_path / "pulses.json"
        pulses.write_text(json.dumps(raw))
        for cmd in ("t1", "ramsey", "echo", "vz-ramsey"):
            code, text = run_clean(cmd, "--pulses", str(pulses), "--out", str(tmp_path / "out"))
            if (code is None
                    or not isinstance(value, float) and code != EXIT_CONFIG
                    or value == "abc" and f"{path[1]} must be a number" not in text):
                failures.append((value, cmd, code, text))
    assert not failures



def _node_paths(raw, path=()):
    """Key paths of every node below the root of a JSON tree."""
    if isinstance(raw, dict):
        items = raw.items()
    elif isinstance(raw, list):
        items = enumerate(raw)
    else:
        return []
    return [p for key, value in items for p in [(*path, key), *_node_paths(value, (*path, key))]]


# A node is deleted (DELETE) or set to another JSON type or an edge number.
DELETE = object()
NODE_VALUES = (DELETE, None, True, "abc", [], {}, [[1.0, [2.0]]], 0, -1, 1e308, 10**400)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_config_shapes_end_in_documented_exit_codes(data):
    # The default config with one to three nodes deleted or replaced, through
    # every command that reads the device physics.
    raw = copy.deepcopy(cli.DEFAULT_CONFIG)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        *path, key = data.draw(st.sampled_from(_node_paths(raw)), label="path")
        node = raw
        for step in path:
            node = node[step]
        value = data.draw(st.sampled_from(NODE_VALUES), label="value")
        if value is DELETE:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        for cmd in ("calibrate", "chevron", "spectrum"):
            code, text = run_clean(cmd, "--config", str(cfg), "--out", tmp)
            assert code is not None, (cmd, raw, text)


GOOD_NAMES = ("x90", "x180", "h", "s", "sdg", "t", "tdg", "z45", "z90", "z315", "z:0.3", "z:-7")
BAD_NAMES = ("z:nan", "z:inf", "z:1e400", "z:", "z:abc", "X90", "cnot", "", " x90")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["qubits", "x"]),
                                                                inner, max_size=2),
    max_leaves=6,
)
PROGRAMS = st.one_of(
    st.fixed_dictionaries({"qubits": st.lists(st.lists(
        st.sampled_from(GOOD_NAMES) | st.sampled_from(GOOD_NAMES + BAD_NAMES) | JSON_VALUES,
        max_size=8), max_size=4)}),
    JSON_VALUES,
)


@given(program=PROGRAMS)
@settings(max_examples=100, deadline=None)
def test_program_files_end_in_documented_exit_codes(program):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.json"
        path.write_text(json.dumps(program))
        for mode in ("quantized45", "free"):
            code, text = run_clean("compile", "--program", str(path), "--mode", mode,
                                   "--out", tmp)
            assert code is not None, (mode, program, text)


def test_counts_past_what_a_float_or_an_array_holds(tmp_path):
    # An integer past the float range is a usage error. A count that parses
    # but that numpy refuses before allocating (10**14 floats are 728 TiB) is
    # a numerical failure, and so is a total power that overflows.
    big, huge = str(10**400), str(10**14)
    for argv, want in (
        (("t1", "--points", big), EXIT_USAGE),
        (("vz-ramsey", "--points", big), EXIT_USAGE),
        (("chevron", "--tau-points", big), EXIT_USAGE),
        (("resources", "-n", big), EXIT_USAGE),
        (("t1", "--points", huge), EXIT_NUMERIC),
        (("vz-ramsey", "--points", huge), EXIT_NUMERIC),
        (("chevron", "--tau-points", huge), EXIT_NUMERIC),
        (("chevron", "--span-hz", "1e300"), EXIT_NUMERIC),
        (("resources", "-n", str(10**308)), EXIT_NUMERIC),
    ):
        code, text = run_clean(*argv, "--out", str(tmp_path))
        assert code == want, (argv, text)


def test_integers_past_the_digit_limit_are_config_errors(tmp_path):
    # Python refuses to parse an integer of over 4300 digits (a ValueError
    # that is not a JSONDecodeError); in a config, program or pulses file
    # that is a configuration error.
    path = tmp_path / "big.json"
    path.write_text('{"qubits": [[' + "1" * 5000 + "]]}")
    for argv in (("calibrate", "--config"), ("compile", "--program"), ("t1", "--pulses")):
        code, text = run_clean(*argv, str(path), "--out", str(tmp_path))
        assert code == EXIT_CONFIG and "cannot read" in text, (argv, text)


@pytest.mark.parametrize("flag", [("calibrate", "--config"), ("compile", "--program"),
                                  ("t1", "--pulses")], ids=lambda f: f[1])
def test_json_nested_past_the_recursion_limit_is_config_error(tmp_path, flag):
    # json raises RecursionError on nesting deeper than the interpreter's
    # recursion limit; in a config, program or pulses file that is a
    # configuration error.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, text = run_clean(*flag, str(path), "--out", str(tmp_path))
    assert code == EXIT_CONFIG and "cannot read" in text, text
