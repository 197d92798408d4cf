"""Command-line front end: load a device config, run named experiments or
compilations, emit CSV/JSON artifacts with reproducibility sidecars and
optional SVG plots.

Exit codes: 0 success, 2 config error, 3 numerical failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import qubit as qb
from .calibration import CalibratedPulse, CalibrationError, calibrate_pulse, pulse_drive
from .compiler import CompileError, Gate, Program, schedule, parallelism_stats
from .demux import Resonator, demux, matched_channels
from .experiments import ExperimentError, chevron, run_experiment
from .mixer import BitTimeline, MixerConfig, MixerError, output_spectrum
from .qubit import FitError, FitModel, QubitParams, fit_curve
from .resources import ResourceError, resource_report
from .signals import CycleSpec, Envelope, MultiToneLo, SignalError, Tone, make_if_program
from .svgplot import PlotError, emit_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class ConfigError(ValueError):
    """Config file missing, unparsable, or inconsistent."""


@dataclass
class DeviceConfig:
    lo: MultiToneLo
    resonators: list[Resonator]
    mixers: list[MixerConfig]
    qubits: list[QubitParams]
    f_if_hz: float
    cycle_period_s: float
    raw: dict


DEFAULT_CONFIG = {
    "lo_tones": [{"freq_hz": 8.0e9, "amp_phi0": 0.5, "phase_rad": 0.0}],
    "resonators": [{"f_r_hz": 8.0e9, "q": 1.0e4}],
    "mixers": [
        {
            "gain_hz_per_unit": 4.0e7,
            "on_off_ratio_db": 28.5,
            "nonlinearity": "sine_saturating",
            "bpf_stopband_db": 60.0,
        }
    ],
    "qubits": [{"f_qubit_hz": 4.53202e9, "t1_s": 2.53e-5, "t2_s": 1.70e-5}],
    "if_defaults": {"f_if_hz": 3.46798e9, "cycle_period_s": 1.5e-8},
}


def _qubit_from_dict(d: dict) -> QubitParams:
    f = d["f_qubit_hz"]
    t1 = d.get("t1_s", math.inf)
    if "t2_s" in d:
        return QubitParams.from_t2(f, t1, d["t2_s"])
    return QubitParams(f, t1, d.get("tphi_s", math.inf))


def load_config(path: str | None) -> DeviceConfig:
    """Parse and cross-validate the device description."""
    if path is None:
        raw = DEFAULT_CONFIG
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        lo = MultiToneLo(
            tuple(
                Tone(t["freq_hz"], t.get("amp_phi0", 0.5), t.get("phase_rad", 0.0))
                for t in raw["lo_tones"]
            )
        )
        resonators = [Resonator(r["f_r_hz"], r["q"]) for r in raw["resonators"]]
        qubits = [_qubit_from_dict(d) for d in raw["qubits"]]
        if not (len(resonators) == len(raw["mixers"]) == len(qubits)):
            raise ConfigError(
                f"counts disagree: {len(resonators)} resonators, "
                f"{len(raw['mixers'])} mixers, {len(qubits)} qubits"
            )
        if not qubits:
            raise ConfigError("device has no qubits")
        mixers = [
            MixerConfig(
                channel=channel,
                gain_hz_per_unit=m["gain_hz_per_unit"],
                on_off_ratio_db=m.get("on_off_ratio_db", 28.5),
                nonlinearity=m.get("nonlinearity", "sine_saturating"),
                bpf_stopband_db=m.get("bpf_stopband_db", 60.0),
            )
            for channel, m in zip(matched_channels(resonators, lo), raw["mixers"])
        ]
        defaults = raw.get("if_defaults", {})
        cfg = DeviceConfig(
            lo=lo,
            resonators=resonators,
            mixers=mixers,
            qubits=qubits,
            f_if_hz=defaults.get("f_if_hz", 3.5e9),
            cycle_period_s=defaults.get("cycle_period_s", 1.5e-8),
            raw=raw,
        )
        if not (0 < cfg.f_if_hz < math.inf and 0 < cfg.cycle_period_s < math.inf):
            raise ConfigError("IF defaults must be positive and finite")
    except (KeyError, TypeError, AttributeError, SignalError, MixerError, qb.QubitError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg


def _strict(value):
    """``value`` with each non-finite float spelled as the JSON string
    "Infinity", "-Infinity" or "NaN", so that strict JSON can hold it."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(value, "NaN")
    return value


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Artifacts:
    """Writes one command's artifacts to its output directory (``--out``, else
    ``QCVZ_OUT_DIR``, else ``.``), each with a ``.meta.json`` sidecar unless
    ``sidecar=False``."""

    def __init__(self, command: str, args: argparse.Namespace, cfg: DeviceConfig):
        self.command, self.args, self.cfg = command, args, cfg

    def path(self, name: str) -> Path:
        out = Path(self.args.out or os.environ.get("QCVZ_OUT_DIR") or ".")
        out.mkdir(parents=True, exist_ok=True)
        return out / name

    def _sidecar(self, path: Path) -> None:
        meta = {"command": self.command, "seed": self.args.seed, "args": vars(self.args),
                "config": self.cfg.raw}
        Path(f"{path}.meta.json").write_text(_dumps(_strict(meta)))

    def write(self, name: str, text: str, sidecar: bool = True) -> Path:
        path = self.path(name)
        path.write_text(text)
        if sidecar:
            self._sidecar(path)
        return path

    def json(self, name: str, obj, sidecar: bool = True) -> None:
        self.write(name, _dumps(obj), sidecar)

    def csv(self, name: str, header: list[str], columns, plot: str | None = None,
            sidecar: bool = True) -> None:
        """``<name>.csv`` from equal-length columns, and its SVG as a ``plot``
        chart under ``--plot``. A float column is written as %.12g, any other
        as str; the whole table is one format operation."""
        cols = [np.asarray(c) for c in columns]
        row = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
        cells = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in cols))))
        text = ",".join(header) + "\n" + (row * len(cols[0])) % cells
        path = self.write(f"{name}.csv", text, sidecar)
        if plot and self.args.plot:
            emit_plot(path, plot)


def _get_pulses(
    cfg: DeviceConfig, k: int, tau_s: float | None, pulses_path: str | None
) -> tuple[CalibratedPulse, CalibratedPulse]:
    """Load persisted pulses or calibrate x90/x180 on the closed-system twin."""
    if pulses_path:
        try:
            d = json.loads(Path(pulses_path).read_text())
            return CalibratedPulse.from_dict(d["x90"]), CalibratedPulse.from_dict(d["x180"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read pulses {pulses_path}: {exc}") from exc
    tau = cfg.cycle_period_s if tau_s is None else tau_s
    q = cfg.qubits[k].closed()
    f_lo = cfg.mixers[k].channel.freq_hz
    x90 = calibrate_pulse(q, cfg.mixers[k], 0.5 * math.pi, tau, f_lo)
    x180 = calibrate_pulse(q, cfg.mixers[k], math.pi, tau, f_lo)
    return x90, x180


def cmd_chevron(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    q = cfg.qubits[k]
    f_lo = cfg.mixers[k].channel.freq_hz
    center = f_lo - q.f_qubit_hz
    try:
        f_grid = center + np.arange(
            -args.span_hz / 2, args.span_hz / 2 + args.step_hz / 2, args.step_hz
        )
    except (ValueError, MemoryError) as exc:  # more columns than an array can hold
        raise ExperimentError(
            f"cannot sweep {args.span_hz} Hz in {args.step_hz} Hz steps: {exc}"
        ) from exc
    tau_grid = np.linspace(args.tau_max_s / args.tau_points, args.tau_max_s, args.tau_points)
    p1 = chevron(q, cfg.mixers[k], f_lo, f_grid, tau_grid, mixer_on=not args.off, a_if=args.a_if)
    out.csv("chevron", ["f_if_hz", "tau_s", "p1"],
            [np.repeat(f_grid, len(tau_grid)), np.tile(tau_grid, len(f_grid)), p1.ravel()],
            plot="heatmap")


def cmd_rabi(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    q = cfg.qubits[k]
    f_lo = cfg.mixers[k].channel.freq_hz
    f_if = f_lo - q.f_qubit_hz
    pulse = CalibratedPulse(f_lo, f_if, args.a_if, args.tau_max_s, math.pi)
    drive = pulse_drive(cfg.mixers[k], pulse, on=not args.off)
    traj = qb.propagate(q, drive, qb.ground_state(), drive.edges_s)
    out.csv("rabi", ["t_s", "p1"], [traj.times_s, traj.p1], plot="line")


def _coherence_cmd(kind: str, model: FitModel):
    def run(cfg: DeviceConfig, args, out: _Artifacts) -> None:
        k = args.qubit
        x90, x180 = _get_pulses(cfg, k, args.tau_s, args.pulses)
        if not math.isfinite(args.max_delay_s):
            raise qb.QubitError("delays must be finite")
        delays = np.linspace(0.0, args.max_delay_s, args.points)
        traj = run_experiment(
            kind,
            cfg.qubits[k],
            cfg.mixers[k],
            x90,
            x180,
            delays_s=delays,
            detuning_hz=getattr(args, "detuning_hz", 0.0),
        )
        fit = fit_curve(model, traj.times_s, traj.p1)
        out.csv(kind, ["t_s", "p1"], [traj.times_s, traj.p1], plot="line")
        # A singular covariance leaves sigma non-finite; strict JSON has null.
        sigma = {key: v if math.isfinite(v) else None for key, v in fit.sigma.items()}
        out.json(f"{kind}_fit.json", {"model": fit.model.value, "params": fit.params,
                                      "sigma": sigma, "residual": fit.residual}, sidecar=False)

    return run


def cmd_vz_ramsey(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    x90, _ = _get_pulses(cfg, k, args.tau_s, args.pulses)
    thetas = np.arange(args.points) * (360.0 / args.points)
    _, p1 = run_experiment(
        "vz_ramsey", cfg.qubits[k], cfg.mixers[k], x90, dtheta_deg=thetas
    )
    out.csv("vz_ramsey", ["theta_deg", "p1"], [thetas, p1], plot="line")


def cmd_calibrate(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    x90, x180 = _get_pulses(cfg, args.qubit, args.tau_s, None)
    out.json("pulses.json", {"x90": x90.to_dict(), "x180": x180.to_dict()})


def cmd_spectrum(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    mix = cfg.mixers[k]
    env = Envelope("flat", cfg.cycle_period_s, 1.0)
    prog = make_if_program(cfg.f_if_hz, cfg.cycle_period_s, [CycleSpec(0.0, env)])
    rate = 4.0 * (mix.channel.freq_hz + cfg.f_if_hz)
    tones = output_spectrum(mix, prog, BitTimeline((0 if args.off else 1,)), rate)
    out.csv("spectrum", ["freq_hz", "power_db"], np.array(tones, dtype=float).reshape(-1, 2).T)
    _, xtalk = demux(cfg.resonators, cfg.lo)
    out.csv(
        "crosstalk",
        ["resonator"] + [f"tone{j}_db" for j in range(xtalk.shape[1])],
        [np.arange(len(xtalk)), *np.asarray(xtalk, dtype=float).T],
    )


def cmd_compile(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    try:
        prog_raw = json.loads(Path(args.program).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read program {args.program}: {exc}") from exc
    qubits = prog_raw.get("qubits") if isinstance(prog_raw, dict) else None
    names = None
    if isinstance(qubits, list) and all(isinstance(gates, list) for gates in qubits):
        try:  # distinct names in first-seen order, so the first bad one is reported
            names = dict.fromkeys(itertools.chain.from_iterable(qubits))
        except TypeError:  # a JSON list or object where a gate name belongs
            pass
    if names is None or not all(isinstance(name, str) for name in names):
        raise ConfigError(
            f'program {args.program} is not {{"qubits": [[gate name, ...], ...]}}'
        )
    gate = {name: Gate.parse(name) for name in names}
    program = Program(tuple(tuple(map(gate.__getitem__, gates)) for gates in qubits))
    sched = schedule(program, args.mode)
    stats = parallelism_stats(sched)
    out.write("schedule.json", sched.to_json())
    out.csv(
        "schedule",
        ["cycle", "slot", "theta_if_deg", "n_fired"],
        [np.arange(sched.slot.size), sched.slot, sched.theta_if_deg, np.diff(sched.offsets)],
        sidecar=False,
    )
    out.json("schedule_stats.json", asdict(stats), sidecar=False)


def cmd_resources(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    rep = resource_report(
        args.n, q=args.q_factor, bandwidth_hz=args.bandwidth_hz, ref_freq_hz=args.ref_freq_hz
    )
    out.json("resources.json", rep.to_dict())
    out.write("resources.txt", rep.table() + "\n", sidecar=False)


def cmd_plot(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    emit_plot(args.csv, args.kind, args.svg)


def _finite(kind, positive: bool = False):
    """argparse type: a finite ``kind`` value, above zero if ``positive``."""
    low = 0 if positive else -math.inf

    def parse(text: str):
        value = kind(text)
        if not low < value < math.inf:
            need = "positive and finite" if positive else "finite"
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _positive(kind):
    """argparse type: a finite ``kind`` value above zero (counts, steps, durations)."""
    return _finite(kind, positive=True)


# Flag rows, (name, add_argument keywords), that several commands share.
_QUBIT = ("--qubit", dict(type=int, default=0))
_OFF = ("--off", dict(action="store_true"))
_TAU_S = ("--tau-s", dict(type=_positive(float), default=None,
                         help="pulse duration for calibration"))
_PULSES = ("--pulses", dict(default=None, help="persisted pulses.json"))
_MAX_DELAY_S = ("--max-delay-s", dict(type=float, default=8.0e-5))


def _points(default: int):
    return ("--points", dict(type=_positive(int), default=default))


_COHERENCE = (_QUBIT, _TAU_S, _points(41), _PULSES, _MAX_DELAY_S)

# command -> (handler, flag rows); every command also takes --config, --out,
# --seed and --plot.
COMMANDS = {
    "chevron": (cmd_chevron, (
        _QUBIT,
        ("--span-hz", dict(type=_finite(float), default=8.0e6)),
        ("--step-hz", dict(type=_positive(float), default=2.0e5)),
        ("--tau-max-s", dict(type=_positive(float), default=2.5e-6)),
        ("--tau-points", dict(type=_positive(int), default=26)),
        ("--a-if", dict(type=_finite(float), default=0.05)),
        _OFF,
    )),
    "rabi": (cmd_rabi, (
        _QUBIT,
        ("--a-if", dict(type=_finite(float), default=1.0)),
        ("--tau-max-s", dict(type=_positive(float), default=5.0e-7)),
        _OFF,
    )),
    "t1": (_coherence_cmd("t1", FitModel.EXP_DECAY), _COHERENCE),
    "ramsey": (_coherence_cmd("ramsey", FitModel.DAMPED_COSINE), (
        *_COHERENCE, ("--detuning-hz", dict(type=_finite(float), default=3.4e5)))),
    "echo": (_coherence_cmd("echo", FitModel.EXP_DECAY), _COHERENCE),
    "vz-ramsey": (cmd_vz_ramsey, (_QUBIT, _TAU_S, _points(36), _PULSES)),
    "calibrate": (cmd_calibrate, (_QUBIT, _TAU_S)),
    "spectrum": (cmd_spectrum, (_QUBIT, _OFF)),
    "compile": (cmd_compile, (
        ("--program", dict(required=True)),
        ("--mode", dict(choices=["quantized45", "free"], default="quantized45")),
    )),
    "resources": (cmd_resources, (
        ("-n", dict(type=int, required=True)),
        ("--q-factor", dict(type=_finite(float), default=1.0e4)),
        ("--bandwidth-hz", dict(type=_finite(float), default=2.0e9)),
        ("--ref-freq-hz", dict(type=_finite(float), default=5.0e9)),
    )),
    "plot": (cmd_plot, (
        ("--csv", dict(required=True)),
        ("--kind", dict(choices=["line", "heatmap"], required=True)),
        ("--svg", dict(default=None)),
    )),
}


class _UsageError(ValueError):
    """A flag value the parser accepted but the device cannot take."""


# Each error class a command may raise, and its exit code.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    _UsageError: EXIT_USAGE,
    **dict.fromkeys((FitError, CalibrationError, ExperimentError, PlotError, CompileError,
                     MixerError, SignalError, ResourceError, qb.QubitError), EXIT_NUMERIC),
}


def _build_parser(cmd: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"qcvz {cmd}")
    p.add_argument("--config", default=None, help="device config JSON")
    p.add_argument("--out", default=None, help="output directory (or QCVZ_OUT_DIR)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plot", action="store_true", help="also emit SVG plots")
    for name, kwargs in COMMANDS[cmd][1]:
        p.add_argument(name, **kwargs)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: qcvz <command> [options]\ncommands: " + ", ".join(sorted(COMMANDS)))
        return EXIT_OK
    cmd = argv[0]
    if cmd not in COMMANDS:
        print(f"qcvz: unknown command {cmd!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = _build_parser(cmd).parse_args(argv[1:])
        cfg = load_config(args.config)
        n = len(cfg.qubits)
        if not 0 <= getattr(args, "qubit", 0) < n:
            raise _UsageError(f"--qubit {args.qubit} is not in 0..{n - 1}")
        COMMANDS[cmd][0](cfg, args, _Artifacts(cmd, args, cfg))
    except SystemExit as exc:  # argparse: --help, or a flag it rejects
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except tuple(_EXIT_CODES) as exc:
        print(f"qcvz: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
