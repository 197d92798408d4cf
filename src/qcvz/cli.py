"""Command-line front end: load a device config, run named experiments or
compilations, emit CSV/JSON artifacts with reproducibility sidecars and
optional SVG plots.

Exit codes: 0 success, 2 config or output error, 3 numerical failure (any
``signals.NumericError``), 64 usage error. The compiler, resources and svgplot
layers are imported by the one command that runs each, not with this module.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import qubit as qb
from .calibration import CalibratedPulse, calibrate_pulse
from .demux import (DEFAULT_BANDWIDTH_HZ, DEFAULT_Q, DEFAULT_REF_FREQ_HZ, Resonator, crosstalk_db,
                    matched_channels)
from .experiments import ExperimentError, chevron, rabi_trace, run_experiment
from .mixer import MixerConfig, output_spectrum
from .qubit import FitModel, QubitParams, fit_curve
from .signals import MultiToneLo, NumericError, Tone

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


def _json_int(text: str) -> int:
    """A JSON integer that a float can hold: the physics takes floats."""
    value = int(text)
    float(value)  # OverflowError past the float range
    return value


def _no_booleans(pairs: list) -> dict:
    """A config's JSON object. No config value is a boolean, and Python would
    take JSON true or false as the number 1 or 0, so either is refused."""
    for key, value in pairs:
        if isinstance(value, bool):
            raise ValueError(f"{key} is {json.dumps(value)}; no config value is a boolean")
    return dict(pairs)


def _read_json(path: str, what: str, refuse_booleans: bool = False):
    """The JSON in ``path``. An unreadable file, bad JSON, JSON nested past the
    recursion limit, an integer past the float range or Python's digit limit,
    or with ``refuse_booleans`` an object member that is true or false
    (``_no_booleans``), is a ConfigError."""
    try:
        text = Path(path).read_text()
        # JSON spells a boolean only as a bare true or false, which no escape
        # can write, so a text without either substring skips the check.
        check = refuse_booleans and ("true" in text or "false" in text)
        return json.loads(text, parse_int=_json_int,
                          object_pairs_hook=_no_booleans if check else None)
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _qubit_from_dict(d: dict) -> QubitParams:
    f = d["f_qubit_hz"]
    t1 = d.get("t1_s", math.inf)
    if "t2_s" in d:
        return QubitParams.from_t2(f, t1, d["t2_s"])
    return QubitParams(f, t1, d.get("tphi_s", math.inf))


# The optional keys of a config's mixer; MixerConfig holds their defaults.
_MIXER_KEYS = ("on_off_ratio_db", "nonlinearity", "bpf_stopband_db")


def load_config(path: str | None) -> DeviceConfig:
    """Parse and cross-validate the device description."""
    if path is None:
        raw = DEFAULT_CONFIG
    else:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        raw = _read_json(path, "config", refuse_booleans=True)
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
            MixerConfig(channel, m["gain_hz_per_unit"], **{k: m[k] for k in _MIXER_KEYS if k in m})
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
    except (KeyError, TypeError, AttributeError, NumericError) as exc:
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

    @functools.cached_property
    def _dir(self) -> Path:
        """The output directory, made when the first artifact is written."""
        out = Path(self.args.out or os.environ.get("QCVZ_OUT_DIR") or ".")
        out.mkdir(parents=True, exist_ok=True)
        return out

    @functools.cached_property
    def _meta(self) -> str:
        """The ``.meta.json`` text, encoded once: it names no artifact, so
        every sidecar of the command is the same."""
        return _dumps(_strict({"command": self.command, "seed": self.args.seed,
                               "args": vars(self.args), "config": self.cfg.raw}))

    def write(self, name: str, text: str, sidecar: bool = True) -> Path:
        path = self._dir / name
        path.write_text(text)
        if sidecar:
            Path(f"{path}.meta.json").write_text(self._meta)
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
            from .svgplot import emit_plot

            emit_plot(path, plot)


def _get_pulses(
    cfg: DeviceConfig, k: int, tau_s: float | None, pulses_path: str | None
) -> tuple[CalibratedPulse, CalibratedPulse]:
    """Load persisted pulses or calibrate x90/x180."""
    if pulses_path:
        d = _read_json(pulses_path, "pulses")
        try:
            return CalibratedPulse.from_dict(d["x90"]), CalibratedPulse.from_dict(d["x180"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read pulses {pulses_path}: {exc}") from exc
    tau = cfg.cycle_period_s if tau_s is None else tau_s
    q = cfg.qubits[k]
    f_lo = cfg.mixers[k].channel.freq_hz
    x90 = calibrate_pulse(q, cfg.mixers[k], 0.5 * math.pi, tau, f_lo)
    x180 = calibrate_pulse(q, cfg.mixers[k], math.pi, tau, f_lo)
    return x90, x180


def _sized(what: str, make) -> np.ndarray:
    """``make()``, an array whose length a flag sets. numpy refuses a length
    past its index range (ValueError) or past memory (MemoryError), and either
    is a numerical failure, not a traceback."""
    try:
        return make()
    except (ValueError, MemoryError) as exc:
        raise ExperimentError(f"cannot allocate {what}: {exc}") from exc


def cmd_chevron(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    q = cfg.qubits[k]
    f_lo = cfg.mixers[k].channel.freq_hz
    center = f_lo - q.f_qubit_hz
    f_grid = _sized(f"a sweep of {args.span_hz} Hz in {args.step_hz} Hz steps", lambda: (
        center + np.arange(-args.span_hz / 2, args.span_hz / 2 + args.step_hz / 2, args.step_hz)))
    tau_grid = _sized(f"{args.tau_points} taus", lambda: np.linspace(
        args.tau_max_s / args.tau_points, args.tau_max_s, args.tau_points))
    p1 = chevron(q, cfg.mixers[k], f_lo, f_grid, tau_grid, mixer_on=not args.off, a_if=args.a_if)
    out.csv("chevron", ["f_if_hz", "tau_s", "p1"],
            [np.repeat(f_grid, len(tau_grid)), np.tile(tau_grid, len(f_grid)), p1.ravel()],
            plot="heatmap")


def cmd_rabi(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    t, p1 = rabi_trace(cfg.qubits[k], cfg.mixers[k], cfg.mixers[k].channel.freq_hz,
                       args.tau_max_s, not args.off, args.a_if)
    out.csv("rabi", ["t_s", "p1"], [t, p1], plot="line")


def _coherence_cmd(kind: str, model: FitModel):
    def run(cfg: DeviceConfig, args, out: _Artifacts) -> None:
        k = args.qubit
        x90, x180 = _get_pulses(cfg, k, args.tau_s, args.pulses)
        qb.check_delays(args.max_delay_s)  # before linspace, which warns on inf
        delays = _sized(f"{args.points} delays",
                        lambda: np.linspace(0.0, args.max_delay_s, args.points))
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
        out.json(f"{kind}_fit.json", _strict({"model": fit.model.value, "params": fit.params,
                                              "sigma": fit.sigma, "residual": fit.residual}),
                 sidecar=False)

    return run


def cmd_vz_ramsey(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    k = args.qubit
    x90, _ = _get_pulses(cfg, k, args.tau_s, args.pulses)
    thetas = _sized(f"{args.points} phases",
                    lambda: np.arange(args.points) * (360.0 / args.points))
    _, p1 = run_experiment(
        "vz_ramsey", cfg.qubits[k], cfg.mixers[k], x90, dtheta_deg=thetas
    )
    out.csv("vz_ramsey", ["theta_deg", "p1"], [thetas, p1], plot="line")


def cmd_calibrate(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    x90, x180 = _get_pulses(cfg, args.qubit, args.tau_s, None)
    out.json("pulses.json", {"x90": x90.to_dict(), "x180": x180.to_dict()})


def cmd_spectrum(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    tones = output_spectrum(cfg.mixers[args.qubit], cfg.f_if_hz, not args.off)
    out.csv("spectrum", ["freq_hz", "power_db"], np.array(tones, dtype=float).reshape(-1, 2).T)
    xtalk = crosstalk_db(cfg.resonators, cfg.lo)
    out.csv(
        "crosstalk",
        ["resonator"] + [f"tone{j}_db" for j in range(xtalk.shape[1])],
        [np.arange(len(xtalk)), *xtalk.T],
    )


def cmd_compile(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    from .compiler import Program, parallelism_stats, schedule

    prog_raw = _read_json(args.program, "program")
    qubits = prog_raw.get("qubits") if isinstance(prog_raw, dict) else None
    try:  # from_names raises TypeError for a name that is not a JSON string
        if not (isinstance(qubits, list) and all(isinstance(gates, list) for gates in qubits)):
            raise TypeError
        program = Program.from_names(qubits)
    except TypeError:
        raise ConfigError(
            f'program {args.program} is not {{"qubits": [[gate name, ...], ...]}}'
        ) from None
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
    from .resources import resource_report

    rep = resource_report(
        args.n, q=args.q_factor, bandwidth_hz=args.bandwidth_hz, ref_freq_hz=args.ref_freq_hz
    )
    out.json("resources.json", rep.to_dict())
    out.write("resources.txt", rep.table() + "\n", sidecar=False)


def cmd_plot(cfg: DeviceConfig, args, out: _Artifacts) -> None:
    from .svgplot import emit_plot

    emit_plot(args.csv, args.kind, args.svg)


def _finite(kind, positive: bool = False):
    """argparse type: a finite ``kind`` value, above zero if ``positive``. An
    integer that a float cannot hold is not finite (``_json_int``'s rule); its
    OverflowError, which argparse would not catch, becomes a usage error."""
    low = 0 if positive else -math.inf

    def parse(text: str):
        value = kind(text)
        with contextlib.suppress(OverflowError):
            if low < float(value) < math.inf:
                return value
        need = "positive and finite" if positive else "finite"
        raise argparse.ArgumentTypeError(f"must be {need}, got {text}")

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
        ("-n", dict(type=_finite(int), required=True)),
        ("--q-factor", dict(type=_finite(float), default=DEFAULT_Q)),
        ("--bandwidth-hz", dict(type=_finite(float), default=DEFAULT_BANDWIDTH_HZ)),
        ("--ref-freq-hz", dict(type=_finite(float), default=DEFAULT_REF_FREQ_HZ)),
    )),
    "plot": (cmd_plot, (
        ("--csv", dict(required=True)),
        ("--kind", dict(choices=["line", "heatmap"], required=True)),
        ("--svg", dict(default=None)),
    )),
}


class _UsageError(ValueError):
    """A flag value the parser accepted but the device cannot take."""


# Each error class a command may raise, and its exit code. Inputs are read
# into ConfigErrors, so an OSError is an artifact that cannot be written.
# Every layer's error derives from NumericError.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
    _UsageError: EXIT_USAGE,
    NumericError: EXIT_NUMERIC,
}


@functools.cache
def _build_parser(cmd: str) -> argparse.ArgumentParser:
    """``cmd``'s parser, built on first use and then reused: it reads only the
    static ``COMMANDS`` table, no flag has a mutable default, and each parse
    returns a fresh Namespace."""
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
