"""The three closed-loop workloads: seeded inputs, one timed op, output checks.

Each op is timed in two stages (``stage1``, ``stage2``); README.md names
them per workload. Calls go through module attributes
(``cli.main``, ``calibration.calibrate_pulse``) so the traced run's
wrappers see them.
"""
from __future__ import annotations

import importlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle
from qcvz import calibration, cli, compiler, experiments

demux = importlib.import_module("qcvz.demux")  # the package re-exports a function of that name

# Criterion 2's middle Ramsey case and its T1/echo sweeps.
T1_ARGS = ["--points", "41", "--max-delay-s", "8e-5"]
ECHO_ARGS = ["--points", "41", "--max-delay-s", "6e-5"]
RAMSEY_DETUNING_HZ = 3.4e5
RAMSEY_ARGS = ["--points", "91", "--max-delay-s", "3e-5", "--detuning-hz", str(RAMSEY_DETUNING_HZ)]
VZ_DELAY_S = 1e-8  # run_experiment's default gap between the two X90s
CHEVRON_SHAPE = (41, 26)  # CLI defaults: 8 MHz span in 0.2 MHz steps, 26 taus
RABI_HZ = 4.0e7  # mixer gain at a_if = 1, the rabi command's default


def _cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"qcvz {argv[0]} exited {code}")


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- bringup: one transmon through the CLI --------------------------------

def prepare_bringup(rng, d: Path) -> dict:
    config = inputs.single_qubit_config(rng)
    digest = inputs.write_json(d / "config.json", config)
    return {"dir": d, "config": config, "digests": [digest],
            "sizes": {"qubits": 1, "cli_commands": 7}}


def run_bringup(inp: dict) -> tuple[float, float]:
    out = inp["dir"] / "out"
    common = ["--config", str(inp["dir"] / "config.json"), "--out", str(out)]
    pulses = ["--pulses", str(out / "pulses.json")]
    t0 = perf_counter()
    _cli("calibrate", *common)
    _cli("t1", *common, *pulses, *T1_ARGS)
    _cli("ramsey", *common, *pulses, *RAMSEY_ARGS)
    _cli("echo", *common, *pulses, *ECHO_ARGS)
    _cli("vz-ramsey", *common, *pulses)
    t1 = perf_counter()
    _cli("chevron", *common)
    _cli("rabi", *common)
    return t1 - t0, perf_counter() - t1


def check_bringup(inp: dict) -> tuple[list[str], dict]:
    out = inp["dir"] / "out"
    q = inp["config"]["qubits"][0]
    errors = []

    def fitted(kind, key):
        return json.loads((out / f"{kind}_fit.json").read_text())["params"][key]

    pulses = json.loads((out / "pulses.json").read_text())
    for name, angle in (("x90", 0.5 * math.pi), ("x180", math.pi)):
        p = pulses[name]
        if p["target_angle_rad"] != angle or not 0.0 < p["a_if"] <= 1.0:
            errors.append(f"{name} pulse malformed: {p}")
    for label, got, want, rel in (
        ("T1", fitted("t1", "tau"), q["t1_s"], oracle.FIT_T1_REL),
        ("echo T2", fitted("echo", "tau"), q["t2_s"], oracle.FIT_T1_REL),
        ("Ramsey fringe", fitted("ramsey", "f"), RAMSEY_DETUNING_HZ, oracle.FIT_FRINGE_REL),
    ):
        if not abs(got - want) <= rel * want:
            errors.append(f"{label} {got:.6g} not within {rel:.0%} of {want:.6g}")

    vz = oracle.read_csv(out / "vz_ramsey.csv")
    tau = pulses["x90"]["tau_if_s"]
    resid = float(np.max(np.abs(vz[:, 1] - oracle.vz_fringe(vz[:, 0], q["t2_s"], tau + VZ_DELAY_S))))
    if not resid < oracle.VZ_TOL:
        errors.append(f"vz-Ramsey residual {resid:.2e} >= {oracle.VZ_TOL}")

    chev = oracle.read_csv(out / "chevron.csv")
    if chev.shape != (CHEVRON_SHAPE[0] * CHEVRON_SHAPE[1], 3):
        errors.append(f"chevron has shape {chev.shape}")
    else:
        p1 = chev[:, 2].reshape(CHEVRON_SHAPE)
        center = CHEVRON_SHAPE[0] // 2
        asym = float(np.max(np.abs(p1 - p1[::-1])))
        if not (asym < 1e-6 and p1[center].max() > 0.9 and p1[[0, -1]].max() < 0.5):
            errors.append(f"chevron not centred on the qubit: asymmetry {asym:.2e}, "
                          f"centre max {p1[center].max():.3f}, edge max {p1[[0, -1]].max():.3f}")

    rabi = oracle.read_csv(out / "rabi.csv")
    rabi_err = float(np.max(np.abs(rabi[:, 1] - oracle.rabi_p1(RABI_HZ, rabi[:, 0]))))
    if not rabi_err < 0.05:
        errors.append(f"Rabi trace off the closed form by {rabi_err:.3f}")
    return errors, {"artifact_bytes": _bytes_under(out)}


# -- compile: the compile command on random programs, both modes ----------

def prepare_compile(rng, d: Path) -> dict:
    q45, free = inputs.compile_programs(rng)
    config = inputs.single_qubit_config(rng)
    digests = [inputs.write_json(d / "config.json", config),
               inputs.write_json(d / "q45.json", q45),
               inputs.write_json(d / "free.json", free)]
    gates = sum(len(g) for g in q45["qubits"]) + sum(len(g) for g in free["qubits"])
    return {"dir": d, "programs": {"quantized45": q45["qubits"], "free": free["qubits"]},
            "digests": digests,
            "sizes": {"qubits": inputs.COMPILE_QUBITS, "pulses_per_qubit": inputs.COMPILE_PULSES,
                      "gates": gates}}


def _compile(d: Path, name: str, mode: str) -> None:
    _cli("compile", "--config", str(d / "config.json"), "--program", str(d / f"{name}.json"),
         "--mode", mode, "--out", str(d / mode))


def run_compile(inp: dict) -> tuple[float, float]:
    d = inp["dir"]
    t0 = perf_counter()
    _compile(d, "q45", "quantized45")
    t1 = perf_counter()
    _compile(d, "free", "free")
    return t1 - t0, perf_counter() - t1


def check_compile(inp: dict) -> tuple[list[str], dict]:
    errors, nbytes = [], 0
    for mode, programs in inp["programs"].items():
        out = inp["dir"] / mode
        sched = json.loads((out / "schedule.json").read_text())
        if sched.get("mode") != mode:
            errors.append(f"schedule mode {sched.get('mode')} != {mode}")
        errors += [f"{mode}: {e}" for e in
                   oracle.check_schedule(sched, programs, quantized=(mode == "quantized45"))]
        nbytes += _bytes_under(out)
    return errors, {"artifact_bytes": nbytes}


# -- cable: one LO cable through the library ------------------------------

def prepare_cable(rng, d: Path) -> dict:
    config = inputs.cable_config(rng)
    programs = [inputs.q45_gates(rng, inputs.CABLE_GATES) for _ in config["qubits"]]
    digests = [inputs.write_json(d / "config.json", config),
               inputs.write_json(d / "program.json", {"qubits": programs})]
    program = compiler.Program(tuple(tuple(compiler.Gate.parse(g) for g in gates)
                                     for gates in programs))
    return {"dir": d, "config": config, "programs": programs, "program": program,
            "digests": digests,
            "sizes": {"tones": len(config["qubits"]), "gates_per_qubit": inputs.CABLE_GATES}}


def run_cable(inp: dict) -> tuple[float, float]:
    t0 = perf_counter()
    cfg = cli.load_config(str(inp["dir"] / "config.json"))
    _, xtalk = demux.demux(cfg.resonators, cfg.lo)
    t1 = perf_counter()
    x90s = [calibration.calibrate_pulse(q.closed(), m, 0.5 * math.pi, cfg.cycle_period_s,
                                        m.channel.freq_hz)
            for q, m in zip(cfg.qubits, cfg.mixers)]
    sched = compiler.schedule(inp["program"], "quantized45")
    sim, ideal = experiments.simulate_schedule(sched, inp["program"], cfg.qubits, cfg.mixers,
                                               x90s, cfg.cycle_period_s)
    t2 = perf_counter()
    inp["result"] = (cfg, xtalk, sched, sim, ideal)
    return t1 - t0, t2 - t1


def check_cable(inp: dict) -> tuple[list[str], dict]:
    cfg, xtalk, sched, sim, ideal = inp.pop("result")
    raw = inp["config"]
    errors = []
    f_r = np.array([r["f_r_hz"] for r in raw["resonators"]])
    q = np.array([r["q"] for r in raw["resonators"]])
    f = np.array([t["freq_hz"] for t in raw["lo_tones"]])
    gap = float(np.max(np.abs(xtalk - oracle.lorentzian_db(f_r, q, f))))
    if not gap < oracle.CROSSTALK_TOL_DB:
        errors.append(f"crosstalk off the Lorentzian by {gap:.2e} dB")
    for k, m in enumerate(cfg.mixers):
        x = 2.0 * q[k] * (f[k] - f_r[k]) / f_r[k]
        g = 1.0 / (1.0 + 1j * x)
        tone = raw["lo_tones"][k]
        phase_gap = oracle.angle_gap_deg(math.degrees(m.channel.phase_rad),
                                         math.degrees(tone["phase_rad"] + np.angle(g)))
        if (m.channel.freq_hz != f[k] or abs(m.channel.amp - tone["amp_phi0"] * abs(g)) > 1e-12
                or phase_gap > 1e-9):
            errors.append(f"mixer {k} is not fed its own tone through its resonator")
            break
    errors += oracle.check_schedule(sched.to_dict(), inp["programs"], quantized=True)
    want = oracle.ideal_p1(inp["programs"])
    if not np.max(np.abs(ideal - want)) < oracle.EQUIV_TOL:
        errors.append("simulate_schedule's ideal p1 disagrees with the gate matrices")
    p1_err = float(np.max(np.abs(sim - want)))
    if not p1_err < oracle.P1_SANITY:
        errors.append(f"simulated p1 off the ideal by {p1_err:.2e} >= {oracle.P1_SANITY}")
    return errors, {"p1_err": p1_err, "artifact_bytes": 0}


WORKLOADS = {
    "bringup": (prepare_bringup, run_bringup, check_bringup),
    "compile": (prepare_compile, run_compile, check_compile),
    "cable": (prepare_cable, run_cable, check_cable),
}
