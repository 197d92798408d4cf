"""Seeded input generator: device configs and gate programs for each op.

Every op of every workload draws from its own stream,
``default_rng([seed, workload index, op index])``, so a seed fixes the whole
input sequence and no two ops share an input. The program under test sees
only the JSON files written here.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("bringup", "compile", "cable")

# Paper device (PAPER.md, README): one transmon at 4.532 GHz behind an
# 8 GHz LO tone, T1 25.3 us, T2 17 us, 15 ns control cycles.
F_LO_HZ = 8.0e9
F_QUBIT_HZ = 4.53202e9
F_IF_HZ = F_LO_HZ - F_QUBIT_HZ
T1_S = 25.3e-6
T2_S = 17.0e-6
CYCLE_S = 1.5e-8
Q_FACTOR = 1.0e4

COMPILE_QUBITS = 500
COMPILE_PULSES = 100  # X90 pulses per qubit after lowering
CABLE_TONES = 40
CABLE_GATES = 8  # gates per qubit in the cable program

# Clifford+T plus Z(k pi/4): accepted by both scheduler modes.
Q45_GATES = ("x90", "x180", "h", "s", "sdg", "t", "tdg",
             "z45", "z90", "z135", "z180", "z225", "z270", "z315")
PULSES = {"x90": 1, "x180": 2, "h": 1}


def op_rng(seed: int, workload: str, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), op])


def _mixer(on_off_ratio_db: float = 28.5) -> dict:
    return {"gain_hz_per_unit": 4.0e7, "on_off_ratio_db": on_off_ratio_db,
            "nonlinearity": "sine_saturating", "bpf_stopband_db": 60.0}


def single_qubit_config(rng: np.random.Generator) -> dict:
    """One transmon near the paper's device: f_q within 1 MHz, T1 and T2 within 10%."""
    f_q = F_QUBIT_HZ + rng.uniform(-1.0e6, 1.0e6)
    return {
        "lo_tones": [{"freq_hz": F_LO_HZ, "amp_phi0": 0.5, "phase_rad": 0.0}],
        "resonators": [{"f_r_hz": F_LO_HZ, "q": Q_FACTOR}],
        "mixers": [_mixer()],
        "qubits": [{"f_qubit_hz": f_q, "t1_s": T1_S * rng.uniform(0.9, 1.1),
                    "t2_s": T2_S * rng.uniform(0.9, 1.1)}],
        "if_defaults": {"f_if_hz": F_LO_HZ - f_q, "cycle_period_s": CYCLE_S},
    }


def cable_config(rng: np.random.Generator, n: int = CABLE_TONES) -> dict:
    """One LO cable: n resonators spaced 3-5 linewidths apart, each with its
    tone (within 0.1 linewidth of resonance), mixer and closed-system qubit.

    Closed qubits and a 100 dB on/off ratio follow acceptance criterion 4,
    so the p1 error measures the pulse and schedule, not T1/T2 or leakage.
    """
    lw = F_LO_HZ / Q_FACTOR
    f_r = F_LO_HZ + np.concatenate(([0.0], np.cumsum(rng.uniform(3.0, 5.0, n - 1)))) * lw
    f_tone = f_r + rng.uniform(-0.1, 0.1, n) * lw
    return {
        "lo_tones": [{"freq_hz": float(f), "amp_phi0": 0.5, "phase_rad": float(p)}
                     for f, p in zip(f_tone, rng.uniform(0.0, 2.0 * math.pi, n))],
        "resonators": [{"f_r_hz": float(f), "q": Q_FACTOR} for f in f_r],
        "mixers": [_mixer(100.0) for _ in range(n)],
        "qubits": [{"f_qubit_hz": float(f - F_IF_HZ)} for f in f_tone],
        "if_defaults": {"f_if_hz": F_IF_HZ, "cycle_period_s": CYCLE_S},
    }


def q45_gates(rng: np.random.Generator, n_gates: int) -> list[str]:
    return [Q45_GATES[i] for i in rng.integers(0, len(Q45_GATES), n_gates)]


def _fill_pulses(rng: np.random.Generator, frames: list[str], pulses: int) -> list[str]:
    """Random gates, two thirds pulse gates (x90/x180/h) and one third drawn
    from ``frames``, until exactly ``pulses`` X90s are emitted."""
    pulse_gates = list(PULSES)
    out: list[str] = []
    left = pulses
    while left:
        k = 2 * left + 8
        for is_pulse, p, f in zip(rng.random(k) < 2.0 / 3.0, rng.integers(0, 3, k),
                                  rng.integers(0, len(frames), k)):
            if not is_pulse:
                out.append(frames[f])
                continue
            g = pulse_gates[p] if PULSES[pulse_gates[p]] <= left else "x90"
            out.append(g)
            left -= PULSES[g]
            if not left:
                break
    return out


Q45_FRAMES = [g for g in Q45_GATES if g not in PULSES]
# z:<k pi/8>; the odd k put frames off the 45-degree grid.
FREE_FRAMES = ["s", "sdg", "t", "tdg"] + [f"z:{k * math.pi / 8!r}" for k in range(1, 16)]


def compile_programs(rng: np.random.Generator) -> tuple[dict, dict]:
    """(quantized45 program, free program), each COMPILE_QUBITS x COMPILE_PULSES."""
    q45 = [_fill_pulses(rng, Q45_FRAMES, COMPILE_PULSES) for _ in range(COMPILE_QUBITS)]
    free = [_fill_pulses(rng, FREE_FRAMES, COMPILE_PULSES) for _ in range(COMPILE_QUBITS)]
    # Guarantee an off-grid frame so quantized45 would reject this program.
    free[0] = [f"z:{math.pi / 8!r}"] + free[0]
    return {"qubits": q45}, {"qubits": free}


def write_json(path: Path, obj) -> str:
    """Write ``obj`` and return its digest, used to count repeated inputs."""
    text = json.dumps(obj, sort_keys=True)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()
