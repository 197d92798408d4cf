"""Independent references for the output checks.

Nothing here imports qcvz: gate and pulse matrices, frame tracking, the
Lorentzian resonator response and the coherence bounds are written out from
their definitions (README, acceptance criteria 2-4), so a defect in the
package cannot also hide in its own reference.
"""
from __future__ import annotations

import csv
import functools
import math

import numpy as np

EQUIV_TOL = 1e-9  # criterion 4
FIT_T1_REL = 0.02  # criterion 2: fitted T1 and echo T2 within 2%
FIT_FRINGE_REL = 0.01  # criterion 2: Ramsey fringe within 1%
VZ_TOL = 1e-3  # criterion 3
CROSSTALK_TOL_DB = 1e-9
# Gross-error guard for a simulated schedule. Criterion 4 asks for 1e-3;
# the seed misses it (a fired pulse ramps into the next idle cycle), and
# the benchmark reports that gap as experiments.simulate_schedule.p1_err_max.
P1_SANITY = 2e-2

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_X90 = (_I2 - 1j * _SX) / math.sqrt(2.0)

# Z rotation of each frame gate, degrees.
_Z_DEG = {"s": 90.0, "sdg": -90.0, "t": 45.0, "tdg": -45.0}


@functools.cache
def z_degrees(name: str) -> float | None:
    """Frame angle of a Z-type gate name, or None for a pulse gate."""
    if name in _Z_DEG:
        return _Z_DEG[name]
    if name.startswith("z:"):
        return math.degrees(float(name[2:]))
    if name.startswith("z"):
        return float(name[1:])
    return None


def _zmat(deg: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * math.radians(deg))])


def gate_matrix(name: str) -> np.ndarray:
    deg = z_degrees(name)
    if deg is not None:
        return _zmat(deg)
    return {"x90": _X90, "x180": -1j * _SX, "h": (_SX + _SZ) / math.sqrt(2.0)}[name]


def frame_sequence(gates: list[str]) -> tuple[list[float], float]:
    """(pulse frames in degrees mod 360, final frame in degrees).

    X90 fires at the current frame; X180 is two X90s; H is S, X90, S up to
    global phase; every Z-type gate only advances the frame.
    """
    frame = 0.0
    out: list[float] = []
    for g in gates:
        deg = z_degrees(g)
        if deg is not None:
            frame += deg
        elif g == "h":
            frame += 90.0
            out.append(frame % 360.0)
            frame += 90.0
        else:
            out.extend([frame % 360.0] * (2 if g == "x180" else 1))
    return out, frame


def _batched_product(rows: list[list], matrix) -> np.ndarray:
    """Per-row product of ``matrix(key)`` over each row's keys, first key
    applied first. Each distinct key is built once."""
    table: dict = {}
    n = len(rows)
    width = max((len(r) for r in rows), default=0)
    idx = np.zeros((n, width), dtype=np.intp)  # 0 = identity padding
    for i, row in enumerate(rows):
        idx[i, : len(row)] = [table.setdefault(k, len(table) + 1) for k in row]
    mats = np.empty((len(table) + 1, 2, 2), dtype=complex)
    mats[0] = _I2
    for k, j in table.items():
        mats[j] = matrix(k)
    u = np.broadcast_to(_I2, (n, 2, 2)).copy()
    for j in range(width):
        u = mats[idx[:, j]] @ u
    return u


def ideal_unitaries(programs: list[list[str]]) -> np.ndarray:
    return _batched_product(programs, gate_matrix)


def pulse_matrix(theta_if_deg: float) -> np.ndarray:
    """X90 fired at IF phase theta: rotation axis at phi = -theta in the equator."""
    phi = -math.radians(theta_if_deg)
    return (_I2 - 1j * (math.cos(phi) * _SX + math.sin(phi) * _SY)) / math.sqrt(2.0)


def replayed_unitaries(fired: list[list[float]], final_frames_deg: list[float]) -> np.ndarray:
    u = _batched_product(fired, pulse_matrix)
    return np.stack([_zmat(f) for f in final_frames_deg]) @ u


def phase_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over alpha of ||u - e^{i alpha} v||_F, batched."""
    tr = np.einsum("nij,nij->n", v.conj(), u)
    alpha = np.where(tr != 0, np.angle(tr), 0.0)
    return np.linalg.norm(u - np.exp(1j * alpha)[:, None, None] * v, axis=(1, 2))


def angle_gap_deg(a, b):
    """|a - b| on the circle, degrees; array-aware."""
    return np.abs((np.asarray(a) - b + 180.0) % 360.0 - 180.0)


def check_schedule(sched: dict, programs: list[list[str]], quantized: bool) -> list[str]:
    """Replay a schedule.json against the program it was compiled from."""
    errors: list[str] = []
    n = len(programs)
    if sched.get("n_qubits") != n:
        return [f"schedule has {sched.get('n_qubits')} qubits, program {n}"]
    fired: list[list[float]] = [[] for _ in range(n)]
    last_slot = -1
    for c in sched["cycles"]:
        theta, slot = c["theta_if"], c["slot"]
        if slot <= last_slot:
            errors.append(f"slot {slot} does not advance past {last_slot}")
        last_slot = slot
        if quantized and theta != (slot % 8) * 45:
            errors.append(f"slot {slot} fires at {theta} deg, rolling phase is {(slot % 8) * 45}")
        if len(set(c["fired"])) != len(c["fired"]):
            errors.append(f"slot {slot} fires a qubit twice")
        for k in c["fired"]:
            fired[k].append(theta)
        if len(errors) > 5:
            return errors
    finals = []
    for k, gates in enumerate(programs):
        want, final = frame_sequence(gates)
        finals.append(final)
        got = fired[k]
        if len(got) != len(want) or (got and angle_gap_deg(got, want).max() > 1e-6):
            errors.append(f"qubit {k} fires {len(got)} pulses that do not follow its "
                          f"{len(want)} lowered frames in order")
            if len(errors) > 5:
                return errors
    dist = phase_distances(replayed_unitaries(fired, finals), ideal_unitaries(programs))
    bad = np.flatnonzero(~(dist < EQUIV_TOL))
    if bad.size:
        errors.append(f"{bad.size} qubits differ from the ideal unitary, worst "
                      f"{float(np.max(dist)):.2e} >= {EQUIV_TOL}")
    return errors


def ideal_p1(programs: list[list[str]]) -> np.ndarray:
    """|<1|U|0>|^2 of each qubit's ideal program unitary."""
    return np.abs(ideal_unitaries(programs)[:, 1, 0]) ** 2


def lorentzian_db(f_r: np.ndarray, q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """20 log10 |1 / (1 + 2jQ (f - f_r)/f_r)| for every (resonator, tone) pair."""
    x = 2.0 * q[:, None] * (f[None, :] - f_r[:, None]) / f_r[:, None]
    return -10.0 * np.log10(1.0 + x * x)


def read_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r] for r in rows[1:]])


def vz_fringe(theta_deg: np.ndarray, t2_s: float, t_s: float) -> np.ndarray:
    """Criterion 3's fringe 0.5 (1 + cos theta), with the contrast T2 leaves
    after the time t between the two pulses' centres."""
    return 0.5 * (1.0 + math.exp(-t_s / t2_s) * np.cos(np.radians(theta_deg)))


def rabi_p1(omega_hz: float, t_s: np.ndarray) -> np.ndarray:
    """Resonant closed-system Rabi population from the ground state."""
    return np.sin(math.pi * omega_hz * t_s) ** 2
