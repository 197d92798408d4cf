"""Single-qubit gate programs lowered to pi/2 pulses with virtual-Z frames,
plus the TDM scheduler that packs pulses into shared-phase control cycles.

Sign convention (asserted by tests, not assumed): a frame F accumulates Z
angles; an X90 emitted at frame F is driven at theta_if = F, i.e. with
physical pulse phase -F, so the realized rotation axis in the equatorial
plane is phi = -F. Under this choice [X90, Z(pi/4), X90] lowers to pulse
phases [0, 45] degrees and matches the ideal unitary.

Lowering is frame arithmetic: every gate is one table row (frame += a, emit
n X90s, frame += b), and a program is the running sum of its rows. In
quantized mode the sum is over integers in units of pi/4, mod 8; in free
mode it is a sequential float sum, equal bit for bit to adding the angles
one gate at a time.

Quantized scheduling is closed-form. The rolling loop fires a qubit's pulse
j, of phase k_j * 45 degrees, in the first slot after slot_{j-1} that is
congruent to k_j mod 8, and no other qubit affects that choice. With
k_{-1} = -1 and slot_{-1} = -1, and since slot_{j-1} = k_{j-1} mod 8,

    slot_j = slot_{j-1} + 1 + ((k_j - k_{j-1} - 1) mod 8),

a cumulative sum of per-pulse deltas. Grouping the (slot, qubit) pairs by
slot gives exactly the non-empty cycles the loop emits.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi
QUARTER = 0.25 * math.pi


class CompileError(ValueError):
    """Invalid gate program or mode violation."""


class GateKind(str, Enum):
    X90 = "x90"
    X180 = "x180"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    Z = "z"


def _norm_angle(phi: float) -> float:
    """Normalize to (-pi, pi]."""
    phi = math.fmod(phi, TWO_PI)
    if phi > math.pi:
        phi -= TWO_PI
    elif phi <= -math.pi:
        phi += TWO_PI
    return phi


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    angle_rad: float = 0.0  # meaningful for Z only

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        if self.kind is GateKind.Z:
            if not math.isfinite(self.angle_rad):
                raise CompileError(f"Z angle must be finite, got {self.angle_rad}")
            object.__setattr__(self, "angle_rad", _norm_angle(self.angle_rad))

    @classmethod
    def z(cls, angle_rad: float) -> "Gate":
        return cls(GateKind.Z, angle_rad)

    @classmethod
    def parse(cls, name: str) -> "Gate":
        """Gate from its program-file name: x90, x180, h, s, sdg, t, tdg,
        z45/z90/.../z315 (degrees) or z:<radians>."""
        return _parse_gate(name)


# Program files draw from a small vocabulary and Gate is immutable, so one
# Gate per distinct name is shared by every occurrence.
@functools.lru_cache(maxsize=4096)
def _parse_gate(name: str) -> Gate:
    name = name.strip().lower()
    try:
        if name.startswith("z:"):
            angle = float(name[2:])
        elif name.startswith("z") and name[1:].replace(".", "", 1).isdigit():
            angle = math.radians(float(name[1:]))
        else:
            return Gate(GateKind(name))
    except ValueError:
        raise CompileError(f"unknown gate name {name!r}") from None
    return Gate.z(angle)


@dataclass(frozen=True)
class Program:
    """Per-qubit ordered gate lists."""

    gates: tuple[tuple[Gate, ...], ...]

    def __post_init__(self):
        if len(self.gates) < 1:
            raise CompileError("program needs at least one qubit")
        object.__setattr__(self, "gates", tuple(tuple(g) for g in self.gates))

    @property
    def n_qubits(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class LoweredQubit:
    """Pulse phase list plus the residual virtual-Z frame after the last pulse."""

    thetas_deg: tuple[float, ...]
    final_frame_rad: float


# Z rotation contributed by each composite gate; X90 emits a pulse.
_Z_ANGLE = {
    GateKind.S: 0.5 * math.pi,
    GateKind.SDG: -0.5 * math.pi,
    GateKind.T: QUARTER,
    GateKind.TDG: -QUARTER,
}

# Each gate lowers to (frame += a, emit n X90s, frame += b); Z kinds take
# their own angle as a. H = S . X90 . S up to global phase.
_STEPS = {
    GateKind.X90: (0.0, 1, 0.0),
    GateKind.X180: (0.0, 2, 0.0),
    GateKind.H: (_Z_ANGLE[GateKind.S], 1, _Z_ANGLE[GateKind.S]),
    **{kind: (angle, 0, 0.0) for kind, angle in _Z_ANGLE.items()},
}


def _gate_codes(rows) -> tuple[list[Gate], np.ndarray]:
    """(gates, codes): the distinct Gate objects of ``rows`` and a padded
    matrix where codes[i, j] indexes row i's gate j in ``gates``; len(gates)
    pads the short rows."""
    flat = list(itertools.chain.from_iterable(rows))
    lens = np.fromiter(map(len, rows), np.intp, count=len(rows))
    # Gates are grouped by identity: parsed gates are shared, so a program
    # holds few distinct objects however long it is.
    _, first, flat_codes = np.unique(np.fromiter(map(id, flat), np.uintp, count=len(flat)),
                                     return_index=True, return_inverse=True)
    maxg = int(lens.max(initial=0))
    codes = np.full((len(rows), maxg), len(first), dtype=np.intp)
    codes[np.arange(maxg) < lens[:, None]] = flat_codes
    return [flat[i] for i in first], codes


def _lower_rows(rows, quantized: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower gate rows in one padded pass.

    Returns (thetas_deg, lens, final_frame_rad): row i's pulse phases are
    thetas_deg[i, :lens[i]] and its residual frame is final_frame_rad[i].
    """
    n = len(rows)
    gates, codes = _gate_codes(rows)
    maxg = codes.shape[1]
    table = np.array([_STEPS.get(g.kind, (g.angle_rad, 0, 0.0)) for g in gates]
                     + [(0.0, 0, 0.0)])  # the last row pads short rows
    ab = table[:, [0, 2]]
    if quantized:
        units = ab / QUARTER
        off = (np.abs(units - np.rint(units)) > 1e-9).any(axis=1)
        if off.any():
            ang = gates[codes.flat[np.argmax(off[codes])]].angle_rad  # first in program order
            raise CompileError(f"Z angle {ang} rad is not a multiple of pi/4 in quantized mode")
        ab = np.rint(units).astype(np.int64)
    # Interleave [a0, b0, a1, b1, ...] per row; cumsum runs in order along a row.
    frames = ab[codes].reshape(n, 2 * maxg)
    np.cumsum(frames, axis=1, out=frames)
    final = frames[:, -1] if maxg else np.zeros(n, dtype=frames.dtype)
    n_pulses = table[:, 1].astype(np.intp)[codes]
    lens = n_pulses.sum(axis=1)
    pulse_frames = np.repeat(frames[:, 0::2].ravel(), n_pulses.ravel())
    if quantized:
        pulse_thetas = 45.0 * (pulse_frames % 8)
        final_rad = (final % 8) * QUARTER
    else:
        pulse_thetas = np.degrees(pulse_frames) % 360.0
        final_rad = final % TWO_PI
    maxlen = int(lens.max(initial=0))
    thetas = np.zeros((n, maxlen))
    thetas[np.arange(maxlen) < lens[:, None]] = pulse_thetas
    return thetas, lens, final_rad


def lower(gates, quantized: bool = True) -> LoweredQubit:
    """Lower a gate list to X90 pulses with frame-tracked theta_if values.

    Quantized mode requires every Z angle to be a multiple of pi/4 (within
    1e-9 of one) and tracks the frame exactly as an integer mod 8.
    """
    thetas, lens, final = _lower_rows([list(gates)], quantized)
    return LoweredQubit(tuple(thetas[0, : lens[0]].tolist()), float(final[0]))


# Ideal gate matrices (global phase irrelevant to equivalence checks).
_X90 = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _gate_matrix(g: Gate) -> np.ndarray:
    if g.kind is GateKind.X90:
        return _X90
    if g.kind is GateKind.X180:
        return _X90 @ _X90
    if g.kind is GateKind.H:
        return _H
    if g.kind is GateKind.Z:
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * g.angle_rad)]], dtype=complex)
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * _Z_ANGLE[g.kind])]], dtype=complex)


def ideal_unitary(gates) -> np.ndarray:
    """Matrix product of the standard gate definitions, first gate applied first."""
    u = np.eye(2, dtype=complex)
    for g in gates:
        u = _gate_matrix(g) @ u
    return u


def pulse_unitary(phi_rad: float) -> np.ndarray:
    """R_phi(pi/2) = exp(-i (pi/4)(cos phi sigma_x + sin phi sigma_y))."""
    c = math.cos(QUARTER)
    s = math.sin(QUARTER)
    return np.array(
        [
            [c, -1j * s * np.exp(-1j * phi_rad)],
            [-1j * s * np.exp(1j * phi_rad), c],
        ],
        dtype=complex,
    )


def lowered_unitary(lq: LoweredQubit) -> np.ndarray:
    """Unitary realized by the pulse list followed by the residual frame Z."""
    u = np.eye(2, dtype=complex)
    for theta in lq.thetas_deg:
        u = pulse_unitary(-math.radians(theta)) @ u
    zf = np.array([[1.0, 0.0], [0.0, np.exp(1j * lq.final_frame_rad)]], dtype=complex)
    return zf @ u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over alpha of ||u - e^{i alpha} v||_F."""
    tr = np.trace(v.conj().T @ u)
    alpha = np.angle(tr) if tr != 0 else 0.0
    return float(np.linalg.norm(u - np.exp(1j * alpha) * v))


def equivalent(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    return phase_distance(u, v) < tol


class ScheduleMode(str, Enum):
    QUANTIZED45 = "quantized45"
    FREE = "free"


@dataclass(frozen=True)
class Cycle:
    """One emitted control cycle: global IF phase, fired qubits, rolling slot.

    ``slot`` is the position in the unskipped 45-degree rolling sequence
    (quantized mode); in free mode it equals the cycle index.
    """

    theta_if_deg: float
    fired: tuple[int, ...]
    slot: int


@dataclass(frozen=True)
class Schedule:
    cycles: tuple[Cycle, ...]
    mode: ScheduleMode
    n_qubits: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "n_qubits": self.n_qubits,
            "cycles": [
                {"theta_if": c.theta_if_deg, "fired": list(c.fired), "slot": c.slot}
                for c in self.cycles
            ],
        }


def schedule(program: Program, mode: ScheduleMode | str = ScheduleMode.QUANTIZED45) -> Schedule:
    """Pack each qubit's lowered pulses into shared-phase control cycles.

    quantized45: the candidate phase rolls 0, 45, ..., 315, ...; every qubit
    whose next pulse matches the candidate fires; empty candidates are
    skipped (their rolling slot is still counted). Each qubit's slots follow
    the closed form slot_j = slot_{j-1} + 1 + ((k_j - k_{j-1} - 1) mod 8)
    with k_{-1} = slot_{-1} = -1 (see the module docstring), so the cycles
    are the distinct slots, each firing its qubits in ascending order.
    free: greedy; each cycle takes the phase demanded by the largest set of
    ready pulses (ties to the lowest phase) and fires every ready pulse
    within 1e-6 degrees of it.
    """
    mode = ScheduleMode(mode)
    quantized = mode is ScheduleMode.QUANTIZED45
    thetas, lens, _ = _lower_rows(program.gates, quantized)
    n = program.n_qubits
    if not lens.any():
        return Schedule((), mode, n)
    valid = np.arange(thetas.shape[1]) < lens[:, None]
    if quantized:
        k = (thetas // 45.0).astype(np.int64)
        slots = np.cumsum((np.diff(k, axis=1, prepend=-1) - 1) % 8 + 1, axis=1) - 1
        slot, qubit = slots[valid], np.nonzero(valid)[0]
        order = np.lexsort((qubit, slot))
        slot, qubit = slot[order], qubit[order]
        starts = np.flatnonzero(np.diff(slot)) + 1
        cycles = tuple(
            Cycle(float(s % 8 * 45), tuple(fired.tolist()), s)
            for s, fired in zip(slot[np.r_[0, starts]].tolist(), np.split(qubit, starts))
        )
        return Schedule(cycles, mode, n)
    # Code every phase once; np.unique sorts, so argmax over code counts
    # breaks ties to the lowest phase.
    vals, codes = np.unique(thetas[valid], return_inverse=True)
    code = np.zeros(thetas.shape, dtype=np.intp)
    code[valid] = codes
    ptr = np.zeros(n, dtype=np.intp)
    live = np.flatnonzero(lens)
    cycles: list[Cycle] = []
    while live.size:
        nxt = code[live, ptr[live]]
        phase = vals[np.bincount(nxt).argmax()]
        fired = live[np.abs(vals[nxt] - phase) < 1e-6]
        cycles.append(Cycle(float(phase), tuple(fired.tolist()), len(cycles)))
        ptr[fired] += 1
        live = live[ptr[live] < lens[live]]
    return Schedule(tuple(cycles), mode, n)


@dataclass(frozen=True)
class ParallelismStats:
    cycles: int
    mean_fired: float
    max_fired: int
    min_nonzero_fired: int


def parallelism_stats(s: Schedule) -> ParallelismStats:
    counts = [len(c.fired) for c in s.cycles]
    if not counts:
        return ParallelismStats(0, 0.0, 0, 0)
    return ParallelismStats(
        cycles=len(counts),
        mean_fired=float(np.mean(counts)),
        max_fired=int(max(counts)),
        min_nonzero_fired=int(min(c for c in counts if c > 0)),
    )
