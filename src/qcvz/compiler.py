"""Single-qubit gate programs lowered to pi/2 pulses with virtual-Z frames,
plus the TDM scheduler that packs pulses into shared-phase control cycles.

Sign convention (asserted by tests, not assumed): a frame F accumulates Z
angles; an X90 emitted at frame F is driven at theta_if = F, i.e. with
physical pulse phase -F, so the realized rotation axis in the equatorial
plane is phi = -F. Under this choice [X90, Z(pi/4), X90] lowers to pulse
phases [0, 45] degrees and matches the ideal unitary.

A Program is a gate table, each distinct gate once, plus a matrix of integer
codes into it, one row per qubit: lowering and scheduling read arrays.

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

Free scheduling counts 1e-6-degree phase clusters, since frame sums spread
one physical phase over nearby floats. A phase p with 360 - p < 1e-6 counts
as p - 360, so 0 and 360 degrees meet. Over the sorted distinct values,
a cluster opens at the lowest unassigned v and takes every w with
w - v < 1e-6, so chained values cannot widen it to 1e-6. Each cycle
fires every ready pulse of the cluster with the most of them, ties to the
lowest v (so 0 degrees wins), at theta_if = v mod 360: the lowest pulse's
phase, or 0 for one at exactly 360, and within 1e-6 of every fired phase
on the circle. A cycle reads each qubit's next cluster and takes one
argmax over the c cluster counts: O(n + c).
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signals import NumericError

QUARTER = 0.25 * math.pi


class CompileError(NumericError, ValueError):
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
    phi = math.fmod(phi, math.tau)
    if phi > math.pi:
        phi -= math.tau
    elif phi <= -math.pi:
        phi += math.tau
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
        name = name.strip().lower()
        try:
            if name.startswith("z:"):
                angle = float(name[2:])
            elif name.startswith("z") and name[1:].replace(".", "", 1).isdigit():
                angle = math.radians(float(name[1:]))
            else:
                return cls(GateKind(name))
        except ValueError:
            raise CompileError(f"unknown gate name {name!r}") from None
        return cls.z(angle)


class Program:
    """Per-qubit ordered gate lists as integer codes: qubit i's gate j is
    ``table[codes[i, j]]`` for j < ``lens[i]``, and ``len(table)`` pads the
    short rows. ``table`` holds each distinct gate once, in first-seen order,
    and the arrays are read-only. ``rows`` is a sequence of gate sequences:
    of Gates, or of keys that ``parse`` maps to Gates. ``parse`` gets the
    distinct keys once, in first-seen order, and returns their Gates in order.

    One pass, run in C, numbers each key by its first sighting; Python then
    works only on the distinct keys, and a small remap array turns their
    numbers into codes (keys with equal Gates share one).
    """

    def __init__(self, rows, parse=list):
        if len(rows) < 1:
            raise CompileError("program needs at least one qubit")
        self.lens = np.fromiter(map(len, rows), np.int64, count=len(rows))
        number = collections.defaultdict(itertools.count().__next__)
        ids = np.fromiter(map(number.__getitem__, itertools.chain.from_iterable(rows)),
                          np.uint32, count=int(self.lens.sum()))
        code_of: dict[Gate, int] = {}
        remap = [code_of.setdefault(g, len(code_of)) for g in parse(number)]
        self.table, self.n_qubits = tuple(code_of), len(rows)
        flat = np.array(remap, np.min_scalar_type(len(code_of)))[ids]
        self.codes = np.full((self.n_qubits, self.lens.max()), len(code_of), flat.dtype)
        self.codes[np.arange(self.codes.shape[1]) < self.lens[:, None]] = flat
        self.lens.setflags(write=False)
        self.codes.setflags(write=False)

    @classmethod
    def from_names(cls, rows) -> "Program":
        """Program from rows of gate names. A name that is not a str raises
        TypeError; the distinct names are then parsed in first-seen order, so
        the first bad one raises."""
        return cls(rows, _parse_names)


def _parse_names(names) -> list[Gate]:
    if not all(isinstance(name, str) for name in names):
        raise TypeError("gate names must be str")
    return [Gate.parse(name) for name in names]


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


def _lower(program: Program, quantized: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phases, lens, final_frame_rad) of every row in one padded pass: all
    pulse phases in program order, row i owning the next lens[i], as k of
    k * 45 degrees if ``quantized``, else in degrees; row i ends at frame
    final_frame_rad[i]."""
    codes = program.codes
    n, maxg = codes.shape
    table = np.array([_STEPS.get(g.kind, (g.angle_rad, 0, 0.0)) for g in program.table]
                     + [(0.0, 0, 0.0)])  # the last row pads short rows
    ab = table[:, [0, 2]]
    if quantized:
        units = ab / QUARTER
        off = (np.abs(units - np.rint(units)) > 1e-9).any(axis=1)
        if off.any():
            ang = program.table[codes.flat[np.argmax(off[codes])]].angle_rad  # first in order
            raise CompileError(f"Z angle {ang} rad is not a multiple of pi/4 in quantized mode")
        # int8 sums wrap mod 256, a multiple of 8, so frames stay right mod 8.
        ab = np.rint(units).astype(np.int8)
    # Interleave [a0, b0, a1, b1, ...] per row; cumsum runs in order along a row.
    # Each (a, b) pair is gathered as one opaque item: a 1-D gather is several
    # times faster than ab[codes] and, unlike np.take, copies no index array.
    pairs = np.ascontiguousarray(ab).view(np.dtype((np.void, 2 * ab.itemsize))).ravel()
    frames = pairs[codes].view(ab.dtype).reshape(n, 2 * maxg)
    np.cumsum(frames, axis=1, out=frames)
    final = frames[:, -1] if maxg else np.zeros(n, dtype=frames.dtype)
    n_pulses = table[:, 1].astype(np.int8)[codes]
    phases = np.repeat(frames[:, 0::2].ravel(), n_pulses.ravel())
    if quantized:
        # & 7 is mod 8 for every int8 in two's complement, and much cheaper.
        return phases & 7, n_pulses.sum(axis=1), (final & 7) * QUARTER
    # In place, so a 500 x 100 program's lowering holds one copy of its phases.
    deg = np.remainder(np.degrees(phases, out=phases), 360.0, out=phases)
    frame = final % math.tau
    # A tiny negative value rounds up to the modulus itself; that is 0.
    deg[deg == 360.0] = 0.0
    frame[frame == math.tau] = 0.0
    return deg, n_pulses.sum(axis=1), frame


# Ideal gate matrices, up to global phase, for simulate_schedule's ideal p1.
# Every other kind is diag(1, e^{i angle}): its _Z_ANGLE, or a Z gate's own angle.
_X90 = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)
_MATRICES = {GateKind.X90: _X90, GateKind.X180: _X90 @ _X90,
             GateKind.H: np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)}


def _gate_matrix(g: Gate) -> np.ndarray:
    if g.kind in _MATRICES:
        return _MATRICES[g.kind]
    return np.diag([1.0, np.exp(1j * _Z_ANGLE.get(g.kind, g.angle_rad))])


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


@dataclass(frozen=True, eq=False)
class Schedule:
    """Emitted control cycles as arrays: cycle i has rolling slot ``slot[i]``
    and IF phase ``theta_if_deg[i]`` and fires the qubits
    ``fired[offsets[i]:offsets[i + 1]]`` (CSR layout, ``n_cycles + 1``
    offsets), each fired index in ``range(n_qubits)``. The arrays are made
    read-only, and ``slot``, ``offsets`` and ``fired`` must be integer.

    ``schedule`` returns int64 ``slot`` and ``offsets``, float64
    ``theta_if_deg`` and int32 ``fired`` in both modes. For rows of up to 8191
    pulses, quantized45 holds each pulse's phase and slot in 8 or 16 bits and
    widens only the one slot per cycle."""

    slot: np.ndarray
    theta_if_deg: np.ndarray
    offsets: np.ndarray
    fired: np.ndarray
    mode: ScheduleMode
    n_qubits: int

    def __post_init__(self):
        for a in (self.slot, self.theta_if_deg, self.offsets, self.fired):
            a.setflags(write=False)
        c, offsets = len(self.slot), self.offsets
        if not (all(np.issubdtype(a.dtype, np.integer) for a in (self.slot, offsets, self.fired))
                and len(self.theta_if_deg) == c and len(offsets) == c + 1 and offsets[0] == 0
                and offsets[-1] == self.fired.size and (np.diff(offsets) >= 0).all()):
            raise CompileError("schedule arrays disagree: need integer slot, offsets and "
                               "fired, one theta per slot and len(slot) + 1 nondecreasing "
                               "offsets from 0 to fired.size")
        if self.fired.size and not (0 <= self.fired.min() and self.fired.max() < self.n_qubits):
            raise CompileError(f"fired qubit index out of range({self.n_qubits})")

    def _rows(self):
        """(theta_if_deg, fired list, slot) per cycle, as Python numbers."""
        fired = self.fired.tolist()
        return zip(self.theta_if_deg.tolist(),
                   (fired[a:b] for a, b in itertools.pairwise(self.offsets.tolist())),
                   self.slot.tolist())

    @functools.cached_property
    def cycles(self) -> tuple[Cycle, ...]:
        """The cycles as ``Cycle`` records, built once from the arrays. The
        package itself reads only the arrays; these stay because the
        benchmark's traced ``compiler.schedule`` counter in ``bench/spans.py``
        counts cycles, pulses and slots from them."""
        return tuple(Cycle(theta, tuple(fired), slot) for theta, fired, slot in self._rows())

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "n_qubits": self.n_qubits,
            "cycles": [
                {"theta_if": theta, "fired": fired, "slot": slot}
                for theta, fired, slot in self._rows()
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True,
        allow_nan=False) + "\\n"``, byte for byte, written from the arrays:
        each fired qubit's line is gathered by ``fired``, and one joint string
        per cycle boundary is inserted at ``offsets`` (which ``__post_init__``
        checks). Joint 0 opens the document and the first cycle; joint i
        closes cycle i - 1 with its slot and theta and opens the next cycle,
        or the last joint closes the document.

        Python formats one joint per cycle and none per fired qubit. On a
        2-vCPU VM, 10^5 qubits x 300 random quantized45 gates (745 cycles,
        8.6e6 fired) take ~0.5 s with a 266-MiB traced peak; 500 x 100
        X90s after off-grid angles (50,000 one-qubit cycles) take ~61 ms,
        most of it the repr of each distinct theta and the joints."""
        theta, offsets = self.theta_if_deg, self.offsets
        if not np.isfinite(theta).all():
            raise ValueError("Out of range float values are not JSON compliant")
        # Distinct thetas by bit pattern: unique values would merge -0.0 and
        # 0.0, which json prints differently.
        _, first, code = np.unique(theta.view(f"u{theta.itemsize}"),
                                   return_index=True, return_inverse=True)
        reprs = [repr(t) for t in theta[first].tolist()]
        n, c, filled = self.n_qubits, len(self.slot), np.diff(offsets) > 0
        # Qubit q's line with a leading comma at q, and at n + q without one,
        # for a non-empty cycle's first qubit.
        table = np.array([*(f",\n        {q}" for q in range(n)),
                          *(f"\n        {q}" for q in range(n))], dtype=object)
        lines, starts = table[self.fired], offsets[:-1][filled]
        lines[starts] = table[n:][self.fired[starts]]
        opening = '\n    {\n      "fired": ['
        tail = f'],\n  "mode": "{self.mode.value}",\n  "n_qubits": {n}\n}}\n'
        ends = np.where(filled, "\n      ]", "]").tolist()
        nexts = ["," + opening] * (c - 1) + ["\n  " + tail]
        joints = ['{\n  "cycles": [' + (opening if c else tail),
                  *(f'{end},\n      "slot": {slot},\n      "theta_if": {reprs[k]}\n    }}{nxt}'
                    for end, slot, k, nxt in zip(ends, self.slot.tolist(), code.tolist(), nexts))]
        return "".join(np.insert(lines, offsets, joints).tolist())


def schedule(program: Program, mode: ScheduleMode | str = ScheduleMode.QUANTIZED45) -> Schedule:
    """Pack each qubit's lowered pulses into shared-phase control cycles.

    quantized45: the candidate phase rolls 0, 45, ..., 315, ...; every qubit
    whose next pulse matches the candidate fires; empty candidates are
    skipped (their rolling slot is still counted). Each qubit's slots follow
    the closed form slot_j = slot_{j-1} + 1 + ((k_j - k_{j-1} - 1) mod 8)
    with k_{-1} = slot_{-1} = -1 (see the module docstring), so the cycles
    are the distinct slots, each firing its qubits in ascending order.
    free: greedy over 1e-6-degree clusters (see the module docstring). A
    phase p with 360 - p < 1e-6 counts as p - 360; over the sorted values,
    a cluster opens at the lowest unassigned v and takes every w with
    w - v < 1e-6. Each cycle fires every ready pulse of the cluster with the
    most of them, ties to the lowest v, at theta_if = v mod 360, in O(n + c)
    for c clusters.
    """
    mode = ScheduleMode(mode)
    quantized = mode is ScheduleMode.QUANTIZED45
    phases, lens, _ = _lower(program, quantized)
    n = program.n_qubits
    if not phases.size:
        return Schedule(np.zeros(0, np.int64), np.zeros(0), np.zeros(1, np.int64),
                        np.zeros(0, np.int32), mode, n)
    valid = np.arange(lens.max()) < lens[:, None]
    if quantized:
        k = np.zeros(valid.shape, np.int8)
        k[valid] = phases
        step = ((np.diff(k, axis=1, prepend=np.int8(-1)) - 1) & 7) + 1
        # slot1 is slot + 1. Each step is at most 8, so it fits in 8 * (longest
        # row): 8 or 16 bits for rows of up to 8191 pulses. Only the one slot
        # per cycle is widened and shifted.
        slot1 = np.cumsum(step, axis=1, dtype=np.min_scalar_type(8 * lens.max()))[valid]
        # A stable sort keeps the qubits ascending within a slot; on 16 bits
        # or fewer numpy's stable sort is a radix sort.
        order = np.argsort(slot1, kind="stable")
        slot1, qubit = slot1[order], np.repeat(np.arange(n, dtype=np.int32), lens)[order]
        offsets = np.r_[0, np.flatnonzero(np.diff(slot1)) + 1, slot1.size]
        slot = slot1[offsets[:-1]].astype(np.int64) - 1
        return Schedule(slot, (slot % 8 * 45).astype(float), offsets, qubit, mode, n)
    # Code every pulse by its cluster; clusters are numbered in order of v,
    # so argmax over cluster counts breaks ties to the lowest v. Code c pads
    # the rows and marks a finished qubit; its count starts below -n, so no
    # cycle picks it.
    vals, inv = np.unique(np.where(360.0 - phases < 1e-6, phases - 360.0, phases),
                          return_inverse=True)
    opens, v = np.zeros(vals.size, bool), -math.inf
    for i, w in enumerate(vals.tolist()):
        if not w - v < 1e-6:
            opens[i], v = True, w
    c = int(opens.sum())
    width = valid.shape[1] + 1
    code = np.full((n, width), c, dtype=np.intp)
    code[:, :-1][valid] = (np.cumsum(opens) - 1)[inv]
    code = code.ravel()
    pos = np.arange(n) * width  # each qubit's next pulse in ``code``
    nxt = code[pos]
    count = np.bincount(nxt, minlength=c + 1)
    count[c] = -n - 1
    picked: list[int] = []
    fired: list[np.ndarray] = []
    left = phases.size
    while left:
        k = int(count.argmax())
        fire = (nxt == k).nonzero()[0]
        # Every ready pulse of the picked cluster fires, so its count is
        # spent; only the fired qubits' next codes are added back.
        count[k] = 0
        p = pos[fire] + 1
        pos[fire] = p
        nxt[fire] = new = code[p]
        np.add.at(count, new, 1)
        picked.append(k)
        fired.append(fire)
        left -= fire.size
    offsets = np.r_[0, np.cumsum([f.size for f in fired])]
    theta = vals[opens][picked] % 360.0
    return Schedule(np.arange(len(picked)), theta, offsets,
                    np.concatenate(fired).astype(np.int32), mode, n)


@dataclass(frozen=True)
class ParallelismStats:
    cycles: int
    mean_fired: float
    max_fired: int
    min_nonzero_fired: int


def parallelism_stats(s: Schedule) -> ParallelismStats:
    counts = np.diff(s.offsets)
    if not counts.size:
        return ParallelismStats(0, 0.0, 0, 0)
    nonzero = counts[counts > 0]
    return ParallelismStats(
        cycles=counts.size,
        mean_fired=float(np.mean(counts)),
        max_fired=int(counts.max()),
        min_nonzero_fired=int(nonzero.min()) if nonzero.size else 0,
    )
