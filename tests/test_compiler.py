import collections
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcvz.compiler import (
    _STEPS,
    QUARTER,
    CompileError,
    Cycle,
    Gate,
    GateKind,
    ParallelismStats,
    Program,
    Schedule,
    ScheduleMode,
    parallelism_stats,
    schedule,
)
from qcvz.experiments import _ideal_p1

from oracles import (
    ideal_unitary,
    lower,
    lowered_unitary,
    phase_distance,
    pulse_unitary,
    schedule_document,
)


def gates(*names):
    return [Gate.parse(n) for n in names]


def _rows(prog):
    """Each qubit's gates, rebuilt from the program's table, codes and lens."""
    return [[prog.table[c] for c in row[:n]]
            for row, n in zip(prog.codes.tolist(), prog.lens.tolist())]


def test_gate_parse():
    assert Gate.parse("x90").kind is GateKind.X90
    assert Gate.parse("H").kind is GateKind.H
    assert Gate.parse("z90").angle_rad == pytest.approx(math.pi / 2)
    assert Gate.parse("z:0.25").angle_rad == pytest.approx(0.25)
    for bad in ("cnot", "z:abc", "z:nan", "z:inf", "z:-inf"):
        with pytest.raises(CompileError):
            Gate.parse(bad)
    for angle in (math.nan, math.inf):
        with pytest.raises(CompileError):
            Gate.z(angle)


def test_lower_worked_example():
    # X90 T X90 S X90 lowers to pulses at 0, 45 and 135 degrees
    lq = lower(gates("x90", "t", "x90", "s", "x90"))
    assert lq.thetas_deg == (0.0, 45.0, 135.0)
    assert lq.final_frame_rad == pytest.approx(3.0 * math.pi / 4.0)


def test_lower_hadamard():
    # H expands to S X90 S: one pulse at 90 deg, residual frame pi
    lq = lower(gates("h"))
    assert lq.thetas_deg == (90.0,)
    assert lq.final_frame_rad == pytest.approx(math.pi)


def test_lower_x180_expansion():
    lq = lower(gates("x180"))
    assert lq.thetas_deg == (0.0, 0.0)
    assert lq.final_frame_rad == 0.0


def test_lower_quantization_guard():
    with pytest.raises(CompileError):
        lower([Gate.z(0.3)], quantized=True)
    lq = lower([Gate.z(0.3), Gate(GateKind.X90)], quantized=False)
    assert lq.thetas_deg[0] == pytest.approx(math.degrees(0.3))


def test_pulse_unitary_is_x90_at_zero_phase():
    u = pulse_unitary(0.0)
    c = 1.0 / math.sqrt(2.0)
    expect = np.array([[c, -1j * c], [-1j * c, c]])
    assert np.allclose(u, expect)


def test_lowered_unitary_equals_ideal():
    programs = [
        ["x90"],
        ["x180"],
        ["h"],
        ["s", "x90", "t"],
        ["x90", "t", "x90", "s", "x90"],
        ["x90", "h", "x90"],
        ["tdg", "x90", "sdg", "h", "z135", "x90", "x180", "t"],
    ]
    for names in programs:
        gs = gates(*names)
        d = phase_distance(lowered_unitary(lower(gs)), ideal_unitary(gs))
        assert d < 1e-9
        assert phase_distance(lowered_unitary(lower(gs)), ideal_unitary(gs)) < 1e-9


@given(
    st.lists(
        st.sampled_from(["x90", "x180", "h", "s", "sdg", "t", "tdg", "z135", "z270"]),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_lowered_unitary_equals_ideal_random(names):
    gs = gates(*names)
    assert phase_distance(lowered_unitary(lower(gs)), ideal_unitary(gs)) < 1e-9


def test_equivalence_detects_difference():
    assert not phase_distance(ideal_unitary(gates("s")), ideal_unitary(gates("t"))) < 1e-9
    # global phase alone is ignored
    u = ideal_unitary(gates("h"))
    assert phase_distance(u, np.exp(0.7j) * u) < 1e-9


def test_schedule_three_qubit_example():
    # Shared-cycle packing of X90 X90 / X90 T X90 S X90 / X90 H X90:
    # qubit 0 fires in the rolling slots 0 and 8 (1st and 9th cycle).
    prog = Program(
        (
            tuple(gates("x90", "x90")),
            tuple(gates("x90", "t", "x90", "s", "x90")),
            tuple(gates("x90", "h", "x90")),
        )
    )
    sched = schedule(prog, ScheduleMode.QUANTIZED45)
    assert isinstance(sched, Schedule)
    slots_q0 = [c.slot for c in sched.cycles if 0 in c.fired]
    assert slots_q0 == [0, 8]
    by_slot = {c.slot: c for c in sched.cycles}
    assert by_slot[0].theta_if_deg == 0.0
    assert sorted(by_slot[0].fired) == [0, 1, 2]
    assert by_slot[1].fired == (1,)  # theta 45
    assert by_slot[2].fired == (2,)  # theta 90
    assert by_slot[3].fired == (1,)  # theta 135
    assert by_slot[4].fired == (2,)  # theta 180
    assert 5 not in by_slot and 6 not in by_slot and 7 not in by_slot


def test_schedule_uniform_workload_full_parallelism():
    n, depth = 40, 6
    prog = Program(tuple(tuple(gates(*["x90"] * depth)) for _ in range(n)))
    stats = parallelism_stats(schedule(prog))
    assert stats.mean_fired == n
    assert stats.cycles == depth


def test_schedule_free_mode_majority_phase():
    prog = Program(
        (
            tuple(gates("x90")),
            tuple(gates("x90")),
            tuple(gates("s", "x90")),
        )
    )
    sched = schedule(prog, "free")
    assert sched.cycles[0].theta_if_deg == 0.0
    assert sorted(sched.cycles[0].fired) == [0, 1]
    assert sched.cycles[1].theta_if_deg == 90.0
    assert sched.cycles[1].fired == (2,)


def test_schedule_preserves_per_qubit_order():
    prog = Program(
        (
            tuple(gates("x90", "s", "x90", "t", "x90")),
            tuple(gates("t", "x90", "x90")),
        )
    )
    sched = schedule(prog)
    for k in range(prog.n_qubits):
        fired_thetas = [c.theta_if_deg for c in sched.cycles if k in c.fired]
        assert tuple(fired_thetas) == lower(_rows(prog)[k]).thetas_deg


def test_schedule_to_dict():
    prog = Program((tuple(gates("x90", "t", "x90")),))
    d = schedule(prog).to_dict()
    assert d["mode"] == "quantized45"
    assert d["n_qubits"] == 1
    assert [c["theta_if"] for c in d["cycles"]] == [0.0, 45.0]


def test_empty_program_rejected():
    with pytest.raises(CompileError):
        Program(())


# -- reference oracle: per-gate lowering and per-slot scheduling loop -------

_REF_Z_ANGLE = {
    GateKind.S: 0.5 * math.pi,
    GateKind.SDG: -0.5 * math.pi,
    GateKind.T: 0.25 * math.pi,
    GateKind.TDG: -0.25 * math.pi,
}


def _ref_expand(gate):
    if gate.kind is GateKind.H:
        return [Gate(GateKind.S), Gate(GateKind.X90), Gate(GateKind.S)]
    if gate.kind is GateKind.X180:
        return [Gate(GateKind.X90), Gate(GateKind.X90)]
    return [gate]


def _ref_lower(gates, quantized):
    frame = 0.0
    thetas = []
    for gate in gates:
        for g in _ref_expand(gate):
            if g.kind is GateKind.X90:
                theta = _ref_mod(math.degrees(frame), 360.0)
                if quantized:
                    snapped = round(theta / 45.0) * 45.0
                    if abs(theta - snapped) > 1e-6:
                        raise CompileError(f"frame {theta} deg off the 45-degree grid")
                    theta = snapped % 360.0
                thetas.append(theta)
            else:
                ang = _REF_Z_ANGLE.get(g.kind, g.angle_rad)
                if quantized and abs(ang / (0.25 * math.pi) - round(ang / (0.25 * math.pi))) > 1e-9:
                    raise CompileError(f"Z angle {ang} rad is not a multiple of pi/4 in quantized mode")
                frame += ang
    return tuple(thetas), _ref_mod(frame, 2.0 * math.pi)


def _ref_mod(x, m):
    """x mod m in [0, m): a result that rounds to m is 0."""
    r = x % m
    return 0.0 if r == m else r


def _ref_wrap(phase):
    """A phase within 1e-6 degrees below 360 counts as phase - 360."""
    return phase - 360.0 if 360.0 - phase < 1e-6 else phase


def _ref_cluster_of(lowered):
    """Each wrapped phase -> the lowest value v of its cluster: over the
    sorted distinct values, a cluster opens at the lowest unassigned v and
    takes every w with w - v < 1e-6."""
    cluster, v = {}, None
    for w in sorted({_ref_wrap(p) for thetas in lowered for p in thetas}):
        if v is None or not w - v < 1e-6:
            v = w
        cluster[w] = v
    return cluster


def _ref_free_cycles(lowered):
    """Free mode, one plain scan over the ready qubits per cycle: fire every
    ready pulse of the cluster with the most ready pulses (ties to the
    lowest v) at theta v mod 360. Returns [(theta, fired qubits), ...]."""
    cluster = _ref_cluster_of(lowered)
    keys = [[cluster[_ref_wrap(p)] for p in thetas] for thetas in lowered]
    ptr = [0] * len(keys)
    cycles = []
    while True:
        ready = [i for i, row in enumerate(keys) if ptr[i] < len(row)]
        if not ready:
            return cycles
        count = collections.Counter(keys[i][ptr[i]] for i in ready)
        best = min(count, key=lambda v: (-count[v], v))
        fire = [i for i in ready if keys[i][ptr[i]] == best]
        for i in fire:
            ptr[i] += 1
        cycles.append((best % 360.0, fire))


def _ref_schedule(program, mode):
    quantized = mode == "quantized45"
    lowered = [_ref_lower(g, quantized)[0] for g in _rows(program)]
    n = len(lowered)
    if not quantized:
        return {"mode": mode, "n_qubits": n,
                "cycles": [{"theta_if": theta, "fired": fire, "slot": slot}
                           for slot, (theta, fire) in enumerate(_ref_free_cycles(lowered))]}
    cycles = []
    ptr = [0] * n
    slot = 0
    while any(ptr[i] < len(lowered[i]) for i in range(n)):
        ready = [i for i in range(n) if ptr[i] < len(lowered[i])]
        nxt = {i: lowered[i][ptr[i]] for i in ready}
        phase = float((slot % 8) * 45)
        fire = [i for i in ready if abs(nxt[i] - phase) < 1e-6]
        if fire:
            cycles.append({"theta_if": phase, "fired": fire, "slot": slot})
            for i in fire:
                ptr[i] += 1
        slot += 1
    return {"mode": mode, "n_qubits": n, "cycles": cycles}


Q45_NAMES = ["x90", "x180", "h", "s", "sdg", "t", "tdg"] + [f"z{45 * k}" for k in range(1, 8)]
# z:k pi/8 frames add in floats, so free-mode phases carry rounding noise
FREE_NAMES = Q45_NAMES + [f"z:{k * math.pi / 8!r}" for k in range(-16, 17)]


def _programs(names):
    z_only = [n for n in names if n not in ("x90", "x180", "h")]
    row = st.one_of(st.lists(st.sampled_from(names), max_size=24),
                    st.lists(st.sampled_from(z_only), max_size=4))
    return st.lists(row, min_size=1, max_size=12)


def _frame_gap(a, b):
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@given(_programs(Q45_NAMES), _programs(FREE_NAMES))
@settings(max_examples=200, deadline=None)
def test_lower_and_schedule_match_reference_loops(q45_rows, free_rows):
    for rows, modes in ((q45_rows, ("quantized45", "free")), (free_rows, ("free", "quantized45"))):
        prog = Program(tuple(tuple(gates(*row)) for row in rows))
        for mode in modes:
            quantized = mode == "quantized45"
            try:
                ref = [_ref_lower(g, quantized) for g in _rows(prog)]
            except CompileError as exc:
                with pytest.raises(CompileError, match=re.escape(str(exc))):
                    schedule(prog, mode)
                continue
            for g, (thetas, frame) in zip(_rows(prog), ref):
                lq = lower(g, quantized=quantized)
                assert lq.thetas_deg == thetas
                assert _frame_gap(lq.final_frame_rad, frame) < 1e-12
            assert schedule(prog, mode).to_dict() == _ref_schedule(prog, mode)


def _ref_stats(sched):
    counts = [len(c.fired) for c in sched.cycles]
    if not counts:
        return ParallelismStats(0, 0.0, 0, 0)
    return ParallelismStats(len(counts), float(np.mean(counts)), int(max(counts)),
                            int(min(c for c in counts if c > 0)))


# Angles just off a phase, so free-mode phases print with many digits.
EDGE_NAMES = FREE_NAMES + ["z:1e-7", "z:-3.0000001"]


@given(st.one_of(st.tuples(st.just("quantized45"), _programs(Q45_NAMES)),
                 st.tuples(st.just("free"), _programs(EDGE_NAMES))))
@example(("quantized45", [[]]))
@example(("free", [["s"], []]))
@example(("quantized45", [["x90"]]))
@example(("free", [["z:1e-7", "x90"], ["z:-3.0000001", "x90", "x90"], ["x90"]]))
@settings(max_examples=200, deadline=None)
def test_schedule_arrays_match_json_cycles_and_stats(case):
    mode, rows = case
    sched = schedule(Program(tuple(tuple(gates(*row)) for row in rows)), mode)
    assert sched.fired.dtype == np.int32
    d = schedule_document(sched)
    assert sched.to_dict() == d
    assert sched.to_json() == json.dumps(d, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert sched.cycles == tuple(Cycle(c["theta_if"], tuple(c["fired"]), c["slot"])
                                 for c in d["cycles"])
    assert all(type(c.theta_if_deg) is float and type(c.slot) is int
               and all(type(k) is int for k in c.fired) for c in sched.cycles)
    assert parallelism_stats(sched) == _ref_stats(sched)


def test_schedule_rejects_nonfinite_theta_and_bad_qubits():
    one = np.array([0, 1])
    with pytest.raises(CompileError, match="theta_if_deg must be finite"):
        Schedule(np.array([0]), np.array([math.nan]), one, np.array([0]), ScheduleMode.FREE, 1)
    for k in (-1, 1):
        with pytest.raises(CompileError):
            Schedule(np.array([0]), np.array([0.0]), one, np.array([k]), ScheduleMode.FREE, 1)


def _sched(slot, theta, offsets, fired, n_qubits=1, mode=ScheduleMode.FREE):
    """A Schedule from lists, as int64 (theta float64); arrays pass unchanged."""
    slot, offsets, fired = (a if isinstance(a, np.ndarray) else np.array(a, np.int64)
                            for a in (slot, offsets, fired))
    return Schedule(slot, np.array(theta, float), offsets, fired, mode, n_qubits)


@pytest.mark.parametrize("slot, theta, offsets, fired", [
    ([0, 3], [0.0], [0, 5], [0]),          # one theta, two offsets, five fired for two slots
    ([0, 3], [0.0], [0, 1, 1], [0]),       # one theta for two slots
    ([0], [0.0], [0, 0, 1], [0]),          # three offsets for one slot
    ([], [], [], []),                      # no offsets
    ([0], [0.0], [1, 1], [0]),             # offsets start past 0
    ([0], [0.0], [1, 0], []),              # offsets start past 0 and decrease
    ([0, 1], [0.0, 0.0], [0, 2, 1], [0]),  # offsets decrease
    ([0], [0.0], [0, 1], [0, 0]),          # offsets end before the last fired
    ([0], [0.0], [0, 1], np.array([0.5])),       # a fractional fired qubit
    (np.array([0.7]), [0.0], [0, 1], [0]),       # a fractional slot
    ([0], [0.0], np.array([0.0, 1.0]), [0]),     # float offsets
])
def test_schedule_rejects_arrays_that_disagree(slot, theta, offsets, fired):
    with pytest.raises(CompileError, match="schedule arrays disagree"):
        _sched(slot, theta, offsets, fired)


# What ``schedule`` never emits is refused when the Schedule is built: a
# decreasing slot, for one, would run simulate_schedule through a negative
# idle time, and a qubit count of 1.5, 0 or -3 has no schedule.json.
@pytest.mark.parametrize("args, kwargs, message", [
    (([5, 1], [0.0, 45.0], [0, 1, 2], [0, 0]), {}, "slots must strictly increase from 0"),
    (([0, 0], [0.0, 0.0], [0, 1, 2], [0, 0]), {}, "slots must strictly increase from 0"),
    (([-1], [0.0], [0, 1], [0]), {}, "slots must strictly increase from 0"),
    (([0, 1], [0.0, 45.0], [0, 0, 1], [0]), {}, r"\(no empty cycle\)"),
    (([0], [0.0], [0, 0], []), {}, r"\(no empty cycle\)"),
    (([0, 1, 2, 3, 4], [0.0, 45.0, 90.0, 45.0, 0.0], [0, 0, 2, 2, 3, 3], [1, 0, 2]),
     {"n_qubits": 3}, r"\(no empty cycle\)"),
    (([0, 1], [0.0, 45.0], [0, 0, 0], []), {}, r"\(no empty cycle\)"),
    (([0], [math.nan], [0, 1], [0]), {}, "theta_if_deg must be finite"),
    (([0], [math.inf], [0, 1], [0]), {}, "theta_if_deg must be finite"),
    (([0], [-math.inf], [0, 1], [0]), {}, "theta_if_deg must be finite"),
    (([0], [0.0], [0, 1], [0]), {"n_qubits": 1.5}, r"n_qubits must be an integer >= 1, got 1\.5"),
    (([0], [0.0], [0, 1], [0]), {"n_qubits": 0}, "n_qubits must be an integer >= 1, got 0"),
    (([0], [0.0], [0, 1], [0]), {"n_qubits": -3}, "n_qubits must be an integer >= 1, got -3"),
], ids=["slots_decrease", "slots_repeat", "slot_negative", "empty_first_cycle",
        "one_empty_cycle", "empty_cycles_between", "all_cycles_empty", "theta_nan",
        "theta_inf", "theta_-inf", "qubits_1.5", "qubits_0", "qubits_-3"])
def test_schedule_refuses_what_schedule_never_emits(args, kwargs, message):
    with pytest.raises(CompileError, match=message):
        _sched(*args, **kwargs)


def test_schedule_converts_a_str_mode():
    sched = _sched([0], [0.0], [0, 1], [0], mode="free")
    assert sched.mode is ScheduleMode.FREE
    assert sched.to_dict()["mode"] == "free"


def test_parallelism_stats_counts_fired_per_cycle():
    with pytest.raises(CompileError, match=r"\(no empty cycle\)"):
        _sched([0, 1, 2], [0.0] * 3, [0, 0, 2, 2], [0, 0])
    assert parallelism_stats(_sched([0, 3, 4], [0.0] * 3, [0, 1, 4, 6], [0, 0, 1, 2, 0, 2],
                                    n_qubits=3)) == ParallelismStats(3, 2.0, 3, 1)


def _dumps(sched):
    return json.dumps(schedule_document(sched), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


# Hand-built schedules: no cycles, one cycle of one qubit, a cycle whose
# qubits are not in order, qubit ids of 1 to 5 digits, and thetas whose reprs
# differ from their unique values (-0.0 and 0.0) or need up to 17 significant
# digits.
@pytest.mark.parametrize("case", [
    ([], [], [0], [], 1),
    ([], [], [0], [], 12000),
    ([0], [0.0], [0, 1], [0], 1),
    ([1, 3], [45.0, 45.0], [0, 2, 3], [1, 0, 2], 3),
    ([0, 5, 9], [-0.0, 0.0, -0.0], [0, 6, 7, 11],
     [0, 7, 42, 999, 1000, 11999, 5, 10000, 12, 345, 6789], 12000),
    ([2, 3, 4, 6, 7], [1e-7, 359.99999999999994, 0.30000000000000004, 123.45678901234567, 1e-7],
     [0, 1, 2, 3, 4, 5], [0, 1, 0, 1, 1], 2),
])
@pytest.mark.parametrize("mode", list(ScheduleMode))
def test_to_json_matches_json_dumps_on_edge_cases(case, mode):
    sched = _sched(*case, mode=mode)
    assert sched.to_json() == _dumps(sched)
    negative_zeros = sum(t == 0.0 and math.copysign(1.0, t) < 0 for t in case[1])
    assert sched.to_json().count('"theta_if": -0.0\n') == negative_zeros


def _off_grid_before_each_x90(rng):
    """200 rows of 50 X90s, each after a z:<radians> at a random angle, so that
    each free-mode cycle fires one qubit and a joint follows every line."""
    angles = rng.uniform(0.0, 2 * math.pi, (200, 50)).tolist()
    return [[g for a in row for g in (f"z:{a!r}", "x90")] for row in angles]


@pytest.mark.parametrize("mode, names", [("quantized45", Q45_NAMES), ("free", EDGE_NAMES),
                                         ("free", _off_grid_before_each_x90)])
def test_to_json_matches_json_dumps_on_a_random_program(mode, names):
    rng = np.random.default_rng(11)
    rows = names(rng) if callable(names) else rng.choice(names, (2000, 50)).tolist()
    sched = schedule(Program.from_names(rows), mode)
    assert sched.fired.size > 5_000 and sched.to_json() == _dumps(sched)
    if callable(names):
        assert sched.slot.size == sched.fired.size


# -- reference: the id-coded lowering and the per-cycle scans ---------------
# The lowering is a copy of the compiler before programs held integer codes:
# gates were grouped by object identity. Quantized45 slots come from a lexsort
# and free-mode cycles from _ref_free_cycles' scan over the ready qubits. The
# array-native compiler must write the same bytes.

def _ref_gate_codes(rows):
    flat = list(itertools.chain.from_iterable(rows))
    lens = np.fromiter(map(len, rows), np.intp, count=len(rows))
    _, first, flat_codes = np.unique(np.fromiter(map(id, flat), np.uintp, count=len(flat)),
                                     return_index=True, return_inverse=True)
    maxg = int(lens.max(initial=0))
    codes = np.full((len(rows), maxg), len(first), dtype=np.intp)
    codes[np.arange(maxg) < lens[:, None]] = flat_codes
    return [flat[i] for i in first], codes


def _ref_lower_rows(rows, quantized):
    n = len(rows)
    gates, codes = _ref_gate_codes(rows)
    maxg = codes.shape[1]
    table = np.array([_STEPS.get(g.kind, (g.angle_rad, 0, 0.0)) for g in gates]
                     + [(0.0, 0, 0.0)])
    ab = table[:, [0, 2]]
    if quantized:
        units = ab / QUARTER
        off = (np.abs(units - np.rint(units)) > 1e-9).any(axis=1)
        if off.any():
            ang = gates[codes.flat[np.argmax(off[codes])]].angle_rad
            raise CompileError(f"Z angle {ang} rad is not a multiple of pi/4 in quantized mode")
        ab = np.rint(units).astype(np.int64)
    frames = ab[codes].reshape(n, 2 * maxg)
    np.cumsum(frames, axis=1, out=frames)
    n_pulses = table[:, 1].astype(np.intp)[codes]
    lens = n_pulses.sum(axis=1)
    pulse_frames = np.repeat(frames[:, 0::2].ravel(), n_pulses.ravel())
    if quantized:
        pulse_thetas = 45.0 * (pulse_frames % 8)
    else:
        pulse_thetas = np.array([_ref_mod(p, 360.0) for p in np.degrees(pulse_frames).tolist()])
    maxlen = int(lens.max(initial=0))
    thetas = np.zeros((n, maxlen))
    thetas[np.arange(maxlen) < lens[:, None]] = pulse_thetas
    return thetas, lens


def _ref_array_schedule(rows, mode):
    quantized = mode == "quantized45"
    thetas, lens = _ref_lower_rows(rows, quantized)
    n = len(rows)
    if not lens.any():
        return Schedule(np.zeros(0, np.int64), np.zeros(0), np.zeros(1, np.int64),
                        np.zeros(0, np.int64), ScheduleMode(mode), n)
    valid = np.arange(thetas.shape[1]) < lens[:, None]
    if quantized:
        k = (thetas // 45.0).astype(np.int64)
        slots = np.cumsum((np.diff(k, axis=1, prepend=-1) - 1) % 8 + 1, axis=1) - 1
        slot, qubit = slots[valid], np.nonzero(valid)[0]
        order = np.lexsort((qubit, slot))
        slot, qubit = slot[order], qubit[order]
        offsets = np.r_[0, np.flatnonzero(np.diff(slot)) + 1, slot.size]
        slot = slot[offsets[:-1]]
        return Schedule(slot, (slot % 8 * 45).astype(float), offsets, qubit,
                        ScheduleMode(mode), n)
    cycles = _ref_free_cycles([row[:k] for row, k in zip(thetas.tolist(), lens.tolist())])
    offsets = np.r_[0, np.cumsum([len(fire) for _, fire in cycles])]
    return Schedule(np.arange(len(cycles)), np.array([theta for theta, _ in cycles]), offsets,
                    np.array([i for _, fire in cycles for i in fire]), ScheduleMode(mode), n)


_PULSES = {"x90": 1, "x180": 2, "h": 1}


def _bench_rows(rng, frames, n_qubits=500, pulses=100):
    """Rows shaped like the benchmark's compile programs: two thirds pulse
    gates and one third ``frames``, until each row emits ``pulses`` X90s;
    then a few rows cut short, two left empty and one with Z gates only."""
    rows = []
    for _ in range(n_qubits):
        row, left = [], pulses
        while left:
            if rng.random() < 2.0 / 3.0:
                g = list(_PULSES)[rng.integers(3)]
                g = g if _PULSES[g] <= left else "x90"
                row.append(g)
                left -= _PULSES[g]
            else:
                row.append(frames[rng.integers(len(frames))])
        rows.append(row)
    for i in rng.choice(n_qubits, 12, replace=False):
        rows[i] = rows[i][: rng.integers(1, 20)]
    rows[3], rows[n_qubits - 1] = [], []
    rows[7] = [g for g in rows[7] if g not in _PULSES]
    return rows


Q45_FRAMES = ["s", "sdg", "t", "tdg"] + [f"z{45 * k}" for k in range(1, 8)]
# z:1e-10 moves a phase by 5.7e-9 degrees, inside the 1e-6-degree cluster.
FREE_FRAMES = ["s", "sdg", "t", "tdg", "z:1e-10"] + [f"z:{k * math.pi / 8!r}" for k in range(1, 16)]


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_bench_size_schedules_match_reference_bytes(seed):
    rng = np.random.default_rng(seed)
    for frames, modes in ((Q45_FRAMES, ("quantized45", "free")), (FREE_FRAMES, ("free",))):
        rows = _bench_rows(rng, frames)
        gate = {name: Gate.parse(name) for name in set(itertools.chain.from_iterable(rows))}
        gate_rows = [[gate[name] for name in row] for row in rows]
        for mode in modes:
            ref = _ref_array_schedule(gate_rows, mode).to_json()
            for prog in (Program.from_names(rows), Program(gate_rows)):
                sched = schedule(prog, mode)
                assert sched.to_json() == ref and sched.fired.dtype == np.int32


# Where quantized45's narrow types change: slot + 1 reaches 8 * 8191 = 65528
# (16 bits) and 8 * 8192 = 65536 (32 bits) after a z315, qubit counts pass
# 256 and 65536, an int8 frame wraps many times, and empty rows sit among
# full ones.
@pytest.mark.parametrize("rows", [
    [["z315"] + ["x90"] * 8191, ["x90", "t", "x90"]],
    [["z315"] + ["x90"] * 8192, ["x90", "t", "x90"]],
    [["x90"]] * 257,
    [["t", "x90"]] * 65537,
    [["z315"] * 300 + ["x90", "t", "x90", "h", "x180", "sdg", "x90"], ["x90"], ["z45"] * 129],
    [[], ["x90", "s"] * 40, [], [], ["t", "x90", "h"] * 30, [], ["z90"], []],
], ids=["slot16", "slot32", "qubits257", "qubits65537", "frame_wrap", "empty_rows"])
@pytest.mark.parametrize("mode", ["quantized45", "free"])
def test_narrow_schedule_boundaries_match_reference_bytes(rows, mode):
    gate = {name: Gate.parse(name) for name in set(itertools.chain.from_iterable(rows))}
    gate_rows = [[gate[name] for name in row] for row in rows]
    sched = schedule(Program.from_names(rows), mode)
    assert sched.fired.dtype == np.int32
    assert sched.to_json() == _ref_array_schedule(gate_rows, mode).to_json()


# -- replay: quantized45 parallelism with no compiler code -------------------
# Each gate as (frame += a, emit n X90s, frame += b), in units of pi/4.
_REPLAY_STEP = {"x90": (0, 1, 0), "x180": (0, 2, 0), "h": (2, 1, 2), "s": (2, 0, 0),
                "sdg": (-2, 0, 0), "t": (1, 0, 0), "tdg": (-1, 0, 0),
                **{f"z{45 * k}": (k, 0, 0) for k in range(1, 8)}}


def _replay_mean_fired(codes):
    """Mean qubits fired per cycle of the gates ``Q45_NAMES[codes]``: each
    pulse at k * 45 degrees fires in the first rolling slot after its row's
    previous pulse that is k mod 8, and a cycle is a slot that fires any."""
    steps = np.array([_REPLAY_STEP[name] for name in Q45_NAMES])
    a, pulses, b = steps[codes].transpose(2, 0, 1)
    frame = np.zeros(codes.shape[0], np.int64)
    last = np.full(codes.shape[0], -1, np.int64)
    slots = []
    for j in range(codes.shape[1]):
        frame += a[:, j]
        for p in range(pulses.max(initial=0)):
            emit = pulses[:, j] > p
            last[emit] += 1 + (frame[emit] - last[emit] - 1) % 8
            slots.append(last[emit])
        frame += b[:, j]
    counts = np.bincount(np.concatenate(slots))
    return float(np.mean(counts[counts > 0]))


@pytest.mark.parametrize("n, mean_per_qubit", [(1000, 0.130), (10_000, 0.123)])
def test_quantized45_parallelism_of_random_clifford_t_programs(n, mean_per_qubit):
    # 300 gates per qubit drawn uniformly from the Clifford+T and z(k*45)
    # names. The mean counts the drain at the end, when the longest rows run
    # alone, so it lies below n / 8.
    codes = np.random.default_rng(3).choice(len(Q45_NAMES), (n, 300))
    prog = Program.from_names(np.array(Q45_NAMES)[codes].tolist())
    mean_fired = parallelism_stats(schedule(prog)).mean_fired
    assert mean_fired == _replay_mean_fired(codes)
    assert mean_fired / n == pytest.approx(mean_per_qubit, abs=5e-4)


def test_free_schedule_with_a_distinct_phase_per_pulse_matches_reference_bytes():
    # Off-grid frames give almost every pulse its own phase value, so nearly
    # every cycle fires one qubit. Rows 0-9 carry phases 0.5e-6 degrees
    # apart, so each cluster takes in some neighbouring values and not others.
    rng = np.random.default_rng(3)
    rows = [[g for a in rng.uniform(-3.0, 3.0, 60).tolist() for g in (f"z:{a!r}", "x90")]
            for _ in range(200)]
    for i in range(10):
        angles = [math.radians(0.5e-6 * (i + k)) for k in range(20)]
        rows[i] = [g for a in angles for g in (f"z:{a!r}", "x90", f"z:{-a!r}")]
    rows[5] = []
    gate_rows = [[Gate.parse(name) for name in row] for row in rows]
    ref = _ref_array_schedule(gate_rows, "free")
    assert len(ref.slot) > 10_000
    assert schedule(Program.from_names(rows), "free").to_json() == ref.to_json()


def _check_free_cycles(prog, sched):
    """Replay a free schedule: every fired pulse lies within 1e-6 degrees of
    its cycle's theta on the circle, and no two in one cycle lie 1e-6 apart;
    each qubit fires its lowered pulses in program order; each cycle fires
    every ready pulse of one cluster, and no cluster had more ready pulses."""
    lowered = [lower(g, quantized=False).thetas_deg for g in _rows(prog)]
    cluster = _ref_cluster_of(lowered)
    ptr = [0] * len(lowered)
    for c in sched.cycles:
        ready = [i for i, thetas in enumerate(lowered) if ptr[i] < len(thetas)]
        assert set(c.fired) <= set(ready) and len(set(c.fired)) == len(c.fired)
        phases = np.array([lowered[i][ptr[i]] for i in c.fired])
        gap = (phases - c.theta_if_deg + 180.0) % 360.0 - 180.0
        assert np.abs(gap).max() < 1e-6 and gap.max() - gap.min() < 1e-6
        count = collections.Counter(cluster[_ref_wrap(lowered[i][ptr[i]])] for i in ready)
        picked = {cluster[_ref_wrap(p)] for p in phases.tolist()}
        assert len(picked) == 1 and count[picked.pop()] == len(c.fired) == max(count.values())
        for i in c.fired:
            ptr[i] += 1
    assert ptr == [len(thetas) for thetas in lowered]


def test_free_schedule_joins_phases_across_360_degrees():
    # 0, just below 360, a frame of -1e-300 rad (which rounds to 360 and
    # folds to 0) and just above 0 are one phase on the circle; the
    # cluster's lowest value is the one below 360.
    rows = [["x90"], ["z:-1e-15", "x90"], ["z:-1e-300", "x90"], ["z:1e-15", "x90"]]
    prog = Program.from_names(rows)
    assert [lower(g, quantized=False).thetas_deg for g in _rows(prog)] == [
        (0.0,), (359.99999999999994,), (0.0,), (5.729577951308233e-14,)]
    sched = schedule(prog, "free")
    assert sched.cycles == (Cycle(359.99999999999994, (0, 1, 2, 3), 0),)
    _check_free_cycles(prog, sched)


def test_free_schedule_keeps_a_chain_of_close_phases_under_1e_6_degrees():
    # Every row steps its phase 0.5e-6 degrees per pulse, from a different
    # start, so each value chains to its neighbours.
    rows = []
    for i in range(30):
        angles = [math.radians(0.5e-6 * (i + k)) for k in range(12)]
        rows.append([g for a in angles for g in (f"z:{a!r}", "x90", f"z:{-a!r}")])
    prog = Program.from_names(rows)
    sched = schedule(prog, "free")
    _check_free_cycles(prog, sched)
    assert parallelism_stats(sched).max_fired > 1


# Frames at and around 0/360 degrees, on both sides of the wrap.
WRAP_NAMES = EDGE_NAMES + ["z:-1e-15", "z:-1e-8", "z:1.2e-8", "z:-1e-300"]


@given(st.one_of(_programs(FREE_NAMES), _programs(EDGE_NAMES), _programs(WRAP_NAMES)))
@example([["x90"], ["z:-1e-8", "x90"], ["z:1.2e-8", "x90", "x90"]])
@settings(max_examples=200, deadline=None)
def test_free_schedule_fires_one_largest_cluster_per_cycle(rows):
    prog = Program.from_names(rows)
    _check_free_cycles(prog, schedule(prog, "free"))


@given(_programs(WRAP_NAMES))
@example([["z:-1e-300", "x90"], ["z:-1e-300"]])
@settings(max_examples=200, deadline=None)
def test_free_lowering_stays_below_the_modulus(rows):
    # A tiny negative frame rounds up to exactly 360 degrees or 2 pi; it is 0.
    for g in _rows(Program.from_names(rows)):
        lq = lower(g, quantized=False)
        assert all(0.0 <= theta < 360.0 for theta in lq.thetas_deg)
        assert 0.0 <= lq.final_frame_rad < 2.0 * math.pi


@given(st.one_of(_programs(FREE_NAMES), _programs(EDGE_NAMES)))
@settings(max_examples=150, deadline=None)
def test_program_from_names_matches_gate_rows(rows):
    named = Program.from_names(rows)
    built = Program(tuple(tuple(gates(*row)) for row in rows))
    assert named.table == built.table
    assert np.array_equal(named.codes, built.codes) and np.array_equal(named.lens, built.lens)
    assert _rows(named) == _rows(built)
    assert np.array_equal(_ideal_p1(named.table, named.codes),
                          _ideal_p1(built.table, built.codes))
    for mode in ("quantized45", "free"):
        outs = []
        for prog in (named, built):
            try:
                outs.append(([lower(g, mode == "quantized45") for g in _rows(prog)],
                             schedule(prog, mode).to_json()))
            except CompileError as exc:
                outs.append(str(exc))
        assert outs[0] == outs[1]


def _ref_coder(rows, parse):
    """(table, codes, lens) built key by key: distinct keys by dict.fromkeys,
    each parsed, equal gates sharing a code through setdefault."""
    code_of = {}
    code = {key: code_of.setdefault(parse(key), len(code_of))
            for key in dict.fromkeys(itertools.chain.from_iterable(rows))}
    lens = np.array([len(row) for row in rows], np.int64)
    codes = np.full((len(rows), lens.max()), len(code_of), np.min_scalar_type(len(code_of)))
    for i, row in enumerate(rows):
        codes[i, :len(row)] = [code[key] for key in row]
    return tuple(code_of), codes, lens


# Aliases that parse to equal gates: case and blanks, a full turn, and -0.
ALIAS_NAMES = EDGE_NAMES + ["X90", " x90 ", "Z45", "z:0", "z:6.283185307179586", "z:-0.0"]


@given(_programs(ALIAS_NAMES))
@example([[], ["x90", "X90", " x90 "], [], ["z:0", "z:6.283185307179586"]])
@example([["z:-0.0", "z:0", "s"], ["x90"]])
@example([[]])
@settings(max_examples=200, deadline=None)
def test_program_codes_match_reference_coder(rows):
    gate_rows = [[Gate.parse(name) for name in row] for row in rows]
    for prog, ref in ((Program.from_names(rows), _ref_coder(rows, Gate.parse)),
                      (Program(gate_rows), _ref_coder(gate_rows, lambda g: g))):
        table, codes, lens = ref
        assert list(map(repr, prog.table)) == list(map(repr, table))  # -0.0 kept as seen first
        assert prog.codes.dtype == codes.dtype == np.min_scalar_type(len(table))
        assert np.array_equal(prog.codes, codes) and np.array_equal(prog.lens, lens)
        assert prog.lens.dtype == np.int64
        assert all((row[n:] == len(table)).all() for row, n in zip(prog.codes, prog.lens))
        assert not prog.codes.flags.writeable and not prog.lens.flags.writeable


def test_from_names_parses_each_distinct_name_once(monkeypatch):
    parsed = []
    parse = Gate.parse

    def counted(name):
        parsed.append(name)
        return parse(name)

    monkeypatch.setattr(Gate, "parse", staticmethod(counted))
    prog = Program.from_names([["x90", "t", "x90"], [], ["t", "X90", "x90"]] * 100)
    assert parsed == ["x90", "t", "X90"] and len(prog.table) == 2
    # a name that is not a str is refused before any name is parsed
    parsed.clear()
    for rows in ([["bogus", 3]], [["x90", True]], [["bogus", ["x90"]]]):
        with pytest.raises(TypeError):
            Program.from_names(rows)
    assert parsed == []
