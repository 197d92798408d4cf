"""Outside-in layer spans for the traced run.

``Tracer.install`` replaces every public qcvz function with a timing
wrapper wherever a layer module binds it (``qcvz.qubit.evolve``,
``qcvz.cli.schedule``, ``qcvz.experiments.baseband_output``, ...), so calls
between layers are seen without touching the package. Spans (id, parent,
name, start, end, op) stay in memory until the run ends. Arguments and
results of the few functions whose counts are derived (``COUNTERS``) are
kept until the op finishes and read outside the timed region.
"""
from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("signals", "demux", "mixer", "qubit", "calibration",
          "compiler", "experiments", "cli")
ROOT = "bench.op"


def _evolve(a, out):
    return {"steps": max(1, round(a["drive"].duration_s / a["dt_s"]))}


def _schedule(a, out):
    cycles = out.cycles
    return {"cycles": len(cycles), "pulses": sum(len(c.fired) for c in cycles),
            "slots": cycles[-1].slot + 1 if cycles else 0}


def _run_experiment(a, out):
    kind = str(getattr(a["kind"], "value", a["kind"]))
    grid = a.get("dtheta_deg") if kind == "vz_ramsey" else a.get("delays_s")
    return {"kind": kind, "points": len(grid)}


COUNTERS = {
    "qubit.evolve": _evolve,
    "mixer.baseband_output": lambda a, out: {"samples": len(out.samples)},
    "demux.demux": lambda a, out: {"gain_evals": len(a["resonators"]) * len(a["lo"].tones)},
    "compiler.schedule": _schedule,
    "qubit.fit_curve": lambda a, out: {"residual": out.residual},
    "experiments.run_experiment": _run_experiment,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, t0, t1, op, counts]
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._saved: list[tuple] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self._stack, self._pending
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, self.op, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if counter:
                pending.append((rec, counter, sig, args, kwargs, out))
            return out

        return wrapper

    def install(self, modules) -> None:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("qcvz.")):
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def run_op(self, op: int, fn, *args):
        """Run ``fn`` under a root span; counts are read after it ends."""
        self.op = op
        rec = [len(self.spans), None, ROOT, 0.0, 0.0, op, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            for span, counter, sig, a, kw, out in self._pending:
                span[6] = counter(sig.bind(*a, **kw).arguments, out)
            self._pending.clear()

    def write(self, path) -> None:
        """One JSON array per span after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "op", "counts"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Cost of one span: a wrapped empty call minus a bare one."""
    def noop():
        pass

    wrapped = Tracer()._wrap("bench.noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - t1) - (t1 - t0)) / calls


def op_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced op from its spans."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]

    def dur(s):
        return s[4] - s[3]

    def self_time(s):
        return dur(s) - child_time[s[0]]

    def under(s, name):
        """Nearest enclosing span called ``name``, or None."""
        while s[1] is not None:
            s = by_id[s[1]]
            if s[2] == name:
                return s
        return None

    m: dict[str, float] = defaultdict(float)
    m["trace.spans"] = len(spans)
    for s in spans:
        name, counts = s[2], s[6] or {}
        m[f"{name}.calls"] += 1
        m[f"{name}.s"] += dur(s)
        m[f"{name}.self_s"] += self_time(s)
        m[f"{name.partition('.')[0]}.self_s"] += self_time(s)
        if name == "qubit.evolve":
            m["qubit.evolve.steps"] += counts["steps"]
            if under(s, "calibration.calibrate_pulse"):
                m["calibration.calibrate_pulse.evolves"] += 1
            if under(s, "experiments.run_experiment"):
                m["experiments.run_experiment.evolves"] += 1
        elif name == "mixer.baseband_output":
            m["mixer.baseband_output.samples"] += counts["samples"]
        elif name == "demux.demux":
            m["demux.gain_evals"] += counts["gain_evals"]
        elif name == "compiler.schedule":
            for key in ("cycles", "pulses", "slots"):
                m[f"compiler.schedule.{key}"] += counts[key]
        elif name == "qubit.fit_curve":
            m["qubit.fit_curve.residual_max"] = max(m["qubit.fit_curve.residual_max"],
                                                    counts["residual"])
        elif name == "experiments.run_experiment":
            m[f"experiments.run_experiment.{counts['kind']}.s"] += dur(s)
            m["experiments.run_experiment.points"] += counts["points"]
    return m


def summarize(per_op: list[dict], op_wall: list[float]) -> dict:
    """Median over traced ops of each per-layer metric, plus derived ratios."""
    keys = set().union(*per_op) if per_op else set()
    out = {k: (max if k.endswith("_max") else median)(d.get(k, 0.0) for d in per_op)
           for k in keys}

    def ratio(num, den):
        vals = [d.get(num, 0.0) / d[den] for d in per_op if d.get(den)]
        return median(vals) if vals else 0.0

    out["qubit.evolve.us_per_step"] = 1e6 * ratio("qubit.evolve.s", "qubit.evolve.steps")
    out["calibration.calibrate_pulse.evolve_per_call"] = ratio(
        "calibration.calibrate_pulse.evolves", "calibration.calibrate_pulse.calls")
    out["experiments.run_experiment.evolve_per_point"] = ratio(
        "experiments.run_experiment.evolves", "experiments.run_experiment.points")
    out["compiler.schedule.slot_use"] = ratio("compiler.schedule.cycles", "compiler.schedule.slots")
    if per_op:
        # Wall time of the op not covered by any layer's self time: the
        # benchmark's own glue plus the wrappers' cost between spans.
        out["trace.unattributed_s"] = median(d.get(f"{ROOT}.self_s", 0.0) for d in per_op)
        out["trace.layer_self_sum_s"] = median(
            sum(d.get(f"{layer}.self_s", 0.0) for layer in LAYERS) for d in per_op)
        out["trace.op_wall_s"] = median(op_wall)
    return out
