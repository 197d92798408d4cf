"""One worker process running one workload as a closed loop with one client.

Started by run.py, never imported. It times ``import qcvz`` and
``qcvz.cli`` first, before anything else loads numpy, then runs ops back to
back until ``--seconds`` have passed: each op's inputs are generated and
written, the op is timed, its outputs are checked, and its files removed.
With ``--trace 1`` every second op runs under the span wrappers and the
others run bare, so the traced and untraced op times come from one process.
Before each op and after the last one it times ``reference_s``, so each op
carries the host's speed at that moment. The result goes to ``--result`` as
JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true", help="only time the import")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", help="working directory for this run's op files")
    ap.add_argument("--result", help="where to write the result JSON")
    ap.add_argument("--spans", help="where the traced run writes its spans (JSON lines)")
    args = ap.parse_args()

    t0 = perf_counter()
    import qcvz  # noqa: F401
    import qcvz.cli  # noqa: F401
    setup_s = perf_counter() - t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
        return 0
    result = run_loop(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def reference_s(repeats: int = 5) -> float:
    """Median time of a fixed kernel that uses no qcvz code: small complex
    matrix products in a Python loop, as in the RK4 propagator, then object
    and JSON churn, as in the CLI. About 10 ms on an idle 2-vCPU Intel Xeon VM."""
    from statistics import median

    import numpy as np

    m = np.full((4, 4), 0.25)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        v = np.ones(4, dtype=complex)
        for _ in range(2000):
            v = m @ v + 0.5
        rows = [{"k": i % 97, "v": float(i)} for i in range(5000)]
        json.loads(json.dumps(rows))
        times.append(perf_counter() - t0)
    return median(times)


def run_loop(args) -> dict:
    import importlib
    import resource
    import shutil
    import traceback
    from pathlib import Path

    import inputs
    import spans
    import workloads

    prepare, run, check = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    layer_modules = [importlib.import_module(f"qcvz.{name}") for name in spans.LAYERS]
    work = Path(args.work)
    seen: set[str] = set()
    n_inputs = repeated = 0
    ops, traced_metrics, refs = [], [], []
    sizes = None
    start = perf_counter()
    i = 0
    while perf_counter() - start < args.seconds:
        refs.append(reference_s())
        d = work / f"op{i}"
        d.mkdir()
        inp = prepare(inputs.op_rng(args.seed, args.workload, i), d)
        sizes = inp["sizes"]
        for digest in inp["digests"]:
            n_inputs += 1
            repeated += digest in seen
            seen.add(digest)
        traced = tracer is not None and i % 2 == 1
        rec = {"op": i, "traced": traced}
        try:
            t0 = perf_counter()
            if traced:
                tracer.install(layer_modules)
                try:
                    stages = tracer.run_op(i, run, inp)
                finally:
                    tracer.uninstall()
            else:
                stages = run(inp)
            rec["op_s"] = perf_counter() - t0
            rec["stage1_s"], rec["stage2_s"] = stages
            rec["errors"], extra = check(inp)
            rec.update(extra)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            traceback.print_exc(file=sys.stderr)
            rec["errors"] = [f"{type(exc).__name__}: {exc}"]
        if traced and not rec["errors"]:
            m = spans.op_metrics([s for s in tracer.spans if s[5] == i])
            m["cli.artifact_bytes"] = rec["artifact_bytes"]
            m["experiments.simulate_schedule.p1_err_max"] = rec.get("p1_err", 0.0)
            traced_metrics.append(m)
        shutil.rmtree(d)
        ops.append(rec)
        i += 1
    refs.append(reference_s())
    for k, rec in enumerate(ops):
        rec["ref_s"] = 0.5 * (refs[k] + refs[k + 1])

    out = {
        "ops": ops,
        "sizes": sizes,
        "inputs": n_inputs,
        "repeated_input_share": repeated / n_inputs if n_inputs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        wall = [r["op_s"] for r in ops if r["traced"] and not r["errors"]]
        layers = out["layers"] = spans.summarize(traced_metrics, wall)
        cost = spans.span_cost_s()
        layers["trace.span_cost_us"] = 1e6 * cost
        layers["trace.overhead_est_s"] = layers.get("trace.spans", 0.0) * cost
        tracer.write(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
