"""qcvz benchmark: three closed-loop workloads, one worker process each.

    python3 bench/run.py --workload bringup|compile|cable --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S    # every workload, by name

Run from the repository root; the package is imported from ``src/``.
Prints every metric by name with its unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--trace 0`` gives
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
See README.md for why each workload and metric is there.

Every file it writes stays under ``.bench_work/`` in the working directory.
It changes no machine setting: no CPU pinning, frequency or cache control,
so figures carry the host's noise.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import monotonic

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # fresh processes that time the import
TIME_LIMIT_S = 170.0  # the whole run, probes included
# Op times are reported at this reference speed: seconds on a host that runs
# worker.reference_s in exactly 10 ms (an idle 2-vCPU Intel Xeon VM takes 10-12 ms).
REF_S = 0.010
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
STAGES = {  # stage1_p50_s / stage2_p50_s under their per-workload names
    "bringup": ("short_pulse_p50_s", "sweep_p50_s"),
    "compile": ("q45_p50_s", "free_p50_s"),
    "cable": ("load_p50_s", "execute_p50_s"),
}


def worker_env(root: Path, work: Path) -> dict:
    """Environment of every worker: one BLAS/OpenMP thread, fixed hash seed,
    and bytecode cached under .bench_work so each timed import reads the
    same warm cache on every commit."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 root: Path, deadline: float) -> dict:
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    env = worker_env(root, work)
    worker = [sys.executable, str(HERE / "worker.py")]
    # The first import fills the bytecode cache and is not timed.
    setup = []
    for k in range(SETUP_PROBES + 1):
        proc = _run(worker + ["--probe"], env, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        if k:
            setup.append(json.loads(proc.stdout))
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        result_path = tmp / "result.json"
        run_dir = tmp / "ops"
        run_dir.mkdir()
        proc = _run(worker + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace),
                              "--work", str(run_dir), "--result", str(result_path),
                              "--spans", str(work / f"trace-{workload}-seed{seed}.jsonl")],
                    env, deadline)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["setup"] = setup
    return res


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    xs = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, xs[min(len(xs) - 1, int(len(xs) * p / 100))]
    return None, None


def report(workload: str, seed: int, seconds: float, trace: int, res: dict, spec: dict) -> dict:
    ops = res["ops"]
    good = [r for r in ops if not r.get("errors")]
    bare = [r for r in good if not r["traced"]]
    failed = [r for r in ops if r.get("errors")]
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
          "closed loop, 1 worker process, 1 client")
    print(f"env python {platform.python_version()}  cpus {os.cpu_count()}  "
          f"{'/'.join(THREAD_VARS)}=1  bytecode cached in .bench_work/pycache, "
          "warmed before the timed imports  machine settings unchanged (noise not controlled)")
    print(f"inputs {res['inputs']} files over {len(ops)} ops, sizes {res['sizes']}, "
          f"repeated-input share {res['repeated_input_share']:.3f}")
    for r in failed:
        print(f"FAILED op {r['op']}: {'; '.join(r['errors'][:3])}")
    print(f"fail_frac {len(failed) / max(1, len(ops)):.4f}  ({len(failed)}/{len(ops)} ops)")
    if not bare and not trace:
        raise RuntimeError("no op completed")

    if trace:
        layers = res.get("layers", {})
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, v in sorted(metrics.items()):
            print(f"  {name:52s} {v['value']:.6g} {v['unit']}")
        nan = float("nan")
        untraced = median(r["op_s"] for r in bare) if bare else nan
        traced = layers.get("trace.op_wall_s", nan)
        unattributed = layers.get("trace.unattributed_s", nan)
        estimate = layers.get("trace.overhead_est_s", nan)
        print(f"tracing overhead: traced op p50 {traced:.4f} s - bare op p50 {untraced:.4f} s "
              f"= {traced - untraced:+.4f} s; spans x span cost = {estimate:.4f} s")
        print(f"layer self times sum to the traced op's wall time within {unattributed:.5f} s, "
              f"{'within' if unattributed <= estimate else 'OVER'} the span-cost overhead")
        return metrics

    def at_ref(key):
        return [r[key] * REF_S / r["ref_s"] for r in bare]

    op_s = at_ref("op_s")
    values = {
        "setup_s": median(p["setup_s"] * REF_S / p["ref_s"] for p in res["setup"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_s": median(op_s),
        "stage1_p50_s": median(at_ref("stage1_s")),
        "stage2_p50_s": median(at_ref("stage2_s")),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    s1, s2 = STAGES[workload]
    alias = {"stage1_p50_s": s1, "stage2_p50_s": s2}
    for k, v in metrics.items():
        label = f"{k} ({alias[k]})" if k in alias else k
        print(f"  {label:40s} {v['value']:.6g} {v['unit']}")
    p, t = tail(op_s)
    print(f"  {'op_tail_s':40s} " + (f"{t:.6g} s (p{p} of {len(op_s)} ops)" if p else
          f"n/a: {len(op_s)} ops leave fewer than 10 beyond the median"))
    print(f"  times above are at the reference speed ({REF_S * 1e3:.0f} ms kernel); as timed: "
          f"setup p50 {median(p['setup_s'] for p in res['setup']):.4f} s, "
          f"op p50 {median(r['op_s'] for r in bare):.4f} s, "
          f"kernel p50 {median(r['ref_s'] for r in bare) * 1e3:.2f} ms")
    if workload == "cable":
        print(f"  p1_err_max {max(r['p1_err'] for r in good):.4e}  "
              "(criterion 4 asks < 1e-3)")
    return metrics


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "qcvz" / "__init__.py").is_file():
        print("bench: src/qcvz not found; run from the repository root", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        for w in workloads:
            res = run_workload(w, args.seed, seconds, args.trace, root, monotonic() + TIME_LIMIT_S)
            report(w, args.seed, seconds, args.trace, res, spec)
            print()
        return 0
    res = run_workload(args.workload, args.seed, seconds, args.trace, root,
                       monotonic() + TIME_LIMIT_S)
    metrics = report(args.workload, args.seed, seconds, args.trace, res, spec)
    failed = sum(1 for r in res["ops"] if r.get("errors"))
    print(json.dumps({"correct": failed == 0, "attempted": len(res["ops"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
