"""Benchmark of the betareif pipeline: three seeded workloads, timed end to
end, with an optional traced run for per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every timed call runs in a fresh worker
process, one at a time.  With --trace 0 the run times calls until
--seconds would be exceeded (at least one) and reports the medians of the
call times and of the workers' set-up times.  With --trace 1 one worker
times an untraced and a traced call and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("pack-l2-graph68", "cover-l4-graph21", "flatmap-snowflake-d4")
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 170.0


class ChildResult:
    def __init__(self, spawn_s, code, rss_mb, doc, stderr):
        self.code, self.rss_mb, self.doc, self.stderr = code, rss_mb, doc, stderr
        self.setup_s = self.setup_norm_s = None
        if doc:
            self.setup_s = doc["ready"] - spawn_s
            self.setup_norm_s = probe.normalized(self.setup_s, *doc["setup_probe"],
                                                 probe.PY_NOMINAL_S)


def spawn(workload: str, seed: int, mode: str) -> ChildResult:
    """Run one worker process to completion and collect its peak RSS."""
    out_path = WORK / f"child-{workload}.out"
    err_path = WORK / f"child-{workload}.err"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(WORK)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        deadline = t0 + CHILD_TIMEOUT_S
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, ru = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().strip().splitlines()
    doc = None
    if proc.returncode == 0 and lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            doc = None
    return ChildResult(t0, proc.returncode, ru.ru_maxrss / 1024.0, doc,
                       err_path.read_text()[-2000:])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine(versions) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": versions.get("numpy"), "scipy": versions.get("scipy"),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": git_commit()}


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    calls = []
    while True:
        t0 = time.monotonic()
        calls.append(spawn(workload, seed, "call"))
        cost = time.monotonic() - t0
        if time.monotonic() + cost > start + seconds:
            break
    # every call worker sets up once; top up when too few calls fit
    extra = [spawn(workload, seed, "setup")
             for _ in range(max(0, MIN_SETUPS - len(calls)))]
    children = calls + extra
    setups = [c.setup_norm_s for c in children if c.doc]
    done = [c for c in calls if c.doc]
    walls = [c.doc["wall_norm_s"] for c in done]
    failed = [c for c in calls if not (c.doc and c.doc["ok"])]
    metrics = {}
    if walls:
        metrics["wall_norm_s"] = statistics.median(walls)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if done:
        metrics["peak_rss_mb"] = max(c.rss_mb for c in done)
    return {"metrics": metrics, "walls": walls, "setups": setups,
            "raw_walls": [c.doc["wall_s"] for c in done],
            "raw_setups": [c.setup_s for c in children if c.doc],
            "probe_means": [c.doc["probe_mean_s"] for c in done],
            "attempted": len(calls), "failed": len(failed),
            "problems": [c.doc["problems"] if c.doc else f"exit {c.code}: {c.stderr}"
                         for c in failed],
            "outputs": [{k: c.doc[k] for k in ("sha256", "headline", "versions")}
                        for c in done],
            "setup_failures": sum(1 for c in extra if c.doc is None)}


def run_traced(workload: str, seed: int, names) -> dict:
    c = spawn(workload, seed, "trace")
    if c.doc is None:
        problems = [f"exit {c.code}: {c.stderr}"]
    else:
        problems = c.doc["problems"] + ([] if c.doc["same_output"] else
                                        ["traced and untraced reports differ"])
    metrics = {k: c.doc["metrics"][k] for k in names if k in c.doc["metrics"]} if c.doc else {}
    return {"metrics": metrics, "attempted": 2, "failed": 2 if problems else 0,
            "problems": problems,
            "outputs": [{k: c.doc[k] for k in ("sha256", "headline", "versions",
                                                 "wall_s", "traced_wall_s")}] if c.doc else [],
            "setup_failures": 0}


def metric_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(workload: str, seed: int, trace: int, res: dict, units: dict):
    n, f = res["attempted"], res["failed"]
    print(f"{workload} seed {seed} trace {trace}: {n} call(s), "
          f"failed_ratio {f / n:.3g} ({f}/{n})")
    if not trace:
        for key, samples in (("wall_norm_s", res["walls"]), ("setup_s", res["setups"]),
                             ("raw wall_s", res["raw_walls"]),
                             ("raw setup_s", res["raw_setups"])):
            if samples:
                q1, q2, q3 = quartiles(samples)
                print(f"  {key:<12} {q2:.6f} s  median of {len(samples)} "
                      f"(q1 {q1:.6f}, q3 {q3:.6f})")
        if "peak_rss_mb" in res["metrics"]:
            print(f"  {'peak_rss_mb':<12} {res['metrics']['peak_rss_mb']:.3f} MB")
    else:
        for key, val in res["metrics"].items():
            print(f"  {key:<44} {val:.6g} {units[key]}")
    for p in res["problems"]:
        print(f"  FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "betareif" / "__init__.py").is_file():
        print(f"error: no betareif sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    units = metric_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = (run_traced(name, args.seed, units) if args.trace
               else run_timed(name, args.seed, args.seconds))
        summarize(name, args.seed, args.trace, res, units)
        versions = res["outputs"][0]["versions"] if res["outputs"] else {}
        record = dict(res, workload=name, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, machine=machine(versions))
        print("  machine " + json.dumps(record["machine"], sort_keys=True))
        (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        if any(k not in res["metrics"] for k in units):
            print(f"error: {name} produced no measurement", file=sys.stderr)
            return 1
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["correct"] &= res["failed"] == 0 and res["setup_failures"] == 0
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, val in res["metrics"].items():
            total["metrics"][prefix + key] = {"value": val, "unit": units[key]}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
