"""One benchmark process: set up a workload's inputs, then optionally time
one call and check its output.

    python3 perfbench/worker.py <workload> <seed> <setup|call|trace> <workdir>

Prints one JSON line.  `ready` is the CLOCK_MONOTONIC time at which the
inputs were ready, so the parent can measure set-up from its own spawn
time; `setup_probe` is what the host-speed probe (probe.py) saw until then.
`call` adds the call's wall time, probed and normalized, and the output
check; `trace` times an untraced call and then a traced one, unprobed, and
adds the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

SETUP_PROBE = probe.python_probe()
if __name__ == "__main__":
    SETUP_PROBE.start()   # set-up time covers the imports below

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from betareif import cli, cover  # noqa: E402
from betareif.report import emit_report  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tr  # noqa: E402

PACK_ARGS = ["--k", "2", "--M", "0.01", "--chi", "0.1", "--delta", "0.1",
             "--max-depth", "3", "--budget", "2"]
COVER_ARGS = ["--k", "2", "--chi", "0.1", "--delta", "0.15", "--max-depth", "2"]
L2_CLUSTERS = 22     # 68 atoms
L4_CLUSTERS = 7      # 21 atoms
FLATMAP_KW = dict(chi=1 / 3, delta=0.2, max_depth=7, pair_count=120)


def set_up(workload: str, seed: int, work: Path):
    """Inputs of one run: a callable doing the timed work, returning
    (exit code, report bytes)."""
    if workload == "flatmap-snowflake-d4":
        space, S = inputs.snowflake_sample(seed)

        def call():
            _stages, rep = cover.reifenberg_flat_map(space, S, 1, **FLATMAP_KW)
            return 0, rep
        return call
    if workload == "pack-l2-graph68":
        space, mu = inputs.l2_graph(seed, L2_CLUSTERS)
        argv = ["pack", None] + PACK_ARGS
    else:
        space, mu = inputs.l4_graph(seed, L4_CLUSTERS)
        argv = ["cover", None] + COVER_ARGS
    src = work / f"{workload}-seed{seed}.json"
    out = work / f"{workload}-seed{seed}.report.json"
    src.write_text(json.dumps(mu.to_json(space)))
    argv[1] = str(src)

    def call():
        code = cli.run(argv + ["--out", str(out)])
        return code, out
    return call


def finish(workload: str, seed: int, code, out) -> dict:
    """Output check of one call, after timing."""
    if isinstance(out, Path):
        data = out.read_bytes()
    else:
        data = emit_report(out, "json")
    doc = json.loads(data)
    problems = checks.check(workload, seed, code, doc)
    return {"ok": not problems, "problems": problems,
            "sha256": hashlib.sha256(data).hexdigest(),
            "headline": checks.headline(workload, doc)}


def timed(call):
    t0 = time.perf_counter()
    code, out = call()
    return time.perf_counter() - t0, code, out


def main(argv):
    workload, seed, mode, work = argv[0], int(argv[1]), argv[2], Path(argv[3])
    tracer = None
    if mode == "trace":
        tracer = tr.Tracer()
        tr.install(tracer)
    call = set_up(workload, seed, work)
    ready = time.monotonic()
    result = {"ready": ready, "setup_probe": SETUP_PROBE.stop(),
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    if mode == "call":
        call_probe = probe.numpy_probe()
        call_probe.start()
        wall, code, out = timed(call)
        spent, mean = call_probe.stop()
        result.update(wall_s=wall - spent, probe_mean_s=mean,
                      wall_norm_s=probe.normalized(wall, spent, mean, call_probe.nominal_s),
                      **finish(workload, seed, code, out))
    elif mode == "trace":
        tracer.uninstall()
        wall_u, code, out = timed(call)
        untraced = finish(workload, seed, code, out)
        tr.install(tracer)
        tracer.run_id = 1
        cpu0 = os.times()
        with tr.capture_cap_hits(tracer):
            root = tracer.open(tr.ROOT)
            wall_t, code, out = timed(call)
            tracer.close(root)
        cpu1 = os.times()
        tracer.uninstall()
        traced = finish(workload, seed, code, out)
        metrics = tr.layer_metrics(tracer, 1, wall_t)
        metrics["trace.overhead_ratio"] = wall_t / wall_u
        cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        metrics["process.cpu_per_wall"] = cpu / wall_t
        tracer.dump(work / f"spans-{workload}-seed{seed}.npz")
        result.update(wall_s=wall_u, traced_wall_s=wall_t, metrics=metrics,
                      ok=untraced["ok"] and traced["ok"],
                      problems=untraced["problems"] + traced["problems"],
                      sha256=traced["sha256"], headline=traced["headline"],
                      same_output=untraced["sha256"] == traced["sha256"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
