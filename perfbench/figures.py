"""Reference figures for the README, measured on the machine it runs on.

    python3 perfbench/figures.py

Prints three figures that the benchmark's metrics leave out on purpose:

* cold start: seconds for a fresh interpreter to ``import simplicent.cli``;
* ``--threads 1`` against ``--threads 2`` on the paths-ba commands (seed
  ``SEED``, ``ROUNDS`` rounds each), rounds alternating in one process so
  that machine drift hits both alike;
* tracing overhead: paths-ba rounds with the per-layer spans recording
  against rounds with them idle, alternating likewise.

Takes a little over a minute.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import env

if not env.use_sources():
    sys.exit(f"error: no simplicent sources under {env.SRC}")

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ROUNDS = 4


def cold_import(times: int = 3) -> list[float]:
    code = "import time; t = time.perf_counter(); import simplicent.cli; print(time.perf_counter() - t)"
    child_env = dict(os.environ, PYTHONPATH=env.SRC)
    return [
        float(subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True, check=True).stdout)
        for _ in range(times)
    ]


def with_threads(wl: workloads.Workload, threads: int) -> workloads.Workload:
    ops = [
        workloads.Op(op.name, [str(threads) if prev == "--threads" else a for prev, a in zip([""] + op.argv, op.argv)],
                     op.check)
        for op in wl.ops
    ]
    return workloads.Workload(wl.inputs, ops)


def main() -> int:
    cold = cold_import()
    print(f"cold import simplicent.cli: {', '.join(f'{t:.2f}' for t in cold)} s")

    with env.scratch(f"figures-{os.getpid()}") as work:
        os.makedirs(os.path.join(work, "inputs"))
        wl = workloads.paths_ba(SEED, os.path.join(work, "inputs"))
        variants = {1: with_threads(wl, 1), 2: with_threads(wl, 2)}
        harness.run_round(wl, os.path.join(work, "warm"), None)
        walls: dict[object, list[float]] = {1: [], 2: [], "traced": [], "idle": []}
        for i in range(ROUNDS):
            for threads, variant in variants.items():
                walls[threads].append(harness.run_round(variant, os.path.join(work, f"t{threads}-{i}"), None)[0])
        tracer = spans.Tracer()
        spans.install(tracer)
        for i in range(ROUNDS):
            walls["idle"].append(harness.run_round(wl, os.path.join(work, f"idle-{i}"), tracer)[0])
            tracer.begin_round()
            walls["traced"].append(harness.run_round(wl, os.path.join(work, f"traced-{i}"), tracer)[0])
            tracer.end_round()
    for key, label in ((1, "--threads 1"), (2, "--threads 2"), ("idle", "spans idle"), ("traced", "spans recording")):
        values = ", ".join(f"{w:.3f}" for w in walls[key])
        print(f"paths-ba seed {SEED} {label}: median {statistics.median(walls[key]):.3f} s  [{values}]")
    return 0


if __name__ == "__main__":
    started = time.time()
    code = main()
    print(f"({time.time() - started:.0f} s)")
    sys.exit(code)
