"""Timing, tracing and checking of one workload run (see ``run.py``)."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import statistics
import sys
import time
import traceback

from simplicent import cli
from simplicent.complexes import build_clique_complex, parse_edge_list

import checks
import spans
import workloads

# set-up of the small inputs takes milliseconds: repeat it for two seconds
SETUP_MIN_SECONDS = 2.0
SETUP_MIN_REPS = 3


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _setup_once(inputs: list[tuple[str, int]]) -> float:
    """Seconds to parse and lift every input, as each CLI command does."""
    start = time.perf_counter()
    for path, max_level in inputs:
        with open(path, encoding="utf-8") as fh:
            graph, _ = parse_edge_list(fh)
        build_clique_complex(graph, max_level)
    return time.perf_counter() - start


def measure_setup(inputs: list[tuple[str, int]]) -> float:
    """Median set-up time over repetitions filling at least two seconds."""
    _setup_once(inputs)  # warm
    gc.collect()
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        times.append(_setup_once(inputs))
    return statistics.median(times)


def run_op(op: workloads.Op, out: str, tracer: spans.Tracer | None) -> tuple[object, float, str, str]:
    """One CLI invocation; returns (exit code, seconds, stdout, stderr)."""
    argv = op.argv + ["-o", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = tracer.main(cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            rc = "crash"
            traceback.print_exc()
    return rc, time.perf_counter() - start, stdout.getvalue(), stderr.getvalue()


def run_round(wl: workloads.Workload, d: str, tracer: spans.Tracer | None) -> tuple[float, list]:
    os.makedirs(d)
    gc.collect()
    results = []
    for op in wl.ops:
        out = os.path.join(d, f"{op.name}.csv")
        rc, seconds, stdout, stderr = run_op(op, out, tracer)
        results.append((op, out, rc, seconds, stdout, stderr))
    return sum(r[3] for r in results), results


def check_op(op: workloads.Op, out: str, rc, stdout: str, stderr: str) -> str:
    """Empty string when the operation succeeded, else why it failed."""
    if rc != 0:
        return f"exit {rc}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
    try:
        op.check(out, stdout)
    except checks.CheckFailed as exc:
        return f"check: {exc}"
    except Exception as exc:  # malformed output: a label, cell or row the check cannot read
        return f"check: {type(exc).__name__}: {exc}"
    return ""


def run(name: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    build = workloads.WORKLOADS[name]
    os.makedirs(os.path.join(work, "inputs"))
    wl = build(seed, os.path.join(work, "inputs"))
    metrics: dict[str, dict] = {}
    if not traced:
        setup = measure_setup(wl.inputs)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        _log(f"{name} seed {seed}: setup {setup:.4f} s")

    # one untimed round first: lazy imports, first calls, the allocator's
    # arenas and the BLAS thread pool (slow to start once scipy's own BLAS is
    # loaded) are warm when timing starts; small inputs warm too little
    run_round(wl, os.path.join(work, "warm"), None)

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    rounds = []
    layers = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer:
            tracer.begin_round()
        wall, results = run_round(wl, os.path.join(work, f"round{len(rounds)}"), tracer)
        if tracer:
            layers.append(tracer.end_round())
        rounds.append((wall, results))
        _log(f"round {len(rounds)}: {wall:.3f} s  " + "  ".join(f"{r[0].name} {r[3]:.3f}" for r in results))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    correct = True
    reasons: dict[str, str] = {}
    for _, results in rounds:
        for op, out, rc, _, stdout, stderr in results:
            attempted += 1
            why = check_op(op, out, rc, stdout, stderr)
            if why:
                failed += 1
                if not op.known_fault:
                    correct = False
                reasons.setdefault(op.name, why)
    for op_name, why in reasons.items():
        _log(f"FAILED {op_name}: {why}")

    if traced:
        by_wall = sorted(layers, key=lambda lay: lay["cli.wall_s"])
        median_round = by_wall[(len(by_wall) - 1) // 2]  # a whole round, so its layers add up
        for key, value in median_round.items():
            unit = "s" if key.endswith("_s") else "count"
            metrics[key] = {"value": value, "unit": unit}
    else:
        metrics["wall_s"] = {"value": statistics.median(w for w, _ in rounds), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
