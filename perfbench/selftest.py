"""Self-test of the output checks: each must pass on real output and reject
the same output with one value made ``inf`` or one score perturbed.

    python3 perfbench/selftest.py

Runs every workload's commands once on tiny inputs (about half a minute),
checks the real outputs, then corrupts each checked column (and the printed
summaries) in turn and expects :class:`checks.CheckFailed`.  Per-simplex
columns also get two scores of one level swapped, which keeps every total;
fits also get one optimized family moved off its maximum (with lnL, AIC and
BIC recomputed to match) or reported as failed.  Exit code 0 when every
check passed its real output and rejected every corruption.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import sys

import env

if not env.use_sources():
    sys.exit(f"error: no simplicent sources under {env.SRC}")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402

PERTURB = 1e-4  # relative change of one score; counts and levels move by one


def _split(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    head = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    return head, table


def _write(path: str, head: list[str], table: list[list[str]]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(head) + "\n" + buf.getvalue())


def _numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text not in ("NA", "inf")


def corruptions(op_name: str, table: list[list[str]]):
    """(label, corrupted table) pairs: per numeric result column, one cell set
    to inf and the largest-magnitude cell perturbed."""
    header, rows = table[0], table[1:]
    columns = range(3, len(header))
    if op_name.startswith("fit-degree"):
        columns = range(2, 6)  # lnL, AIC, BIC, deltaAIC
    elif op_name == "correlate":
        # node degree against the other rankings: those coefficients are
        # pinned exactly, while near-tied scores leave others a tolerance
        columns = [1]
    for col in columns:
        cells = [i for i, r in enumerate(rows) if _numeric(r[col])]
        if not cells:
            continue
        target = max(cells, key=lambda i: abs(float(rows[i][col])))
        if op_name == "correlate":  # off the unit diagonal
            target = next(i for i in cells if i != col - 1)
        bad = [list(r) for r in rows]
        bad[target][col] = "inf"
        yield f"{header[col]} row {target} = inf", [header] + bad
        bad = [list(r) for r in rows]
        value = float(rows[target][col])
        if op_name.startswith("essential") and header[col] == "count":
            size = 100.0 * value / float(rows[target][4]) if value else None
            bad[target][col] = repr(value + 1)
            if size:  # keep the percentage consistent, so the count check itself must object
                bad[target][4] = repr(100.0 * (value + 1) / size)
        elif header[col] in ("degree", "eccentricity"):
            bad[target][col] = repr(value + 1)
        else:
            bad[target][col] = repr(value * (1 + PERTURB) if value else PERTURB)
        if op_name == "correlate":  # keep the matrix symmetric
            bad[col - 1][target + 1] = bad[target][col]
        yield f"{header[col]} row {target} perturbed", [header] + bad
        if header[:3] == ["level", "id", "vertices"]:
            # the largest score of a level swapped with its smallest
            level = [i for i in cells if rows[i][0] == rows[target][0]]
            other = min(level, key=lambda i: float(rows[i][col]))
            if float(rows[other][col]) != value:
                bad = [list(r) for r in rows]
                bad[target][col], bad[other][col] = rows[other][col], rows[target][col]
                yield f"{header[col]} rows {target} and {other} swapped", [header] + bad


FIT_SCALE = {"gamma": "b", "gen-pareto": "sigma", "gev": "sigma"}


def _fit_sample(op: workloads.Op) -> np.ndarray:
    """The degrees a fit-degree command fits, from its input file and the reference."""
    with open(op.argv[1], encoding="utf-8") as fh:
        edges = np.array([[int(lab[1:]) for lab in line.split()] for line in fh if not line.startswith("#")])
    k = int(op.argv[op.argv.index("--level") + 1])
    return Reference(edges, int(edges.max()) + 1, k).degrees(k).astype(np.float64)


def fit_corruptions(op: workloads.Op, table: list[list[str]]):
    """Per optimized family: its scale moved 1 % off the maximum, with lnL,
    AIC and BIC recomputed at the moved parameters, so that the row agrees
    with itself; and its status set to a failure."""
    header, rows = table[0], table[1:]
    x = _fit_sample(op)
    for i, row in enumerate(rows):
        if row[0] not in FIT_SCALE or row[6] != "ok":
            continue
        params = {kv.split("=")[0]: float(kv.split("=")[1]) for kv in row[1].split()}
        params[FIT_SCALE[row[0]]] *= 1.01
        lnl = checks._loglik_at(row[0], params, x)
        bad = [list(r) for r in rows]
        bad[i][1] = " ".join(f"{key}={value!r}" for key, value in params.items())
        bad[i][2:5] = [repr(lnl), repr(4 - 2 * lnl), repr(2 * math.log(x.size) - 2 * lnl)]
        yield f"{row[0]} off its maximum", [header] + bad
        bad = [list(r) for r in rows]
        bad[i][6] = "optimizer failed"
        yield f"{row[0]} reported failed", [header] + bad


def stdout_corruptions(op_name: str, stdout: str):
    """Corruptions of the summary a command prints: the diameter of the
    first level and the selected degree model."""
    if op_name == "distance":
        yield "diameter + 1", re.sub(r"diameter (\d+)", lambda m: f"diameter {int(m.group(1)) + 1}", stdout, count=1)
    elif op_name.startswith("fit-degree"):
        swap = lambda m: "selection " + ("gamma" if m.group(1) != "gamma" else "normal")  # noqa: E731
        yield "selection label", re.sub(r"selection (\S+)", swap, stdout, count=1)


def main() -> int:
    problems: list[str] = []
    tried = 0
    with env.scratch(f"selftest-{os.getpid()}") as work:
        for name, build in workloads.WORKLOADS.items():
            d = os.path.join(work, name)
            os.makedirs(d)
            wl = build(1, d, size="tiny")
            for op in wl.ops:
                out = os.path.join(d, f"{op.name}.csv")
                rc, _, stdout, stderr = harness.run_op(op, out, None)
                why = harness.check_op(op, out, rc, stdout, stderr)
                if why:
                    problems.append(f"{name}/{op.name}: real output rejected: {why}")
                    continue
                head, table = _split(out)
                cases = [(label, bad, stdout) for label, bad in corruptions(op.name, table)]
                if op.name.startswith("fit-degree"):
                    cases += [(label, bad, stdout) for label, bad in fit_corruptions(op, table)]
                cases += [(label, table, bad) for label, bad in stdout_corruptions(op.name, stdout)]
                for label, bad_table, bad_stdout in cases:
                    tried += 1
                    path = out + ".bad"
                    _write(path, head, bad_table)
                    try:
                        op.check(path, bad_stdout)
                    except checks.CheckFailed:
                        continue
                    problems.append(f"{name}/{op.name}: accepted {label}")
    for line in problems:
        print(f"FAIL {line}")
    print(f"selftest: {tried} corrupted outputs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
