"""Benchmark of the ``simplicent`` CLI on three seeded workloads.

    python3 perfbench/run.py --workload paths-ba --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` in that checkout, nothing is installed.  One process runs one
workload.  It writes the seeded inputs, times ``setup_s`` (parse and lift of
every input), runs one untimed round to warm up, then runs whole rounds of
the workload's CLI commands in-process through ``simplicent.cli.main`` until
``--seconds`` have passed.  Only after the rounds does it build the
independent references and check every output of every round.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from the median round with ``--trace 1``).  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import env


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not env.use_sources():
        print(f"error: no simplicent sources under {env.SRC}; run from a source checkout", file=sys.stderr)
        return 2

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with env.scratch(str(os.getpid())) as work:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
