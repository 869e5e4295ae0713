"""The three workloads: their inputs, their CLI operations and the checks.

Each workload function writes its seeded inputs into a directory and returns a
:class:`Workload`: the edge lists with the deepest level any command lifts
them to (for ``setup_s``), and the operations of one round.  Each operation
is one ``simplicent`` invocation; its check reads the output file and the
captured stdout.  The reference for the checks is built on first use, after
the timed rounds, so its cost and memory stay out of every end-to-end metric.
paths-ba alone builds small references before the rounds, to draw its graph
(see ``PATHS_WORK``); those load no module that the library does not load.

``size="full"`` is the benchmarked size; ``size="tiny"`` runs the same
commands on small inputs for the self-test.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen
from reference import Reference


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str, str], None]  # (output path, stdout); raises CheckFailed
    known_fault: str = ""  # why this operation fails today, if it does


@dataclass
class Workload:
    inputs: list[tuple[str, int]]  # (edge-list path, max level lifted)
    ops: list[Op]


def _cli(command: str, path: str, *args: str) -> list[str]:
    return [command, path, "--threads", "1", *args]


# Work window for paths-ba: sum over levels 0..2 of n_k * (n_k + nnz_k), the
# cost of one per-source traversal sweep.  BA graphs of one size spread about
# +-10% on it across seeds; drawing until a graph lands in the window keeps
# different seeds within a few percent of the same work.
PATHS_WORK = {"full": (1.56e6, 1.62e6), "tiny": (0.0, float("inf"))}


def _traversal_work(ref: Reference) -> float:
    return float(sum(ref.count(k) * (ref.count(k) + ref.adjacency(k).nnz) for k in range(3)))


def paths_ba(seed: int, d: str, size: str = "full") -> Workload:
    n = {"full": 100, "tiny": 40}[size]
    rng = np.random.default_rng([seed, 1])
    lo, hi = PATHS_WORK[size]
    while True:
        edges = gen.barabasi_albert(n, 3, rng)
        if lo <= _traversal_work(Reference(edges, n, 3)) <= hi:
            break
    flags = gen.essential_flags(edges, n, 0.2, rng)
    graph, ann = os.path.join(d, "ba.txt"), os.path.join(d, "ba-essential.txt")
    gen.write_edges(graph, edges, rng, f"Barabasi-Albert n={n} m=3 seed={seed}")
    gen.write_annotations(ann, flags)
    ref = functools.cache(lambda: Reference(edges, n, 3))
    levels = [0, 1, 2]
    return Workload(
        [(graph, 3)],
        [
            Op("distance", _cli("distance", graph, "--level", "0,1,2"),
               lambda out, stdout: checks.check_distance(ref(), out, stdout, levels)),
            Op("centrality-paths",
               _cli("centrality", graph, "--measure", "closeness,harmonic,betweenness", "--level", "0,1,2"),
               lambda out, _: checks.check_centrality(ref(), out, levels, ["closeness", "harmonic", "betweenness"])),
            Op("essential", _cli("essential", graph, "--annotations", ann, "--seed", str(seed)),
               lambda out, _: checks.check_essential(ref(), out, graph, flags, levels,
                                                     ["degree", "closeness", "subgraph"])),
        ],
    )


STAR_LEAVES = {"full": 800, "tiny": 40}
SUBGRAPH_OVERFLOW = (
    "subgraph_centrality exponentiates lambda_1 = 799 directly; np.exp overflows "
    "and the CLI writes inf scores with exit 0"
)


def spectral_er(seed: int, d: str, size: str = "full") -> Workload:
    n, m = {"full": (300, 2000), "tiny": (60, 300)}[size]
    rng = np.random.default_rng([seed, 2])
    edges = gen.erdos_renyi(n, m, rng)
    n = int(edges.max()) + 1
    leaves = STAR_LEAVES[size]
    star = gen.star(leaves)
    graph, star_path = os.path.join(d, "er.txt"), os.path.join(d, "star.txt")
    gen.write_edges(graph, edges, rng, f"Erdos-Renyi G(n, M) M={m} seed={seed}")
    # the same star on every seed: its failure must not depend on the seed
    gen.write_edges(star_path, star, np.random.default_rng(0), f"S({leaves},1)")
    ref = functools.cache(lambda: Reference(edges, n, 3))
    star_ref = functools.cache(lambda: Reference(star, leaves + 1, 2))
    levels = [0, 1, 2]
    spectral = ["degree", "katz", "eigenvector", "subgraph"]
    return Workload(
        [(graph, 3), (star_path, 3)],
        [
            Op("centrality-spectral", _cli("centrality", graph, "--measure", ",".join(spectral), "--level", "0,1,2"),
               lambda out, _: checks.check_centrality(ref(), out, levels, spectral)),
            Op("correlate", _cli("correlate", graph, "--measure", "degree,eigenvector,subgraph"),
               lambda out, _: checks.check_correlate(ref(), out, levels, ["degree", "eigenvector", "subgraph"])),
            # a dense limit below the level-1 size sends Katz and eigenvector
            # centrality down the sparse spsolve/eigsh branch
            Op("centrality-sparse",
               _cli("centrality", graph, "--level", "1", "--measure", "katz,eigenvector", "--dense-limit", str(m // 2)),
               lambda out, _: checks.check_centrality(ref(), out, [1], ["katz", "eigenvector"])),
            Op("subgraph-star", _cli("centrality", star_path, "--level", "1", "--measure", "subgraph"),
               lambda out, _: checks.check_centrality(star_ref(), out, [1], ["subgraph"]),
               known_fault=SUBGRAPH_OVERFLOW if size == "full" else ""),
        ],
    )


def lift_ppi(seed: int, d: str, size: str = "full") -> Workload:
    n, per_size = {"full": (3000, 35), "tiny": (200, 1)}[size]
    rng = np.random.default_rng([seed, 3])
    backbone = gen.barabasi_albert(n, 4, rng)
    edges = gen.planted_complexes(backbone, n, [s for s in range(4, 11) for _ in range(per_size)], rng)
    graph = os.path.join(d, "ppi.txt")
    gen.write_edges(graph, edges, rng, f"BA(n={n}, m=4) + {7 * per_size} planted complexes of 4-10, seed={seed}")
    ref = functools.cache(lambda: Reference(edges, n, 3))
    return Workload(
        [(graph, 4)],
        [
            Op("centrality-degree",
               _cli("centrality", graph, "--measure", "degree", "--level", "0,1,2,3", "--max-level", "4"),
               lambda out, _: checks.check_centrality(ref(), out, [0, 1, 2, 3], ["degree"])),
            Op("fit-degree-1", _cli("fit-degree", graph, "--level", "1"),
               lambda out, stdout: checks.check_fit(ref(), out, stdout, 1)),
            Op("fit-degree-2", _cli("fit-degree", graph, "--level", "2"),
               lambda out, stdout: checks.check_fit(ref(), out, stdout, 2)),
        ],
    )


WORKLOADS = {"paths-ba": paths_ba, "spectral-er": spectral_er, "lift-ppi": lift_ppi}
