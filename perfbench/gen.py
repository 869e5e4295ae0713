"""Seeded input generators for the benchmark (numpy only).

Every generator takes a ``numpy.random.Generator`` and returns an edge array
of shape (m, 2) over node indices 0..n-1, each node on at least one edge.
``write_edges`` renders it as the plain-text edge list the ``simplicent`` CLI
reads, with labels ``P<index>`` and lines in a seeded random order, so the
parser's node numbering (by first appearance) differs from the generator's
and the checks must map labels back to vertices.

Sizes are fixed by the arguments, not by the seed: Barabási-Albert graphs
have exactly ``m(m+1)/2 + m(n-m-1)`` edges, Erdős-Rényi graphs are G(n, M)
with exactly M edges, and the planted complexes of the PPI-like overlay have
a fixed multiset of sizes.  The seed moves structure, not scale.
"""

from __future__ import annotations

import numpy as np


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Preferential attachment: a seed clique on m+1 nodes, then every new
    node links to m distinct earlier nodes drawn with probability
    proportional to degree."""
    if n <= m + 1:
        raise ValueError("need n > m + 1")
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    # every edge endpoint once: uniform draws from it are degree-proportional
    ends = np.zeros(2 * (len(edges) + m * (n - m - 1)), dtype=np.int64)
    fill = 0
    for u, v in edges:
        ends[fill], ends[fill + 1] = u, v
        fill += 2
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(ends[rng.integers(fill)]))
        for t in sorted(targets):
            edges.append((t, new))
            ends[fill], ends[fill + 1] = t, new
            fill += 2
    return np.array(edges, dtype=np.int64)


def erdos_renyi(n: int, n_edges: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, M): M distinct node pairs drawn uniformly, over the nodes that
    end up with at least one edge."""
    total = n * (n - 1) // 2
    if n_edges > total:
        raise ValueError("more edges than node pairs")
    codes = rng.choice(total, size=n_edges, replace=False)
    # decode the pair index into (u, v) with u < v, row by row
    row_start = np.cumsum(np.arange(n - 1, 0, -1)) - np.arange(n - 1, 0, -1)
    u = np.searchsorted(row_start, codes, side="right") - 1
    v = codes - row_start[u] + u + 1
    # an edge list cannot hold isolated nodes: number the touched ones 0..n'-1
    _, compact = np.unique(np.stack([u, v], axis=1), return_inverse=True)
    return compact.reshape(-1, 2).astype(np.int64)


def planted_complexes(
    backbone: np.ndarray, n: int, sizes: list[int], rng: np.random.Generator
) -> np.ndarray:
    """Overlay one clique per entry of ``sizes`` on a backbone edge set.

    Members of each complex are drawn without replacement from all n nodes,
    so complexes overlap the backbone's hubs and each other the way protein
    complexes share subunits.
    """
    pairs = {tuple(e) for e in np.sort(backbone, axis=1).tolist()}
    for size in sizes:
        members = np.sort(rng.choice(n, size=size, replace=False)).tolist()
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                pairs.add((u, v))
    return np.array(sorted(pairs), dtype=np.int64)


def star(leaves: int) -> np.ndarray:
    """The star K_{1,leaves} on nodes 0..leaves, the graph that
    ``simplicent generate S <leaves> 1`` writes."""
    return np.array([(0, i) for i in range(1, leaves + 1)], dtype=np.int64)


def essential_flags(edges: np.ndarray, n: int, share: float, rng: np.random.Generator) -> np.ndarray:
    """Plant essential proteins: each node is flagged with probability
    proportional to sqrt(degree), scaled so about ``share`` of the nodes are
    essential.  Flags correlate with degree without being a function of it."""
    degree = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    weight = np.sqrt(degree)
    prob = np.clip(share * n * weight / weight.sum(), 0.0, 0.95)
    return rng.random(n) < prob


def label(i: int) -> str:
    return f"P{i}"


def write_edges(path: str, edges: np.ndarray, rng: np.random.Generator, header: str) -> None:
    """Write an edge list in a seeded random line order with random endpoint
    order, so the parser's node numbering is a shuffle of the indices."""
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for i in order:
            u, v = edges[i]
            if flip[i]:
                u, v = v, u
            fh.write(f"{label(u)} {label(v)}\n")


def write_annotations(path: str, flags: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# label essential\n")
        for i, flag in enumerate(flags):
            fh.write(f"{label(i)} {int(flag)}\n")
