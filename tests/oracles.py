"""Independent brute-force reference implementations used as test oracles.

Everything here works straight from the definitions with itertools and
Fractions, deliberately sharing no code path with the library; only
:func:`walk_count` starts from the library's combined adjacency, to check the
spectral measures against plain matrix powers of it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from simplicent import EdgeListReport, Graph, build_clique_complex, combined_adjacency


def line_loop_parse(lines) -> tuple[Graph, EdgeListReport]:
    """The edge-list parser as a loop over lines: strip, skip blanks and
    ``#`` comments, split into two labels, number labels as they appear,
    and drop self-loops and repeated edges through a set of pairs.  A label
    with a comma is refused once every line has the right number of labels."""
    report = EdgeListReport()
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()

    def node(lab: str) -> int:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    comma_line = None
    for lineno, raw in enumerate(lines, start=1):
        report.lines += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            report.comments += 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two labels, got {len(parts)}")
        if comma_line is None and any("," in part for part in parts):
            comma_line = lineno
        u, v = node(parts[0]), node(parts[1])
        if u == v:
            report.dropped_self_loops += 1
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            report.dropped_duplicates += 1
            continue
        edges.add(e)
    if comma_line is not None:
        raise ValueError(f"line {comma_line}: node labels must not contain ','")
    report.edges = len(edges)
    return Graph(labels, edges), report


def er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi G(n, p) with deterministic draws from ``rng``."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph([str(i) for i in range(n)], edges)


def er_blocks_graph(rng: np.random.Generator) -> Graph:
    """Three disjoint Erdos-Renyi blocks of 4-6 vertices with p in [0.4, 0.7],
    plus two vertices without edges: several components at every level."""
    edges: list[tuple[int, int]] = []
    offset = 0
    for _ in range(3):
        size = int(rng.integers(4, 7))
        p = float(rng.uniform(0.4, 0.7))
        edges += [(offset + u, offset + v) for u in range(size) for v in range(u + 1, size) if rng.random() < p]
        offset += size
    return Graph([str(i) for i in range(offset + 2)], edges)


def ba_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Barabasi-Albert growth: each new vertex attaches to m distinct earlier
    vertices drawn proportionally to their degree (heavy-tailed degrees)."""
    edges = {(0, 1)}
    ends = [0, 1]  # one entry per edge endpoint
    for new in range(2, n):
        chosen: set[int] = set()
        while len(chosen) < min(m, new):
            chosen.add(ends[int(rng.integers(len(ends)))])
        for t in chosen:
            edges.add((t, new))
            ends += [t, new]
    return Graph([str(i) for i in range(n)], sorted(edges))


def random_growth_complex(l: int, k: int, rng: np.random.Generator):
    """A random connected complex with exactly l k-simplices and no
    (k+1)-simplices: start from one k-simplex and repeatedly glue a fresh
    vertex onto a random (k-1)-face of a random existing simplex."""
    simplices = [list(range(k + 1))]
    edges = set(itertools.combinations(range(k + 1), 2))
    nxt = k + 1
    for _ in range(l - 1):
        host = simplices[rng.integers(len(simplices))]
        drop = int(rng.integers(len(host)))
        face = [v for i, v in enumerate(host) if i != drop]
        edges.update((f, nxt) for f in face)
        simplices.append(face + [nxt])
        nxt += 1
    graph = Graph([str(i) for i in range(nxt)], edges)
    return build_clique_complex(graph, k + 1)


def neighbour_sets(graph: Graph) -> list[set[int]]:
    """Each node's neighbours, read off the graph's edge pairs."""
    nbrs: list[set[int]] = [set() for _ in range(graph.n)]
    for u, v in graph.edge_array.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def brute_cliques(graph: Graph, size: int) -> list[tuple[int, ...]]:
    """All cliques of a given vertex count, by testing every combination."""
    nbrs = neighbour_sets(graph)
    return [
        combo
        for combo in itertools.combinations(range(graph.n), size)
        if all(b in nbrs[a] for a, b in itertools.combinations(combo, 2))
    ]


def walk_count(c, k: int, m: int) -> np.ndarray:
    """Number of length-m walks between every pair of k-simplices: the m-th
    power of the combined adjacency, in exact int64 arithmetic."""
    return np.linalg.matrix_power(combined_adjacency(c, k).mat.toarray().astype(np.int64), m)


def brute_adjacency(graph: Graph, k: int, kind: str) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Level-k adjacency straight from the definitions (set intersections)."""
    sims = sorted(brute_cliques(graph, k + 1))
    higher = [set(s) for s in brute_cliques(graph, k + 2)]
    n = len(sims)
    mat = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = set(sims[i]), set(sims[j])
            lower = len(a & b) == k
            upper = any((a | b) <= h for h in higher)
            if kind == "lower":
                val = lower and k >= 1
            elif kind == "upper":
                val = upper
            else:
                val = upper if k == 0 else (lower and not upper)
            mat[i, j] = mat[j, i] = 1 if val else 0
    return sims, mat


def floyd_warshall(adj: np.ndarray) -> np.ndarray:
    """All-pairs distances by min-plus closure."""
    n = adj.shape[0]
    dist = np.where(adj > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for mid in range(n):
        dist = np.minimum(dist, dist[:, mid, None] + dist[None, mid, :])
    return dist


def enumerate_shortest_paths(adj: np.ndarray, s: int, t: int, dist: np.ndarray) -> list[tuple[int, ...]]:
    """Every shortest path from s to t, found by bounded DFS."""
    target_len = dist[s, t]
    if not np.isfinite(target_len):
        return []
    target_len = int(target_len)
    paths: list[tuple[int, ...]] = []

    def walk(node: int, trail: list[int]) -> None:
        if len(trail) - 1 > target_len:
            return
        if node == t:
            if len(trail) - 1 == target_len:
                paths.append(tuple(trail))
            return
        for nxt in np.flatnonzero(adj[node]):
            if nxt not in trail:
                trail.append(int(nxt))
                walk(int(nxt), trail)
                trail.pop()

    walk(s, [s])
    return paths


def brute_betweenness(adj: np.ndarray) -> list[Fraction]:
    """g(F) over unordered pairs from explicit shortest-path enumeration."""
    n = adj.shape[0]
    dist = floyd_warshall(adj)
    scores = [Fraction(0)] * n
    for s in range(n):
        for t in range(s + 1, n):
            paths = enumerate_shortest_paths(adj, s, t, dist)
            if not paths:
                continue
            total = len(paths)
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p[1:-1])
                scores[v] += Fraction(through, total)
    return scores


def brute_closeness(adj: np.ndarray, normalized: bool) -> list[Fraction]:
    """Per-component (size-1)/farness, singletons 0, from Floyd-Warshall."""
    n = adj.shape[0]
    dist = floyd_warshall(adj)
    out = []
    for i in range(n):
        finite = np.isfinite(dist[i])
        size = int(finite.sum())
        if size < 2:
            out.append(Fraction(0))
            continue
        farness = int(dist[i][finite].sum())
        out.append(Fraction(size - 1, farness) if normalized else Fraction(1, farness))
    return out


def brute_harmonic(adj: np.ndarray) -> list[Fraction]:
    n = adj.shape[0]
    dist = floyd_warshall(adj)
    out = []
    for i in range(n):
        total = Fraction(0)
        for j in range(n):
            if j != i and np.isfinite(dist[i, j]):
                total += Fraction(1, int(dist[i, j]))
        out.append(total)
    return out
