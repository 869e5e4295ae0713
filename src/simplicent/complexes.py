"""Graphs, clique complexes, and the synthetic complex families.

A k-simplex is represented throughout as a tuple of strictly increasing
node indices of length k+1.  A :class:`CliqueComplex` stores, per level k,
an ordered registry of all k-simplices of the input graph (the (k+1)-cliques),
with dense integer IDs assigned in lexicographic vertex order so that every
derived matrix and ranking is reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

logger = logging.getLogger(__name__)

Simplex = tuple[int, ...]


class Graph:
    """Undirected simple graph with opaque string node labels.

    Nodes are addressed by dense integer indices ``0..n-1``; ``labels`` keeps
    the mapping back to the original identifiers (protein names, numbers in a
    figure, ...).  Self-loops and duplicate edges are rejected here; lenient
    cleaning belongs to the edge-list readers.
    """

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        self.labels: list[str] = list(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("node labels must be unique")
        seen: set[tuple[int, int]] = set()
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} nodes")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.edges: list[tuple[int, int]] = sorted(seen)
        self._adj = adj

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> set[int]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def index_of(self, label: str) -> int:
        try:
            return self.label_index()[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def label_index(self) -> dict[str, int]:
        """Label -> index map (built once, cached)."""
        if not hasattr(self, "_label_index"):
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class EdgeListReport:
    """What happened while parsing an edge list."""

    lines: int = 0
    comments: int = 0
    edges: int = 0
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0


def parse_edge_list(lines: Iterable[str]) -> tuple[Graph, EdgeListReport]:
    """Parse a plain-text edge list: one edge per line, two whitespace-separated
    labels, lines starting with ``#`` ignored.  Duplicate edges and self-loops
    are dropped and counted in the report.
    """
    report = EdgeListReport()
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()

    def node(lab: str) -> int:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

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
        u, v = node(parts[0]), node(parts[1])
        if u == v:
            report.dropped_self_loops += 1
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            report.dropped_duplicates += 1
            continue
        edges.add(e)
    report.edges = len(edges)
    if report.dropped_self_loops or report.dropped_duplicates:
        logger.warning(
            "edge list: dropped %d self-loops and %d duplicate edges",
            report.dropped_self_loops,
            report.dropped_duplicates,
        )
    return Graph(labels, edges), report


def read_edge_list(path: str) -> Graph:
    """Read an edge-list file (see :func:`parse_edge_list`)."""
    with open(path, "r", encoding="utf-8") as fh:
        graph, _ = parse_edge_list(fh)
    return graph


class CliqueComplex:
    """The clique complex of a graph, materialized up to level ``max_level``.

    ``levels[k]`` lists every k-simplex (each (k+1)-clique of the graph) in
    lexicographic vertex order; a simplex's position in that list is its ID.
    The structure is closed by construction: every face of a registered
    simplex is itself registered.  Instances are immutable once built, so the
    boundary matrices and each level's combined adjacency are built on first
    use and cached on the instance, as is the eigendecomposition of the most
    recently decomposed level.
    """

    def __init__(self, graph: Graph, max_level: int, levels: list[list[Simplex]]):
        self.graph = graph
        self.max_level = max_level
        self.levels = levels
        self._index: list[dict[Simplex, int]] = [
            {s: i for i, s in enumerate(level)} for level in levels
        ]
        self._boundary: dict[int, sparse.csr_matrix] = {}
        self._combined: dict[int, sparse.csr_matrix] = {}  # filled by adjacency.combined_adjacency
        self._spectrum = None  # one level at a time, filled by centrality.spectral_decomposition

    def counts(self) -> list[int]:
        """Number of simplices per level, for levels 0..max_level."""
        return [len(level) for level in self.levels]

    def simplices(self, k: int) -> list[Simplex]:
        self._check_level(k)
        return self.levels[k]

    def n_simplices(self, k: int) -> int:
        self._check_level(k)
        return len(self.levels[k])

    def simplex_id(self, k: int, simplex: Sequence[int]) -> int:
        self._check_level(k)
        return self._index[k][tuple(simplex)]

    def has_simplex(self, k: int, simplex: Sequence[int]) -> bool:
        self._check_level(k)
        return tuple(simplex) in self._index[k]

    def boundary(self, k: int) -> sparse.csr_matrix:
        """Unsigned boundary matrix B_k, n_{k-1} x n_k: entry (f, s) is 1
        when (k-1)-simplex f is a face of k-simplex s."""
        if not 1 <= k <= self.max_level:
            raise ValueError(f"boundary defined for 1 <= k <= {self.max_level}, got {k}")
        if k not in self._boundary:
            n = len(self.levels[k])
            lookup = self._index[k - 1].__getitem__
            position = list(zip(*self.levels[k]))  # position[d][s] is vertex d of simplex s
            faces = [list(map(lookup, zip(*(position[:d] + position[d + 1 :])))) for d in range(k + 1)]
            rows = np.array(faces, dtype=np.int32).reshape(k + 1, n).T.ravel()
            indptr = np.arange(0, rows.size + 1, k + 1)  # column s holds the k+1 faces of simplex s
            shape = (len(self.levels[k - 1]), n)
            self._boundary[k] = sparse.csc_matrix((np.ones_like(rows), rows, indptr), shape=shape).tocsr()
        return self._boundary[k]

    def simplex_label(self, k: int, sid: int) -> str:
        """Render a simplex with the original node labels, comma-joined."""
        return ",".join(self.graph.labels[v] for v in self.levels[k][sid])

    def _check_level(self, k: int) -> None:
        if not 0 <= k <= self.max_level:
            raise ValueError(f"level {k} not materialized (max_level={self.max_level})")

    def __repr__(self) -> str:
        return f"CliqueComplex(max_level={self.max_level}, counts={self.counts()})"


def _degeneracy_order(graph: Graph) -> list[int]:
    """Vertex order from repeatedly removing a minimum-degree vertex.

    Ties break on the smallest vertex index, so the order is deterministic.
    """
    n = graph.n
    deg = [graph.degree(v) for v in range(n)]
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in graph.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order


def _enumerate_cliques(graph: Graph, max_size: int) -> list[list[Simplex]]:
    """All cliques of the graph with 1..max_size vertices, grouped by size.

    Expansion follows the degeneracy order: a clique is grown only with
    common neighbors that come later in the order, so each clique is emitted
    exactly once and the candidate sets stay small on sparse graphs.
    """
    by_size: list[list[Simplex]] = [[] for _ in range(max_size + 1)]
    if max_size < 1:
        return by_size
    order = _degeneracy_order(graph)
    pos = [0] * graph.n
    for p, v in enumerate(order):
        pos[v] = p
    succ = [
        sorted((w for w in graph.neighbors(v) if pos[w] > pos[v]), key=lambda w: pos[w])
        for v in range(graph.n)
    ]

    def grow(clique: list[int], cands: list[int]) -> None:
        for i, v in enumerate(cands):
            clique.append(v)
            by_size[len(clique)].append(tuple(sorted(clique)))
            if len(clique) < max_size:
                nxt = [w for w in cands[i + 1 :] if w in graph.neighbors(v)]
                if nxt:
                    grow(clique, nxt)
            clique.pop()

    for v in order:
        by_size[1].append((v,))
        if max_size >= 2 and succ[v]:
            grow([v], succ[v])
    return by_size


def build_clique_complex(graph: Graph, max_level: int) -> CliqueComplex:
    """Lift a graph to its clique complex, materializing levels 0..max_level.

    Level k holds one simplex per (k+1)-clique.  An empty graph gives an
    empty complex; levels above the largest clique are simply empty.  Note
    that combined adjacency at level k needs the (k+1)-simplices, so callers
    wanting it must build with ``max_level >= k+1``.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    by_size = _enumerate_cliques(graph, max_level + 1)
    levels = [sorted(by_size[k + 1]) for k in range(max_level + 1)]
    return CliqueComplex(graph, max_level, levels)


# ---------------------------------------------------------------------------
# Synthetic families and the worked 9-node example
# ---------------------------------------------------------------------------


def generate_S(l: int, k: int) -> CliqueComplex:
    """Star-like family: l k-simplices all sharing one common (k-1)-face.

    The shared face is the vertex set {0..k-1}; arm vertex k+i completes the
    i-th k-simplex.  For k=1 this is the star graph with l leaves.  Every
    pair of k-simplices is combined-adjacent (no (k+1)-simplices exist), so
    the underlying network of k-simplices is the complete graph on l nodes.
    """
    if l < 1 or k < 1:
        raise ValueError("need l >= 1 and k >= 1")
    center = range(k)
    edges = set(itertools.combinations(center, 2))
    n = k + l
    for arm in range(k, n):
        edges.update((c, arm) for c in center)
    graph = Graph([str(i) for i in range(n)], edges)
    return build_clique_complex(graph, k + 1)


def generate_T(k: int, x: Sequence[int]) -> CliqueComplex:
    """Branched family: a central k-simplex with ``x[i]`` arm k-simplices
    attached through its i-th face (the face dropping vertex i).

    Arms through the same face are mutually lower adjacent; arms through
    different faces are not.  ``x`` must have exactly k+1 entries.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if len(x) != k + 1:
        raise ValueError(f"need exactly {k + 1} arm counts for k={k}, got {len(x)}")
    if any(xi < 0 for xi in x):
        raise ValueError("arm counts must be >= 0")
    center = list(range(k + 1))
    edges = set(itertools.combinations(center, 2))
    nxt = k + 1
    for drop, count in enumerate(x):
        face = [v for v in center if v != drop]
        for _ in range(count):
            edges.update((f, nxt) for f in face)
            nxt += 1
    graph = Graph([str(i) for i in range(nxt)], edges)
    return build_clique_complex(graph, k + 1)


def generate_P(l: int, k: int) -> CliqueComplex:
    """Path family: l k-simplices chained so that only consecutive ones are
    adjacent; the underlying network of k-simplices is a path of l nodes.

    Built on l+k vertices with an edge whenever |u-v| <= k; the k-simplices
    are then exactly the consecutive runs {i..i+k}.  For k=1 this is the
    path graph on l+1 nodes.
    """
    if l < 1 or k < 1:
        raise ValueError("need l >= 1 and k >= 1")
    n = l + k
    edges = [(u, v) for u in range(n) for v in range(u + 1, min(u + k, n - 1) + 1)]
    graph = Graph([str(i) for i in range(n)], edges)
    return build_clique_complex(graph, k + 1)


EXAMPLE_EDGES = [
    ("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"),
    ("3", "5"), ("4", "5"), ("4", "6"), ("5", "6"), ("6", "7"), ("6", "8"),
    ("7", "8"), ("6", "9"),
]


def example_graph() -> Graph:
    """The 9-node worked example: a 4-clique {1,2,3,4}, triangles {3,4,5},
    {4,5,6} and {6,7,8}, and the pendant node 9 on node 6."""
    labels = [str(i) for i in range(1, 10)]
    index = {lab: i for i, lab in enumerate(labels)}
    return Graph(labels, [(index[a], index[b]) for a, b in EXAMPLE_EDGES])


def example_complex(max_level: int = 3) -> CliqueComplex:
    """Clique complex of :func:`example_graph` (9 / 14 / 7 / 1 simplices)."""
    return build_clique_complex(example_graph(), max_level)


def write_edge_list(graph: Graph, path: str, header: Iterable[str] = ()) -> None:
    """Write a graph as a plain-text edge list (re-ingestable by the parser)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for u, v in graph.edges:
            fh.write(f"{graph.labels[u]} {graph.labels[v]}\n")
