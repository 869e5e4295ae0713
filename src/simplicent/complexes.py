"""Graphs, clique complexes, and the synthetic complex families.

A k-simplex is a strictly increasing run of k+1 node indices.  A
:class:`CliqueComplex` stores level k as one integer array with a row per
k-simplex of the input graph (each (k+1)-clique), rows in lexicographic
vertex order, so that a simplex's row is its dense integer ID and every
derived matrix and ranking is reproducible.  :meth:`CliqueComplex.simplices`
gives a level as vertex tuples.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy import sparse

logger = logging.getLogger(__name__)

Simplex = tuple[int, ...]


class Graph:
    """Undirected simple graph with opaque string node labels.

    Nodes are addressed by dense integer indices ``0..n-1``; ``labels`` keeps
    the mapping back to the original identifiers (protein names, numbers in a
    figure, ...).  ``edge_array`` holds the edges as a read-only m x 2 int64
    array, one ``(u, v)`` row with ``u < v`` per edge, rows sorted; ``edges``
    gives the same pairs as tuples.  Self-loops and duplicate edges are
    rejected here; lenient cleaning belongs to the edge-list readers.
    """

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]] | np.ndarray):
        self.labels: list[str] = list(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("node labels must be unique")
        ends = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        bad = np.flatnonzero(((ends < 0) | (ends >= n)).any(axis=1))
        if bad.size:
            u, v = ends[bad[0]].tolist()
            raise ValueError(f"edge ({u},{v}) out of range for {n} nodes")
        loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
        if loops.size:
            raise ValueError(f"self-loop on node {ends[loops[0], 0]}")
        ends = np.sort(ends, axis=1)
        ends = ends[np.argsort(ends[:, 0] * n + ends[:, 1], kind="stable")]
        dup = np.flatnonzero((ends[1:] == ends[:-1]).all(axis=1))
        if dup.size:
            raise ValueError(f"duplicate edge {tuple(ends[dup[0]].tolist())}")
        ends.flags.writeable = False
        self.edge_array = ends

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return list(map(tuple, self.edge_array.tolist()))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edge_array)

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


def parse_edge_list(lines: Iterable[str] | TextIO) -> tuple[Graph, EdgeListReport]:
    """Parse a plain-text edge list: one edge per line, two whitespace-separated
    labels, lines starting with ``#`` ignored.  Duplicate edges and self-loops
    are dropped and counted in the report.

    ``lines`` is an open text file, read whole and split at ``"\\n"``, or any
    iterable of lines.  Nodes are numbered in the order their labels first
    appear, self-loop and duplicate lines included.
    """
    if hasattr(lines, "read"):
        lines = lines.read().split("\n")
        if not lines[-1]:
            lines.pop()  # the text ends with a newline, or is empty
    else:
        lines = list(lines)
    # whole-line string operations only: no list per line is kept, which
    # would leave the cyclic collector tens of thousands of objects to scan
    widths = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    comment = np.fromiter(map(str.startswith, map(str.lstrip, lines), itertools.repeat("#")), dtype=bool, count=len(lines))
    bad = np.flatnonzero((widths != 0) & (widths != 2) & ~comment)
    if bad.size:
        raise ValueError(f"line {bad[0] + 1}: expected two labels, got {widths[bad[0]]}")
    tokens = " ".join(itertools.compress(lines, (~comment).tolist())).split()
    index = dict.fromkeys(tokens)  # first-appearance order
    labels = list(index)
    index.update(zip(labels, itertools.count()))
    ends = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens)).reshape(-1, 2)
    loops = ends[:, 0] == ends[:, 1]
    ends = np.sort(ends[~loops], axis=1)
    _, first = np.unique(ends[:, 0] * len(labels) + ends[:, 1], return_index=True)
    report = EdgeListReport(
        lines=len(lines),
        comments=int(comment.sum()),
        edges=len(first),
        dropped_self_loops=int(loops.sum()),
        dropped_duplicates=len(ends) - len(first),
    )
    if report.dropped_self_loops or report.dropped_duplicates:
        logger.warning(
            "edge list: dropped %d self-loops and %d duplicate edges",
            report.dropped_self_loops,
            report.dropped_duplicates,
        )
    return Graph(labels, ends[first]), report


def read_edge_list(path: str) -> Graph:
    """Read an edge-list file (see :func:`parse_edge_list`)."""
    with open(path, "r", encoding="utf-8") as fh:
        graph, _ = parse_edge_list(fh)
    return graph


class CliqueComplex:
    """The clique complex of a graph, materialized up to level ``max_level``.

    ``levels[k]`` is an int64 array of shape n_k x (k+1): one row per
    k-simplex (each (k+1)-clique of the graph), its vertices strictly
    increasing, rows in lexicographic order, so a simplex's row index is its
    ID.  The structure is closed by construction: every face of a registered
    simplex is itself registered.  Instances are immutable once built, so the
    row keys, the boundary matrices and each level's combined adjacency are
    built on first use and cached on the instance, as is the
    eigendecomposition of the most recently decomposed level.
    """

    def __init__(self, graph: Graph, max_level: int, levels: list[np.ndarray]):
        self.graph = graph
        self.max_level = max_level
        self.levels = levels
        self._keys: dict[int, np.ndarray] = {}
        self._boundary: dict[int, sparse.csr_matrix] = {}
        self._combined: dict[int, object] = {}  # LevelAdjacency, filled by adjacency.combined_adjacency
        self._distances: dict[int, tuple] = {}  # filled by paths._level_distances
        self._spectrum = None  # one level at a time, filled by centrality.spectral_decomposition

    def counts(self) -> list[int]:
        """Number of simplices per level, for levels 0..max_level."""
        return [len(level) for level in self.levels]

    def simplices(self, k: int) -> list[Simplex]:
        """Level k as a list of vertex tuples, in ID order."""
        self._check_level(k)
        return list(map(tuple, self.levels[k].tolist()))

    def n_simplices(self, k: int) -> int:
        self._check_level(k)
        return len(self.levels[k])

    def simplex_id(self, k: int, simplex: Sequence[int]) -> int:
        sid = self._find(k, simplex)
        if sid < 0:
            raise KeyError(tuple(simplex))
        return sid

    def has_simplex(self, k: int, simplex: Sequence[int]) -> bool:
        return self._find(k, simplex) >= 0

    def boundary(self, k: int) -> sparse.csr_matrix:
        """Unsigned boundary matrix B_k, n_{k-1} x n_k: entry (f, s) is 1
        when (k-1)-simplex f is a face of k-simplex s."""
        if not 1 <= k <= self.max_level:
            raise ValueError(f"boundary defined for 1 <= k <= {self.max_level}, got {k}")
        if k not in self._boundary:
            level = self.levels[k]
            n = len(level)
            faces = [np.searchsorted(self._level_keys(k - 1), _row_keys(np.delete(level, d, axis=1)))
                     for d in range(k + 1)]
            rows = np.array(faces, dtype=np.int32).reshape(k + 1, n).T.ravel()
            indptr = np.arange(0, rows.size + 1, k + 1)  # column s holds the k+1 faces of simplex s
            shape = (len(self.levels[k - 1]), n)
            self._boundary[k] = sparse.csc_matrix((np.ones_like(rows), rows, indptr), shape=shape).tocsr()
        return self._boundary[k]

    def simplex_labels(self, k: int) -> list[str]:
        """Every simplex at level k rendered with the original node labels,
        comma-joined, in ID order."""
        self._check_level(k)
        names = np.array(self.graph.labels, dtype=object)
        return list(map(",".join, zip(*(names[column].tolist() for column in self.levels[k].T))))

    def _level_keys(self, k: int) -> np.ndarray:
        if k not in self._keys:
            self._keys[k] = _row_keys(self.levels[k])
        return self._keys[k]

    def _find(self, k: int, simplex: Sequence[int]) -> int:
        """ID of a vertex tuple at level k, or -1 when it is not a k-simplex."""
        self._check_level(k)
        if len(simplex) != k + 1:
            return -1
        keys = self._level_keys(k)
        key = _row_keys(np.array([simplex], dtype=np.int64))
        sid = int(np.searchsorted(keys, key)[0])
        return sid if sid < len(keys) and keys[sid] == key[0] else -1

    def _check_level(self, k: int) -> None:
        if not 0 <= k <= self.max_level:
            raise ValueError(f"level {k} not materialized (max_level={self.max_level})")

    def __repr__(self) -> str:
        return f"CliqueComplex(max_level={self.max_level}, counts={self.counts()})"


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row: the row as big-endian int64 bytes, so that
    keys order like the vertex tuples (vertex IDs are non-negative)."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


ROW_BLOCK = 4096  # level-k rows per sparse product in the lift


def _lift(level: np.ndarray, up: sparse.csr_matrix, rank: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The level above ``level``, rows in lexicographic order.

    ``up`` points every edge from the lower to the higher (degree, index)
    rank; ``rank`` maps vertices to ranks and ``order`` back.  Row s of
    ``inc @ up``, with ``inc`` the simplex-by-rank incidence, counts for each
    vertex w how many vertices of s rank below w and are adjacent to it: an
    entry equal to the width of s extends s by its new top-ranked vertex w,
    so each larger clique is found exactly once.  Ranking by degree keeps
    hubs at the top, where their rows in ``up`` are short.
    """
    n_k, width = level.shape
    blocks = [np.empty((0, width + 1), dtype=np.int64)]
    for start in range(0, n_k, ROW_BLOCK):
        ranks = rank[level[start : start + ROW_BLOCK]]
        inc = sparse.csr_matrix(
            (np.ones(ranks.size, dtype=np.int32), ranks.ravel(), np.arange(0, ranks.size + 1, width)),
            shape=(len(ranks), up.shape[0]),
        )
        hits = (inc @ up).tocoo()
        full = hits.data == width
        grown = np.column_stack([ranks[hits.row[full]], hits.col[full]])
        blocks.append(np.sort(order[grown], axis=1))
    grown = np.concatenate(blocks)
    return grown[np.lexsort(grown.T[::-1])]


def build_clique_complex(graph: Graph, max_level: int) -> CliqueComplex:
    """Lift a graph to its clique complex, materializing levels 0..max_level.

    Level k holds one simplex per (k+1)-clique.  An empty graph gives an
    empty complex; levels above the largest clique are simply empty.  Note
    that combined adjacency at level k needs the (k+1)-simplices, so callers
    wanting it must build with ``max_level >= k+1``.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    n = graph.n
    edges = graph.edge_array
    degree = np.bincount(edges.ravel(), minlength=n)
    order = np.argsort(degree, kind="stable")  # by (degree, index)
    rank = np.argsort(order)
    ends = np.sort(rank[edges], axis=1)
    up = sparse.csr_matrix((np.ones(len(ends), dtype=np.int32), (ends[:, 0], ends[:, 1])), shape=(n, n))
    levels = [np.arange(n, dtype=np.int64).reshape(n, 1)]
    for _ in range(max_level):
        levels.append(_lift(levels[-1], up, rank, order))
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
