"""Lower, upper, and combined adjacency among the k-simplices of a complex.

Two k-simplices are lower adjacent when they share a (k-1)-face and upper
adjacent when both are faces of one (k+1)-simplex: the off-diagonals of
B_k^T B_k and B_{k+1} B_{k+1}^T for the complex's unsigned boundary matrices.
The combined relation -- lower and not upper for k >= 1, plain graph
adjacency for k = 0 -- is the adjacency used by every distance and centrality
in this package, built once per level and cached on the complex; its graph
view is the "underlying network of simplices".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .complexes import CliqueComplex, Graph
from .errors import InsufficientDepthError


@dataclass(eq=False)
class LevelAdjacency:
    """Symmetric 0/1 sparse adjacency among the k-simplices of one level."""

    level: int
    kind: str  # "lower" | "upper" | "combined"
    mat: sparse.csr_matrix
    complex: CliqueComplex = field(repr=False)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def degrees(self) -> np.ndarray:
        """Row sums: the simplex degree of every simplex at this level."""
        return np.asarray(self.mat.sum(axis=1)).ravel().astype(np.int64)

    def entry(self, i: int, j: int) -> int:
        return int(self.mat[i, j])

    def __repr__(self) -> str:
        return f"LevelAdjacency(level={self.level}, kind={self.kind!r}, n={self.n})"


def _offdiag(prod: sparse.spmatrix) -> sparse.csr_matrix:
    """A simplex-by-simplex product without its diagonal, as int8 CSR."""
    prod = prod.tocoo()
    keep = prod.row != prod.col
    return sparse.csr_matrix((prod.data[keep].astype(np.int8), (prod.row[keep], prod.col[keep])), shape=prod.shape)


def lower_adjacency(c: CliqueComplex, k: int) -> LevelAdjacency:
    """Adjacency of k-simplices sharing a common (k-1)-face, from B_k^T B_k.

    0-simplices are never lower adjacent, so k=0 yields the zero matrix.
    """
    n = c.n_simplices(k)
    if k == 0:
        return LevelAdjacency(0, "lower", sparse.csr_matrix((n, n), dtype=np.int8), c)
    b = c.boundary(k)
    return LevelAdjacency(k, "lower", _offdiag(b.T @ b), c)


def upper_adjacency(c: CliqueComplex, k: int) -> LevelAdjacency:
    """Adjacency of k-simplices that are faces of one common (k+1)-simplex,
    from B_{k+1} B_{k+1}^T.

    Requires level k+1 to be materialized; otherwise the result would be
    silently understated, so the call is rejected instead.
    """
    if c.max_level < k + 1:
        raise InsufficientDepthError(
            f"insufficient complex depth: upper adjacency at level {k} needs "
            f"level {k + 1} materialized (max_level={c.max_level})"
        )
    b = c.boundary(k + 1)
    return LevelAdjacency(k, "upper", _offdiag(b @ b.T), c)


def combined_adjacency(c: CliqueComplex, k: int) -> LevelAdjacency:
    """The level-k adjacency matrix: lower-and-not-upper for k >= 1, upper
    (i.e. ordinary graph adjacency) for k = 0.

    The matrix is built once per level and cached on the complex; every call
    wraps that same matrix, which callers must not modify.  The wrapper is
    not cached: it points back at the complex, and that cycle would keep
    each complex alive until a full garbage collection.
    """
    if k not in c._combined:
        mat = upper_adjacency(c, k).mat
        if k >= 1:
            # Two distinct k-simplices share at most one (k-1)-face and lie in
            # at most one common (k+1)-simplex, so both matrices are 0/1; upper
            # is a subset of lower, so the difference is 0/1 and stores no zeros.
            mat = lower_adjacency(c, k).mat - mat
        c._combined[k] = mat
    return LevelAdjacency(k, "combined", c._combined[k], c)


def simplex_degree(a: LevelAdjacency, i: int) -> int:
    """Number of other k-simplices adjacent to simplex ``i`` (row sum)."""
    if a.kind != "combined":
        raise ValueError(f"simplex degree is defined on combined adjacency, got {a.kind!r}")
    return int(a.mat[i].sum())


def interaction_count(a: LevelAdjacency) -> int:
    """Number of unordered adjacent pairs at this level."""
    return int(a.mat.sum()) // 2


def underlying_network(a: LevelAdjacency) -> Graph:
    """Graph whose nodes are the k-simplex IDs and whose edges are the
    combined adjacencies; node labels render the simplices' vertex labels."""
    if a.kind != "combined":
        raise ValueError(f"underlying network is defined on combined adjacency, got {a.kind!r}")
    coo = a.mat.tocoo()
    edges = [(int(i), int(j)) for i, j in zip(coo.row, coo.col) if i < j]
    labels = [a.complex.simplex_label(a.level, sid) for sid in range(a.n)]
    return Graph(labels, edges)


def write_matrix(a: LevelAdjacency, path: str, sidecar_path: str) -> None:
    """Export as coordinate-format text (``i j`` per unordered pair, 0-based
    IDs) plus a sidecar mapping ID -> vertex tuple."""
    coo = a.mat.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# level {a.level} kind {a.kind} n {a.n}\n")
        for i, j in zip(coo.row, coo.col):
            if i < j:
                fh.write(f"{i} {j}\n")
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        fh.write("# id\tvertices\n")
        for sid in range(a.n):
            fh.write(f"{sid}\t{a.complex.simplex_label(a.level, sid)}\n")
