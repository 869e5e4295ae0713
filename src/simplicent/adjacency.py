"""Lower, upper, and combined adjacency among the k-simplices of a complex.

Two k-simplices are lower adjacent when they share a (k-1)-face and upper
adjacent when both are faces of one (k+1)-simplex: the off-diagonals of
B_k^T B_k and B_{k+1} B_{k+1}^T for the complex's unsigned boundary matrices.
The combined relation -- lower and not upper for k >= 1, plain graph
adjacency for k = 0 -- is the adjacency used by every distance and centrality
in this package, built once per level and cached on the complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .complexes import CliqueComplex
from .errors import InsufficientDepthError


@dataclass(eq=False)
class LevelAdjacency:
    """Symmetric 0/1 sparse adjacency among the k-simplices of one level."""

    level: int
    mat: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def degrees(self) -> np.ndarray:
        """Row sums: the simplex degree of every simplex at this level."""
        return np.asarray(self.mat.sum(axis=1)).ravel().astype(np.int64)

    def __repr__(self) -> str:
        return f"LevelAdjacency(level={self.level}, n={self.n})"


def _offdiag(prod: sparse.csr_matrix) -> sparse.csr_matrix:
    """A simplex-by-simplex CSR product without its diagonal, as int8 CSR.

    The diagonal is zeroed and eliminated in place, so no entry is inserted
    where none is stored, and the result shares the product's index arrays.
    """
    rows = np.repeat(np.arange(prod.shape[0], dtype=prod.indices.dtype), np.diff(prod.indptr))
    prod.data[prod.indices == rows] = 0
    prod.eliminate_zeros()
    prod.sort_indices()
    return sparse.csr_matrix((prod.data.astype(np.int8), prod.indices, prod.indptr), shape=prod.shape)


def lower_adjacency(c: CliqueComplex, k: int) -> LevelAdjacency:
    """Adjacency of k-simplices sharing a common (k-1)-face, from B_k^T B_k.

    0-simplices are never lower adjacent, so k=0 yields the zero matrix.
    """
    n = c.n_simplices(k)
    if k == 0:
        return LevelAdjacency(0, sparse.csr_matrix((n, n), dtype=np.int8))
    b = c.boundary(k)
    return LevelAdjacency(k, _offdiag(b.T.tocsr() @ b))


def upper_adjacency(c: CliqueComplex, k: int) -> LevelAdjacency:
    """Adjacency of k-simplices that are faces of one common (k+1)-simplex,
    from B_{k+1} B_{k+1}^T.

    Requires level k+1 to be materialized; otherwise the result would be
    silently understated, so the call is rejected instead.
    """
    _check_depth(c, k)
    b = c.boundary(k + 1)
    return LevelAdjacency(k, _offdiag(b @ b.T))


def _check_depth(c: CliqueComplex, k: int) -> None:
    if c.max_level < k + 1:
        raise InsufficientDepthError(
            f"insufficient complex depth: upper adjacency at level {k} needs "
            f"level {k + 1} materialized (max_level={c.max_level})"
        )


def combined_adjacency(c: CliqueComplex, k: int) -> LevelAdjacency:
    """The level-k adjacency matrix: lower-and-not-upper for k >= 1, upper
    (i.e. ordinary graph adjacency) for k = 0.

    Built once per level and cached on the complex: every call returns the
    same object, whose matrix callers must not modify.
    """
    if k not in c._combined:
        mat = upper_adjacency(c, k).mat
        if k >= 1:
            # Two distinct k-simplices share at most one (k-1)-face and lie in
            # at most one common (k+1)-simplex, so both matrices are 0/1; upper
            # is a subset of lower, so the difference is 0/1 and stores no zeros.
            mat = lower_adjacency(c, k).mat - mat
        c._combined[k] = LevelAdjacency(k, mat)
    return c._combined[k]


def simplex_degrees(c: CliqueComplex, k: int) -> np.ndarray:
    """Combined degree of every k-simplex (int64), from boundary row sums
    without forming B^T B: ``combined_adjacency(c, k).degrees()``.

    At k = 0 it is B_1 1, the vertex degrees.  For k >= 1 a k-simplex has
    lower degree B_k^T (B_k 1) - (k+1), its k+1 faces' other cofaces, and
    upper degree (k+1) B_{k+1} 1, the k+1 other faces of each of its
    cofaces; the counts are exact because two k-simplices share at most one
    face and one coface, and the combined degree is their difference.
    Requires level k+1, as :func:`upper_adjacency` does.
    """
    _check_depth(c, k)
    cofaces = np.diff(c.boundary(k + 1).indptr).astype(np.int64)
    if k == 0:
        return cofaces
    b = c.boundary(k)
    return b.T @ np.diff(b.indptr).astype(np.int64) - (k + 1) * (1 + cofaces)


def interaction_count(a: LevelAdjacency) -> int:
    """Number of unordered adjacent pairs at this level."""
    return int(a.mat.sum()) // 2
