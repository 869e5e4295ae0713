"""Shortest paths over the underlying network of simplices.

Distances at level k are unweighted shortest-path lengths on the combined
adjacency; a step between adjacent k-simplices realizes one hop of the
alternating simplex/face walk, so the graph distance and the simplicial
distance coincide.  Unreachable pairs are at distance ``inf`` -- a real
IEEE infinity, never a large stand-in, so that ``1/inf == 0`` holds exactly
where harmonic sums need it.

Every traversal works on blocks of at most ``BLOCK_SIZE`` sources at a time,
so its memory stays near ``BLOCK_SIZE * n`` floats: :func:`distance_blocks`
yields breadth-first distance rows from ``scipy.sparse.csgraph``, and
:func:`pair_dependencies` runs Brandes' dependency recursion level by level
as sparse-times-dense products over the block.  Components come from
``csgraph.connected_components``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.sparse import csgraph

from .adjacency import LevelAdjacency, combined_adjacency
from .complexes import CliqueComplex

DEFAULT_MATRIX_LIMIT = 20_000
BLOCK_SIZE = 64  # sources per traversal block


def _source_blocks(n: int) -> Iterator[np.ndarray]:
    for start in range(0, n, BLOCK_SIZE):
        yield np.arange(start, min(start + BLOCK_SIZE, n))


def distance_blocks(mat) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(sources, rows)`` over consecutive blocks of sources, where
    ``rows[i]`` holds the distances from ``sources[i]`` (unreachable -> inf).

    ``mat`` must be symmetric, as every level adjacency is: the directed
    search then gives the undirected distances without the symmetrized copy
    ``directed=False`` would build for every block.
    """
    mat = mat.astype(np.float64)
    for block in _source_blocks(mat.shape[0]):
        yield block, csgraph.shortest_path(mat, directed=True, unweighted=True, indices=block)


def pair_dependencies(mat) -> np.ndarray:
    """Brandes dependency of every vertex summed over all sources: entry v is
    the sum over ordered pairs (s, t), s != v != t, of the share of shortest
    s-t paths through v.

    Per block of sources, the forward sweep counts shortest paths ``sigma``
    one depth at a time (``A @ frontier``, masked to unvisited vertices);
    the backward sweep, from the deepest depth d up, adds
    ``sigma_v * (A @ ((1 + delta) / sigma at depth d))_v`` to every v at
    depth d-1.
    """
    n = mat.shape[0]
    a = mat.astype(np.float64)
    total = np.zeros(n)
    for block in _source_blocks(n):
        cols = np.arange(block.size)
        sigma = np.zeros((n, block.size))
        sigma[block, cols] = 1.0
        depth = np.full((n, block.size), -1, dtype=np.int32)
        depth[block, cols] = 0
        frontier, d = sigma, 0
        while True:
            frontier = a @ frontier
            frontier[depth >= 0] = 0.0
            reached = frontier > 0
            if not reached.any():
                break
            d += 1
            depth[reached] = d
            sigma += frontier
        delta = np.zeros((n, block.size))
        while d > 1:  # depth 0 (the source) takes no dependency
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=depth == d)
            d -= 1
            parents = depth == d
            delta[parents] += (sigma * (a @ share))[parents]
        total += delta.sum(axis=1)
    return total


@dataclass(eq=False)
class DistanceMatrix:
    """All-pairs level-k distances (float64; inf across components)."""

    level: int
    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]


@dataclass(eq=False)
class ComponentLabeling:
    """Connected components of the level-k simplices."""

    level: int
    labels: np.ndarray  # component id per simplex, 0-based
    sizes: list[int]

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def shortest_distances(c: CliqueComplex, k: int, max_size: int = DEFAULT_MATRIX_LIMIT) -> DistanceMatrix:
    """Materialize the full level-k distance matrix (guarded by ``max_size``;
    :func:`level_summary` streams the summaries of very large levels)."""
    adj = combined_adjacency(c, k)
    n = adj.n
    if n > max_size:
        raise ValueError(
            f"level {k} has {n} simplices, above the matrix materialization "
            f"limit {max_size}; raise the limit or use level_summary, which "
            f"keeps no full matrix"
        )
    dist = np.empty((n, n))
    for block, rows in distance_blocks(adj.mat):
        dist[block] = rows
    return DistanceMatrix(k, dist)


def connected_components(c: CliqueComplex, k: int) -> ComponentLabeling:
    """Partition the k-simplices into maximal sets at finite mutual distance."""
    adj = combined_adjacency(c, k)
    return components_of(adj)


def components_of(adj: LevelAdjacency) -> ComponentLabeling:
    """Component labels numbered in order of each component's lowest ID, the
    order in which ``csgraph`` meets them."""
    count, labels = csgraph.connected_components(adj.mat, directed=False)
    return ComponentLabeling(adj.level, labels.astype(np.int64), np.bincount(labels, minlength=count).tolist())


def eccentricity(d: DistanceMatrix, i: int) -> float:
    """Largest distance from simplex ``i`` within its component (0 for a
    singleton)."""
    row = d.dist[i]
    return float(row[np.isfinite(row)].max())


def eccentricities(d: DistanceMatrix) -> np.ndarray:
    masked = np.where(np.isfinite(d.dist), d.dist, -np.inf)
    return masked.max(axis=1) if d.n else np.zeros(0)


def diameter(d: DistanceMatrix) -> float:
    """Maximum eccentricity over all simplices (nan for an empty level)."""
    if d.n == 0:
        return math.nan
    return float(eccentricities(d).max())


def average_path_length(d: DistanceMatrix) -> float:
    """Mean distance over all unordered pairs; the level must be connected.

    Undefined (nan) with fewer than two simplices.  On a connected level the
    value lies in [1, (n+1)/3].
    """
    n = d.n
    if n < 2:
        return math.nan
    off = d.dist[~np.eye(n, dtype=bool)]
    if not np.isfinite(off).all():
        raise ValueError("level is not connected; use average_path_length_by_component")
    return float(off.sum() / (n * (n - 1)))


def average_path_length_by_component(
    d: DistanceMatrix, labeling: ComponentLabeling
) -> list[float]:
    """Per-component mean pairwise distance (nan for singleton components)."""
    out: list[float] = []
    for comp, size in enumerate(labeling.sizes):
        if size < 2:
            out.append(math.nan)
            continue
        idx = np.flatnonzero(labeling.labels == comp)
        block = d.dist[np.ix_(idx, idx)]
        out.append(float(block.sum() / (size * (size - 1))))
    return out


@dataclass(eq=False)
class LevelPathSummary:
    """Streaming per-level path statistics (no full matrix kept)."""

    level: int
    n: int
    component_sizes: list[int]
    diameter: float
    avg_path_lengths: list[float]  # per component, nan for singletons
    eccentricities: np.ndarray


def level_summary(c: CliqueComplex, k: int) -> LevelPathSummary:
    """Component count/sizes, diameter, per-component average path length and
    all eccentricities at level k, one block of distance rows at a time."""
    adj = combined_adjacency(c, k)
    labeling = components_of(adj)
    n = adj.n
    ecc = np.zeros(n)
    comp_sums = np.zeros(labeling.n_components)
    for block, rows in distance_blocks(adj.mat):
        rows[~np.isfinite(rows)] = 0.0
        ecc[block] = rows.max(axis=1)
        np.add.at(comp_sums, labeling.labels[block], rows.sum(axis=1))

    avg = [
        float(comp_sums[i]) / (size * (size - 1)) if size >= 2 else math.nan
        for i, size in enumerate(labeling.sizes)
    ]
    diam = float(ecc.max()) if n else math.nan
    return LevelPathSummary(k, n, labeling.sizes, diam, avg, ecc)
