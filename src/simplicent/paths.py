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

Each level's distance rows are reduced in one cached pass, which
:func:`level_summary`, closeness and harmonic closeness all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.sparse import csgraph

from .adjacency import combined_adjacency
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
class ComponentLabeling:
    """Connected components of the level-k simplices."""

    level: int
    labels: np.ndarray  # component id per simplex, 0-based
    sizes: list[int]

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def shortest_distances(c: CliqueComplex, k: int, max_size: int = DEFAULT_MATRIX_LIMIT) -> np.ndarray:
    """The full level-k distance matrix, float64 with inf across components
    (guarded by ``max_size``; :func:`level_summary` streams the summaries of
    very large levels)."""
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
    return dist


def connected_components(c: CliqueComplex, k: int) -> ComponentLabeling:
    """Partition the k-simplices into maximal sets at finite mutual distance,
    numbered in order of each component's lowest ID, the order in which
    ``csgraph`` meets them."""
    count, labels = csgraph.connected_components(combined_adjacency(c, k).mat, directed=False)
    return ComponentLabeling(k, labels.astype(np.int64), np.bincount(labels, minlength=count).tolist())


@dataclass(eq=False)
class LevelPathSummary:
    """Per-level path statistics (no full matrix kept); ``eccentricities``
    is the read-only array of the level's cached distance pass."""

    level: int
    n: int
    component_sizes: list[int]
    diameter: float
    avg_path_lengths: list[float]  # per component, nan for singletons
    eccentricities: np.ndarray


def _level_distances(c: CliqueComplex, k: int) -> tuple[ComponentLabeling, np.ndarray, np.ndarray, np.ndarray]:
    """The one distance pass of level k: its components, and per simplex the
    eccentricity, the farness (sum of finite distances) and the harmonic sum
    (1/inf == 0).  Computed on first use and cached on the complex with
    read-only arrays."""
    cached = c._distances.get(k)
    if cached is None:
        adj = combined_adjacency(c, k)
        labeling = connected_components(c, k)
        ecc, farness, harmonic = np.zeros(adj.n), np.zeros(adj.n), np.zeros(adj.n)
        for block, rows in distance_blocks(adj.mat):
            harmonic[block] = np.divide(1.0, rows, out=np.zeros_like(rows), where=rows > 0).sum(axis=1)
            rows[~np.isfinite(rows)] = 0.0
            ecc[block] = rows.max(axis=1)
            farness[block] = rows.sum(axis=1)
        for arr in (labeling.labels, ecc, farness, harmonic):
            arr.flags.writeable = False
        cached = c._distances[k] = (labeling, ecc, farness, harmonic)
    return cached


def level_summary(c: CliqueComplex, k: int) -> LevelPathSummary:
    """Component sizes, diameter, per-component average path length and all
    eccentricities at level k, read from :func:`_level_distances`."""
    labeling, ecc, farness, _ = _level_distances(c, k)
    sizes = list(labeling.sizes)
    comp_sums = np.bincount(labeling.labels, weights=farness, minlength=len(sizes))
    avg = [float(comp_sums[i]) / (size * (size - 1)) if size >= 2 else math.nan for i, size in enumerate(sizes)]
    return LevelPathSummary(k, ecc.size, sizes, float(ecc.max()) if ecc.size else math.nan, avg, ecc)
