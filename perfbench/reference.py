"""Reference values computed apart from ``simplicent``.

Nothing here imports the library.  The graph comes from the generator's own
edge array, cliques from a plain neighbour-set search (counted again by
networkx), adjacency from the graph test below, distances from
``scipy.sparse.csgraph``, betweenness from networkx, spectra from
``scipy.linalg`` and distribution fits from ``scipy.stats``, so a fault in the
library cannot also hide in its reference.  networkx is imported only where
it is used, after the timed rounds: the library never loads it, and it would
add about 11 MB to the run's ``peak_rss_mb``.

Combined adjacency, the graph test: in a clique complex two distinct
k-simplices (k >= 1) that share k vertices are upper adjacent exactly when
their two non-shared vertices are adjacent in the graph (the union is then a
(k+1)-clique).  So they are combined adjacent exactly when they share k
vertices and the non-shared pair is *not* a graph edge.  Level 0 is the
graph itself.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy import stats as spstats
from scipy.sparse import csgraph
from scipy.sparse.linalg import expm_multiply

import gen


def cliques_by_size(edges: np.ndarray, n: int, max_size: int) -> list[list[tuple[int, ...]]]:
    """Every clique of 1..max_size vertices as a sorted tuple, grouped by
    size: each clique grows by the common neighbours above its last vertex."""
    higher: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges.tolist():
        higher[min(u, v)].add(max(u, v))
    grown = [((v,), higher[v]) for v in range(n)]
    out = [[c for c, _ in grown]]
    for _ in range(max_size - 1):
        grown = [(c + (w,), cand & higher[w]) for c, cand in grown for w in sorted(cand)]
        out.append([c for c, _ in grown])
    return out


def _pack(cols: np.ndarray, base: int) -> np.ndarray:
    """One int64 key per row of small non-negative ints (row order kept)."""
    key = np.zeros(cols.shape[0], dtype=np.int64)
    for j in range(cols.shape[1]):
        key = key * base + cols[:, j]
    return key


class Reference:
    """Independent description of one input graph and its clique complex.

    ``simplices[k]`` is an (N_k, k+1) array of sorted vertex indices, one row
    per (k+1)-clique; ``index[k]`` maps a vertex tuple to its row.  Derived
    quantities (adjacency, distances, spectra, fits) are computed on first
    use and cached per level.
    """

    def __init__(self, edges: np.ndarray, n: int, max_level: int):
        self.n = n
        self.edges = np.sort(edges, axis=1)
        self.max_level = max_level
        self.label_to_vertex = {gen.label(i): i for i in range(n)}
        self.simplices = [
            np.array(sorted(level), dtype=np.int64).reshape(-1, k + 1)
            for k, level in enumerate(cliques_by_size(self.edges, n, max_level + 1))
        ]
        self.index = [
            {tuple(row): i for i, row in enumerate(level.tolist())} for level in self.simplices
        ]
        self._edge_keys = np.sort(_pack(self.edges, n))
        self._adj: dict[int, sparse.csr_matrix] = {}
        self._dist: dict[int, np.ndarray] = {}
        self._spec: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._samples: dict[int, list[tuple[int, float, float]]] = {}
        self._nx_counts: list[int] | None = None
        self._fits: dict[int, dict[str, tuple[float, float] | None]] = {}

    def count(self, k: int) -> int:
        return self.simplices[k].shape[0]

    def networkx_count(self, k: int) -> int:
        """Number of (k+1)-cliques by networkx's ``enumerate_all_cliques``."""
        if self._nx_counts is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            g.add_edges_from(self.edges.tolist())
            counts = [0] * (self.max_level + 2)
            for clique in nx.enumerate_all_cliques(g):  # yields by nondecreasing size
                if len(clique) > self.max_level + 1:
                    break
                counts[len(clique)] += 1
            self._nx_counts = counts
        return self._nx_counts[k + 1]

    def triangles_by_trace(self) -> int:
        """trace(A^3)/6 of the graph adjacency: the number of triangles."""
        a = self.adjacency(0).astype(np.int64)
        return int((a @ a).multiply(a).sum()) // 6

    def is_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        keys = _pack(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), self.n)
        pos = np.searchsorted(self._edge_keys, keys)
        pos = np.minimum(pos, self._edge_keys.size - 1)
        return self._edge_keys[pos] == keys

    def adjacency(self, k: int) -> sparse.csr_matrix:
        """Combined adjacency at level k, by the graph test (0/1, symmetric)."""
        if k in self._adj:
            return self._adj[k]
        s = self.simplices[k]
        size = s.shape[0]
        if k == 0:
            rows, cols = self.edges[:, 0], self.edges[:, 1]
        else:
            width = k + 1
            owner = np.repeat(np.arange(size), width)
            drop = np.tile(np.arange(width), size)
            keep = np.array([[j for j in range(width) if j != d] for d in range(width)])
            faces = s[owner[:, None], keep[drop]]
            other = s[owner, drop]
            key = _pack(faces, self.n)
            order = np.argsort(key, kind="stable")
            key = key[order]
            run = np.unique(key, return_counts=True)[1].max() if key.size else 1
            a_parts, b_parts = [], []
            for off in range(1, run):
                hit = np.flatnonzero(key[:-off] == key[off:])
                a_parts.append(order[hit])
                b_parts.append(order[hit + off])
            a = np.concatenate(a_parts) if a_parts else np.zeros(0, dtype=np.int64)
            b = np.concatenate(b_parts) if b_parts else np.zeros(0, dtype=np.int64)
            apart = ~self.is_edge(other[a], other[b])
            rows, cols = owner[a[apart]], owner[b[apart]]
        data = np.ones(2 * rows.size, dtype=np.int8)
        mat = sparse.csr_matrix(
            (data, (np.concatenate([rows, cols]), np.concatenate([cols, rows]))), shape=(size, size)
        )
        mat.sum_duplicates()
        if mat.nnz and mat.data.max() > 1:
            raise RuntimeError(f"level {k}: a simplex pair was found twice")
        self._adj[k] = mat
        return mat

    def degrees(self, k: int) -> np.ndarray:
        return np.asarray(self.adjacency(k).sum(axis=1)).ravel().astype(np.int64)

    def distances(self, k: int) -> np.ndarray:
        """All-pairs hop distances at level k (inf across components)."""
        if k not in self._dist:
            self._dist[k] = csgraph.shortest_path(self.adjacency(k), directed=False, unweighted=True)
        return self._dist[k]

    def components(self, k: int) -> tuple[int, np.ndarray]:
        return csgraph.connected_components(self.adjacency(k), directed=False)

    def closeness(self, k: int) -> np.ndarray:
        d = self.distances(k)
        finite = np.where(np.isfinite(d), d, 0.0)
        farness = finite.sum(axis=1)
        size = np.isfinite(d).sum(axis=1)
        out = np.zeros(d.shape[0])
        ok = size >= 2
        out[ok] = (size[ok] - 1) / farness[ok]
        return out

    def harmonic(self, k: int) -> np.ndarray:
        d = self.distances(k)
        with np.errstate(divide="ignore"):
            inv = np.where(d > 0, 1.0 / d, 0.0)
        return inv.sum(axis=1)

    def betweenness_total(self, k: int) -> float:
        """Sum of normalized betweenness over the level, by the pair-sum
        identity: each connected unordered pair (s, t) puts d(s,t) - 1
        interior simplices on every shortest path, so the unnormalized scores
        sum to the total of d - 1 over connected pairs."""
        d = self.distances(k)
        n = d.shape[0]
        upper = d[np.triu_indices(n, 1)]
        upper = upper[np.isfinite(upper)]
        return float((upper - 1).sum()) / ((n - 1) * (n - 2) / 2.0)

    def betweenness(self, k: int) -> np.ndarray:
        """Betweenness per simplex by networkx (Brandes), each unordered
        pair counted once, divided by (n-1)(n-2)/2."""
        import networkx as nx

        n = self.count(k)
        raw = nx.betweenness_centrality(nx.from_scipy_sparse_array(self.adjacency(k)), normalized=False)
        return np.array([raw[i] for i in range(n)]) / ((n - 1) * (n - 2) / 2.0)

    def spectrum(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of the level-k adjacency,
        from scipy's LAPACK syevr (relatively robust representations); the
        library calls numpy's syevd."""
        if k not in self._spec:
            dense = self.adjacency(k).toarray().astype(np.float64)
            self._spec[k] = scipy.linalg.eigh(dense)
        return self._spec[k]

    def lambda1(self, k: int) -> float:
        return float(self.spectrum(k)[0][-1])

    def principal_vector(self, k: int) -> np.ndarray:
        """Unit principal eigenvector as the direction of lim A^m 1: the
        all-ones vector projected onto the top eigenspace.  Components that
        do not attain lambda_1 carry exactly zero weight, so their entries,
        which are rounding noise, are set to zero."""
        w, v = self.spectrum(k)
        top = v[:, w >= w[-1] - 1e-9 * max(1.0, abs(w[-1]))]
        vec = top @ (top.T @ np.ones(v.shape[0]))
        n_comp, labels = self.components(k)
        mass = np.bincount(labels, weights=vec**2, minlength=n_comp)
        vec[mass[labels] < 1e-12 * mass.max()] = 0.0
        return vec / np.linalg.norm(vec)

    def subgraph_scaled(self, k: int) -> np.ndarray:
        """diag exp(A - lambda_1 I), finite at any lambda_1; the subgraph
        centrality is this times e**lambda_1."""
        w, v = self.spectrum(k)
        return (v**2) @ np.exp(w - w[-1])

    def subgraph(self, k: int) -> np.ndarray:
        """Subgraph centrality exp(A)_ii (inf where e**lambda_1 overflows)."""
        with np.errstate(over="ignore"):
            return self.subgraph_scaled(k) * np.exp(self.lambda1(k))

    def subgraph_samples(self, k: int, samples: int = 4) -> list[tuple[int, float, float]]:
        """diag exp(A - lambda_1 I) at a few simplices from expm_multiply, a
        Taylor method that never diagonalizes: (simplex, entry, largest
        entry of its column).  The largest and smallest diagonal entries are
        always sampled, the rest drawn with a fixed seed."""
        if k not in self._samples:
            scaled = self.subgraph_scaled(k)
            n = scaled.size
            picks = {int(scaled.argmax()), int(scaled.argmin())}
            picks.update(np.random.default_rng(k).choice(n, size=min(samples, n), replace=False).tolist())
            shifted = (self.adjacency(k).astype(np.float64) - self.lambda1(k) * sparse.eye(n)).tocsr()
            out = []
            for i in sorted(picks):
                e = np.zeros(n)
                e[i] = 1.0
                col = expm_multiply(shifted, e)
                out.append((i, float(col[i]), float(np.abs(col).max())))
            self._samples[k] = out
        return self._samples[k]

    def project(self, k: int, scores: np.ndarray) -> np.ndarray:
        """Node score = mean score of the level-k simplices holding the node."""
        s = self.simplices[k]
        totals = np.zeros(self.n)
        counts = np.zeros(self.n)
        np.add.at(totals, s.ravel(), np.repeat(scores, k + 1))
        np.add.at(counts, s.ravel(), 1.0)
        return np.divide(totals, counts, out=np.zeros(self.n), where=counts > 0)

    def fits(self, k: int) -> dict[str, tuple[float, float] | None]:
        """Maximum-likelihood fits of the level-k degrees by ``scipy.stats``'
        own ``fit``, under the library's documented conventions: degrees
        shifted by +0.5 for gamma when they contain 0, and the generalized
        Pareto and GEV locations pinned at min - 0.5.  Maps each family to
        (lnL, shape) at scipy's optimum, or None when scipy does not converge
        to a finite likelihood.  The shape is in the library's convention."""
        if k not in self._fits:
            x = self.degrees(k).astype(np.float64)
            y = x + (0.5 - x.min() if x.min() <= 0 else 0.0)
            loc = float(x.min()) - 0.5
            families = {  # family: (scipy distribution, sample, fixed location, sign of the shape)
                "gamma": (spstats.gamma, y, 0.0, 1.0),
                "gen-pareto": (spstats.genpareto, x, loc, 1.0),
                "gev": (spstats.genextreme, x, loc, -1.0),
            }
            out: dict[str, tuple[float, float] | None] = {}
            for family, (dist, sample, fixed, sign) in families.items():
                try:
                    with np.errstate(all="ignore"):
                        shape, _, scale = dist.fit(sample, floc=fixed)
                        lnl = float(dist.logpdf(sample, shape, loc=fixed, scale=scale).sum())
                except (ValueError, RuntimeError, FloatingPointError):
                    lnl = math.nan
                out[family] = (lnl, sign * float(shape)) if math.isfinite(lnl) else None
            self._fits[k] = out
        return self._fits[k]
