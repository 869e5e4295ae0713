"""Centrality measures for the k-simplices of a clique complex.

Every measure is evaluated on the combined level-k adjacency.  The
shortest-path family (degree, closeness, harmonic closeness, betweenness)
calls the block-of-sources traversal kernels of :mod:`simplicent.paths`;
the spectral family (Katz, eigenvector, subgraph centrality,
communicability) works on the same matrix through its eigendecomposition:

* Katz solves ``(I - alpha*A) x = 1`` for ``0 < alpha < 1/lambda_1``,
* eigenvector centrality is the principal eigenvector of ``A``,
* subgraph centrality is ``exp(A)_ii`` and communicability ``exp(A)_ij``.

Dense spectral routines are used up to ``dense_limit`` simplices; above it
the principal eigenpair is found iteratively, and the exponential diagonal
falls back to a per-simplex truncated series whose order is chosen from the
remainder bound ``e**lam * lam**(L+1) / (L+1)! < tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, spsolve

from .adjacency import combined_adjacency
from .complexes import CliqueComplex
from .errors import NonConvergenceError
from .paths import components_of, distance_blocks, pair_dependencies

DEFAULT_DENSE_LIMIT = 5_000

MEASURES = (
    "degree",
    "closeness",
    "harmonic",
    "betweenness",
    "katz",
    "eigenvector",
    "subgraph",
)


@dataclass(eq=False)
class CentralityVector:
    """One score per simplex ID at a single level."""

    level: int
    measure: str
    scores: np.ndarray
    params: dict = field(default_factory=dict)
    normalized: bool = False
    note: str = ""

    @property
    def n(self) -> int:
        return self.scores.shape[0]


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors of the
    combined level-k adjacency; column j of ``eigenvectors`` pairs with
    ``eigenvalues[j]``."""

    level: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def degree_centrality(c: CliqueComplex, k: int) -> CentralityVector:
    """Number of adjacent k-simplices, per simplex."""
    adj = combined_adjacency(c, k)
    return CentralityVector(k, "degree", adj.degrees())


def closeness(c: CliqueComplex, k: int, normalized: bool = True) -> CentralityVector:
    """Reciprocal of the summed distances to the other simplices.

    Evaluated within each connected component; the normalized variant
    multiplies by (component size - 1), so scores from different components
    are not globally comparable.  Singleton components score 0.
    """
    adj = combined_adjacency(c, k)
    labeling = components_of(adj)
    reach = np.asarray(labeling.sizes, dtype=np.float64)[labeling.labels] - 1.0
    scores = np.zeros(adj.n)
    for block, rows in distance_blocks(adj.mat):
        farness = np.where(np.isfinite(rows), rows, 0.0).sum(axis=1)
        numerator = reach[block] if normalized else 1.0
        scores[block] = np.divide(numerator, farness, out=np.zeros_like(farness), where=reach[block] > 0)
    note = "per-component; singleton components scored 0"
    return CentralityVector(k, "closeness", scores, normalized=normalized, note=note)


def harmonic_closeness(c: CliqueComplex, k: int) -> CentralityVector:
    """Sum of reciprocal distances to all other simplices (1/inf == 0), which
    stays well defined on disconnected levels."""
    adj = combined_adjacency(c, k)
    scores = np.zeros(adj.n)
    for block, rows in distance_blocks(adj.mat):
        inverse = np.divide(1.0, rows, out=np.zeros_like(rows), where=rows > 0)
        scores[block] = inverse.sum(axis=1)
    return CentralityVector(k, "harmonic", scores)


def betweenness(c: CliqueComplex, k: int, normalized: bool = True) -> CentralityVector:
    """Fraction of shortest paths between other simplex pairs passing through
    each simplex (unordered pairs, endpoints excluded), accumulated with
    Brandes' dependency recursion.  Pairs in different components contribute
    nothing.  The normalized variant divides by (n-1)(n-2)/2.
    """
    adj = combined_adjacency(c, k)
    n = adj.n
    if normalized and n < 3:
        raise ValueError("normalized betweenness needs at least 3 simplices")
    g = pair_dependencies(adj.mat) / 2.0  # each unordered pair was seen from both endpoints
    if normalized:
        g = g / ((n - 1) * (n - 2) / 2.0)
    return CentralityVector(k, "betweenness", g, normalized=normalized)


def walk_count(c: CliqueComplex, k: int, m: int) -> np.ndarray:
    """Matrix counting the length-m walks between k-simplices (the m-th power
    of the combined adjacency); mainly an oracle for the spectral measures."""
    if m < 0:
        raise ValueError("walk length must be >= 0")
    adj = combined_adjacency(c, k)
    n = adj.n
    power = np.eye(n, dtype=np.int64)
    mat = adj.mat.astype(np.int64)
    for _ in range(m):
        power = mat.dot(power)
    return np.asarray(power)


def _lambda_max(mat, dense_limit: int) -> float:
    n = mat.shape[0]
    if n == 0 or mat.nnz == 0:
        return 0.0
    if n <= dense_limit:
        return float(np.linalg.eigvalsh(mat.toarray().astype(np.float64)).max())
    try:
        vals = eigsh(
            mat.astype(np.float64), k=1, which="LA", v0=np.ones(n), return_eigenvectors=False
        )
    except ArpackNoConvergence as exc:  # pragma: no cover - rare
        raise NonConvergenceError("principal eigenvalue iteration did not converge") from exc
    return float(vals[0])


def katz(
    c: CliqueComplex,
    k: int,
    alpha: float | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> CentralityVector:
    """Damped walk-sum centrality ``x = (I - alpha*A)^-1 1``.

    ``alpha`` must lie in (0, 1/lambda_1); the default is 0.5/lambda_1, safely
    inside the convergence region.  With an all-isolated level every score is
    1 for any positive alpha.
    """
    adj = combined_adjacency(c, k)
    n = adj.n
    lam = _lambda_max(adj.mat, dense_limit)
    if alpha is None:
        alpha = 0.5 / lam if lam > 0 else 0.5
    if alpha <= 0 or (lam > 0 and alpha >= 1.0 / lam):
        upper = (1.0 / lam) if lam > 0 else math.inf
        raise ValueError(f"katz alpha must satisfy 0 < alpha < {upper} (got {alpha})")
    if n == 0:
        return CentralityVector(k, "katz", np.zeros(0), params={"alpha": alpha, "lambda1": lam})
    if n <= dense_limit:
        system = np.eye(n) - alpha * adj.mat.toarray().astype(np.float64)
        scores = np.linalg.solve(system, np.ones(n))
    else:
        from scipy import sparse

        system = (sparse.eye(n) - alpha * adj.mat.astype(np.float64)).tocsc()
        scores = spsolve(system, np.ones(n))
    return CentralityVector(k, "katz", scores, params={"alpha": alpha, "lambda1": lam})


def eigenvector_centrality(
    c: CliqueComplex, k: int, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> CentralityVector:
    """Principal eigenvector of the combined adjacency: nonnegative entries,
    unit Euclidean norm, sign fixed by making the largest-magnitude entry
    positive.  A level with no adjacencies (lambda_1 = 0) has no principal
    eigenvector and is rejected.
    """
    adj = combined_adjacency(c, k)
    n = adj.n
    if n == 0 or adj.mat.nnz == 0:
        raise ValueError("no principal eigenvector at this level (lambda_1 = 0)")
    if n <= dense_limit:
        w, v = np.linalg.eigh(adj.mat.toarray().astype(np.float64))
        lam = float(w[-1])
        # With a degenerate top eigenvalue (identical components), project the
        # all-ones vector onto the dominant eigenspace: the limit of A^m 1 is
        # nonnegative, which a single eigh column need not be.
        dominant = w >= lam - 1e-9 * max(1.0, abs(lam))
        basis = v[:, dominant]
        vec = basis @ (basis.T @ np.ones(n))
        if np.linalg.norm(vec) < 1e-12:
            vec = v[:, -1]
    else:
        try:
            w, v = eigsh(adj.mat.astype(np.float64), k=1, which="LA", v0=np.ones(n))
        except ArpackNoConvergence as exc:  # pragma: no cover - rare
            raise NonConvergenceError("eigenvector iteration did not converge") from exc
        lam = float(w[0])
        vec = v[:, 0]
    if vec[np.abs(vec).argmax()] < 0:
        vec = -vec
    vec = np.where(np.abs(vec) < 1e-14, 0.0, vec)
    vec = vec / np.linalg.norm(vec)
    return CentralityVector(k, "eigenvector", vec, params={"lambda1": lam})


def spectral_decomposition(
    c: CliqueComplex, k: int, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the combined level-k adjacency."""
    adj = combined_adjacency(c, k)
    if adj.n > dense_limit:
        raise ValueError(
            f"level {k} has {adj.n} simplices, above the dense spectral limit "
            f"{dense_limit}; use the series-based routines instead"
        )
    w, v = np.linalg.eigh(adj.mat.toarray().astype(np.float64))
    return SpectralDecomposition(k, w[::-1].copy(), v[:, ::-1].copy())


def _series_order(lam: float, tol: float) -> int:
    """Smallest L with e**lam * lam**(L+1) / (L+1)! below tol."""
    if lam <= 0:
        return 1
    log_tol = math.log(tol)
    for order in range(1, 1000):
        log_rem = lam + (order + 1) * math.log(lam) - math.lgamma(order + 2)
        if log_rem < log_tol:
            return order
    raise NonConvergenceError("exponential series order exceeds 1000 terms")


def subgraph_centrality(
    c: CliqueComplex,
    k: int,
    method: str = "auto",
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    series_tol: float = 1e-8,
) -> CentralityVector:
    """Diagonal of ``exp(A)`` at level k: the closed-walk weight of each
    simplex, with short walks weighted most.  Isolated simplices score 1.

    ``method`` is ``"dense"`` (spectral), ``"series"`` (per-simplex truncated
    power series, for levels too large to decompose), or ``"auto"`` which
    picks dense below ``dense_limit`` and otherwise refuses with a hint.
    """
    adj = combined_adjacency(c, k)
    n = adj.n
    if method == "auto":
        if n <= dense_limit:
            method = "dense"
        else:
            raise ValueError(
                f"level {k} has {n} simplices, above the dense spectral limit "
                f"{dense_limit}; raise dense_limit (--dense-limit) or pass method='series'"
            )
    if method == "dense":
        decomp = spectral_decomposition(c, k, dense_limit=max(dense_limit, n))
        scores = (decomp.eigenvectors**2) @ np.exp(decomp.eigenvalues)
        return CentralityVector(k, "subgraph", scores, params={"method": "dense"})
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    lam = _lambda_max(adj.mat, dense_limit)
    order = _series_order(lam, series_tol)
    mat = adj.mat.astype(np.float64)

    def diag_entry(i: int) -> float:
        term = np.zeros(n)
        term[i] = 1.0
        total = 1.0
        for step in range(1, order + 1):
            term = mat.dot(term) / step
            total += term[i]
        return total

    scores = np.array([diag_entry(i) for i in range(n)])
    return CentralityVector(
        k, "subgraph", scores, params={"method": "series", "order": order}
    )


def communicability(
    c: CliqueComplex, k: int, i: int, j: int, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> float:
    """Off-diagonal entry ``exp(A)_ij``: the weighted count of walks joining
    simplices i and j."""
    decomp = spectral_decomposition(c, k, dense_limit)
    weights = decomp.eigenvectors[i] * decomp.eigenvectors[j]
    return float(weights @ np.exp(decomp.eigenvalues))


def compute(
    c: CliqueComplex,
    k: int,
    measure: str,
    *,
    normalized: bool = True,
    alpha: float | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    threads: int = 1,
) -> CentralityVector:
    """Dispatch a measure by name (see :data:`MEASURES`).

    ``threads`` is accepted for compatibility and has no effect: every
    measure runs in one thread.
    """
    if measure == "degree":
        return degree_centrality(c, k)
    if measure == "closeness":
        return closeness(c, k, normalized=normalized)
    if measure == "harmonic":
        return harmonic_closeness(c, k)
    if measure == "betweenness":
        return betweenness(c, k, normalized=normalized)
    if measure == "katz":
        return katz(c, k, alpha=alpha, dense_limit=dense_limit)
    if measure == "eigenvector":
        return eigenvector_centrality(c, k, dense_limit=dense_limit)
    if measure == "subgraph":
        return subgraph_centrality(c, k, dense_limit=dense_limit)
    raise ValueError(f"unknown measure {measure!r}; known: {', '.join(MEASURES)}")
