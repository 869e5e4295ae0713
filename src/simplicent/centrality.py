"""Centrality measures for the k-simplices of a clique complex.

Every measure is evaluated on the combined level-k adjacency ``A``.  The
shortest-path family (degree, closeness, harmonic closeness, betweenness)
calls the block-of-sources traversal kernels of :mod:`simplicent.paths`;
the spectral family (Katz, eigenvector, subgraph centrality,
communicability) works on the same matrix:

* Katz solves ``(I - alpha*A) x = 1`` for ``0 < alpha < 1/lambda_1`` by
  conjugate gradients,
* eigenvector centrality is the principal eigenvector of ``A``,
* subgraph centrality is ``exp(A)_ii`` and communicability ``exp(A)_ij``.

Katz and eigenvector centrality need only lambda_1 and its (Perron)
eigenspace, which are found iteratively, one connected component at a time,
at every level size.  The exponential measures read ``exp(A)`` from one
symmetric eigendecomposition of the level, allowed up to ``dense_limit``
simplices, computed on first use and kept on the complex in a single slot
that a request for another level replaces.  Above the limit the exponential
diagonal falls back to a per-simplex truncated series whose order is chosen
from the remainder bound ``e**lam * lam**(L+1) / (L+1)! < tol``.  Where
``e**lambda_1`` overflows float64 the exponential measures refuse the level
instead of returning ``inf``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, cg, eigsh

from .adjacency import LevelAdjacency, combined_adjacency, simplex_degrees
from .complexes import CliqueComplex
from .errors import NonConvergenceError
from .paths import components_of, distance_blocks, pair_dependencies

DEFAULT_DENSE_LIMIT = 5_000
KATZ_RTOL = 1e-13  # conjugate gradients stop once ||r||_2 <= KATZ_RTOL * ||1||_2
KATZ_RESIDUAL = 1e-10  # largest true residual accepted, relative to max(1, max|x|)
EXP_MAX = math.log(sys.float_info.max)  # about 709.78: exp overflows float64 above it

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
    ``eigenvalues[j]``.  Both arrays are read-only."""

    level: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def degree_centrality(c: CliqueComplex, k: int) -> CentralityVector:
    """Number of adjacent k-simplices, per simplex."""
    return CentralityVector(k, "degree", simplex_degrees(c, k))


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


def spectral_decomposition(
    c: CliqueComplex, k: int, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the combined level-k adjacency.

    The result is kept on the complex in one slot, which a request for
    another level replaces: callers loop over levels outermost, so each level
    is decomposed once and only one n x n eigenvector matrix is held.
    """
    n = c.n_simplices(k)
    if n > dense_limit:
        raise ValueError(
            f"level {k} has {n} simplices, above the dense spectral limit "
            f"{dense_limit}; use the series-based routines instead"
        )
    spec = c._spectrum
    if spec is None or spec.level != k:
        dense = combined_adjacency(c, k).mat.astype(np.float64).toarray()
        w, v = eigh(dense, driver="evd", overwrite_a=True, check_finite=False)
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        w.flags.writeable = v.flags.writeable = False
        spec = c._spectrum = SpectralDecomposition(k, w, v)
    return spec


def _exp_spectrum(spec: SpectralDecomposition) -> np.ndarray:
    """``exp`` of the eigenvalues, refusing a level where ``e**lambda_1``
    (the scale of every entry of ``exp(A)``) overflows float64."""
    if spec.eigenvalues.size and spec.eigenvalues[0] > EXP_MAX:
        raise ValueError(
            f"exp(A) at level {spec.level} overflows float64: lambda_1 = "
            f"{spec.eigenvalues[0]:.6g} exceeds log(max float) = {EXP_MAX:.2f}"
        )
    return np.exp(spec.eigenvalues)


def _principal_by_component(adj: LevelAdjacency) -> tuple[float, np.ndarray]:
    """lambda_1 and the all-ones vector projected onto its eigenspace, found
    iteratively one connected component at a time.

    Each component's largest eigenvalue is simple, with a positive (Perron)
    eigenvector u, so the dominant eigenspace of A is spanned by the u of the
    components that attain lambda_1, and the projection is the sum of
    u * (u . 1) over them; an iteration on the whole matrix would return an
    arbitrary vector of a degenerate eigenspace instead.  A component's
    largest eigenvalue is at most its largest degree, so components are
    visited by descending largest degree until none can reach lambda_1.  A
    level without adjacencies has lambda_1 = 0 and returns the zero vector.
    """
    if adj.mat.nnz == 0:
        return 0.0, np.zeros(adj.n)
    labels = components_of(adj).labels
    mat = adj.mat.astype(np.float64)
    reach = np.zeros(labels.max() + 1)
    np.maximum.at(reach, labels, adj.degrees())
    found = []
    lam = 0.0
    for comp in np.argsort(-reach, kind="stable"):
        if reach[comp] == 0 or reach[comp] < lam - 1e-9 * max(1.0, lam):
            break
        idx = np.flatnonzero(labels == comp)
        try:
            w, v = eigsh(mat[idx][:, idx], k=1, which="LA", v0=np.ones(idx.size))
        except ArpackNoConvergence as exc:  # pragma: no cover - rare
            raise NonConvergenceError("principal eigenpair iteration did not converge") from exc
        found.append((float(w[0]), idx, v[:, 0]))
        lam = max(lam, float(w[0]))
    vec = np.zeros(adj.n)
    for w, idx, u in found:
        if w >= lam - 1e-9 * max(1.0, lam):
            vec[idx] = u * u.sum()
    return lam, vec


def katz(c: CliqueComplex, k: int, alpha: float | None = None) -> CentralityVector:
    """Damped walk-sum centrality ``x = (I - alpha*A)^-1 1``.

    ``alpha`` must lie in (0, 1/lambda_1); the default is 0.5/lambda_1, safely
    inside the convergence region.  With an all-isolated level every score is
    1 for any positive alpha.  lambda_1 is found iteratively, one connected
    component at a time, and the system is solved by conjugate gradients; a
    solve whose true residual stays large raises NonConvergenceError.
    """
    adj = combined_adjacency(c, k)
    n = adj.n
    lam = _principal_by_component(adj)[0]
    if alpha is None:
        alpha = 0.5 / lam if lam > 0 else 0.5
    if alpha <= 0 or (lam > 0 and alpha >= 1.0 / lam):
        upper = (1.0 / lam) if lam > 0 else math.inf
        raise ValueError(f"katz alpha must satisfy 0 < alpha < {upper} (got {alpha})")
    params = {"alpha": alpha, "lambda1": lam}
    if n == 0:
        return CentralityVector(k, "katz", np.zeros(0), params=params)
    # Every eigenvalue w of A has |w| <= lambda_1, so for 0 < alpha < 1/lambda_1
    # the eigenvalues 1 - alpha*w of the system lie in (0, 2): it is symmetric
    # positive definite.
    system = sparse.identity(n, format="csr") - alpha * adj.mat.astype(np.float64)
    ones = np.ones(n)
    scores, _ = cg(system, ones, rtol=KATZ_RTOL, atol=0.0)
    residual = float(np.abs(ones - system @ scores).max())
    if not residual <= KATZ_RESIDUAL * max(1.0, float(np.abs(scores).max())):
        raise NonConvergenceError(
            f"katz solve at level {k} did not converge: residual {residual:.3g} at alpha={alpha:.6g}"
        )
    return CentralityVector(k, "katz", scores, params=params)


def eigenvector_centrality(c: CliqueComplex, k: int) -> CentralityVector:
    """Principal eigenvector of the combined adjacency, with nonnegative
    entries and unit Euclidean norm: the all-ones vector projected onto the
    dominant eigenspace, found iteratively one connected component at a time,
    so a degenerate lambda_1 still gives the nonnegative limit of A^m 1.  A
    level with no adjacencies (lambda_1 = 0) has no principal eigenvector and
    is rejected.
    """
    adj = combined_adjacency(c, k)
    if adj.mat.nnz == 0:
        raise ValueError("no principal eigenvector at this level (lambda_1 = 0)")
    lam, vec = _principal_by_component(adj)
    vec = np.where(np.abs(vec) < 1e-14, 0.0, vec)
    vec = vec / np.linalg.norm(vec)
    return CentralityVector(k, "eigenvector", vec, params={"lambda1": lam})


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
    The dense method raises ValueError where ``e**lambda_1`` overflows
    float64 (lambda_1 above about 709.78).
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
        spec = spectral_decomposition(c, k, dense_limit=max(dense_limit, n))
        scores = (spec.eigenvectors**2) @ _exp_spectrum(spec)
        return CentralityVector(k, "subgraph", scores, params={"method": "dense"})
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    lam = _principal_by_component(adj)[0]
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
    simplices i and j.  Refuses a level whose ``e**lambda_1`` overflows, as
    :func:`subgraph_centrality` does."""
    spec = spectral_decomposition(c, k, dense_limit)
    return float((spec.eigenvectors[i] * spec.eigenvectors[j]) @ _exp_spectrum(spec))


def compute(
    c: CliqueComplex,
    k: int,
    measure: str,
    *,
    normalized: bool = True,
    alpha: float | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> CentralityVector:
    """Dispatch a measure by name (see :data:`MEASURES`)."""
    if measure == "degree":
        return degree_centrality(c, k)
    if measure == "closeness":
        return closeness(c, k, normalized=normalized)
    if measure == "harmonic":
        return harmonic_closeness(c, k)
    if measure == "betweenness":
        return betweenness(c, k, normalized=normalized)
    if measure == "katz":
        return katz(c, k, alpha=alpha)
    if measure == "eigenvector":
        return eigenvector_centrality(c, k)
    if measure == "subgraph":
        return subgraph_centrality(c, k, dense_limit=dense_limit)
    raise ValueError(f"unknown measure {measure!r}; known: {', '.join(MEASURES)}")
