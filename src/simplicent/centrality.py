"""Centrality measures for the k-simplices of a clique complex.

Every measure is evaluated on the combined level-k adjacency ``A``.  The
shortest-path family reads :mod:`simplicent.paths`: closeness and harmonic
closeness come from the level's cached distance pass, betweenness from the
block-of-sources Brandes kernel.  The spectral family (Katz, eigenvector,
subgraph centrality, communicability) works on the same matrix:

* Katz solves ``(I - alpha*A) x = 1`` for ``0 < alpha < 1/lambda_1`` by
  conjugate gradients,
* eigenvector centrality is the principal eigenvector of ``A``,
* subgraph centrality is ``exp(A)_ii`` and communicability ``exp(A)_ij``.

Katz and eigenvector centrality need only lambda_1 and its (Perron)
eigenspace, which are found iteratively, one connected component at a time,
at every level size.  The exponential measures read ``exp(A)`` from one exact
symmetric eigendecomposition of the level, computed on first use and kept on
the complex in a single slot that a request for another level replaces.  An
isolated simplex, one with an empty row of A, is an eigenvector for 0 on its
own, so exp(A) is 1 on its diagonal and 0 elsewhere in its row; the
decomposition covers only the other simplices, at most ``dense_limit`` of
them.  With t the number of cofaces of each k-simplex, the combined
adjacency is

    A_k = B_k^T B_k - B_{k+1} B_{k+1}^T + diag(t) - (k+1) I,

so every vector that lives on the coface-free k-simplices and that B_k maps
to zero is an eigenvector of A_k for -(k+1): at k = 1 the line-graph
eigenvalue -2 (Cvetkovic, Rowlinson and Simic, *Spectral Generalizations of
Line Graphs*, 2004).  The decomposition splits that eigenspace off exactly
and runs the dense eigensolver on the rest of the covered simplices only.
Where ``e**lambda_1`` overflows float64 the exponential measures refuse the
level instead of returning ``inf``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr
from scipy.linalg.blas import dgemm
from scipy.sparse.linalg import ArpackNoConvergence, cg, eigsh

from .adjacency import combined_adjacency, simplex_degrees
from .complexes import CliqueComplex
from .errors import NonConvergenceError
from .paths import _level_distances, connected_components, pair_dependencies

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
    combined level-k adjacency restricted to ``simplices``, the ascending IDs
    of the k-simplices that have a neighbour.  Row r of ``eigenvectors``
    belongs to simplex ``simplices[r]``, and column j pairs with
    ``eigenvalues[j]``.  Each simplex left out has an empty row of A, so it
    adds the eigenpair (0, e_i).  All three arrays are read-only."""

    level: int
    simplices: np.ndarray
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
    labeling, _, farness, _ = _level_distances(c, k)
    reach = np.asarray(labeling.sizes, dtype=np.float64)[labeling.labels] - 1.0
    numerator = reach if normalized else 1.0
    scores = np.divide(numerator, farness, out=np.zeros_like(farness), where=reach > 0)
    note = "per-component; singleton components scored 0"
    return CentralityVector(k, "closeness", scores, normalized=normalized, note=note)


def harmonic_closeness(c: CliqueComplex, k: int) -> CentralityVector:
    """Sum of reciprocal distances to all other simplices (1/inf == 0), which
    stays well defined on disconnected levels."""
    _, _, _, harmonic = _level_distances(c, k)
    return CentralityVector(k, "harmonic", harmonic.copy())


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


def covered_simplices(c: CliqueComplex, k: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Ascending IDs of the k-simplices that have a neighbour at level k, the
    ones the eigendecomposition covers.  Raises ValueError, naming the
    ``--dense-limit`` option, when there are more than ``dense_limit``."""
    covered = np.flatnonzero(np.diff(combined_adjacency(c, k).mat.indptr))
    if covered.size > dense_limit:
        raise ValueError(
            f"level {k} has {covered.size} simplices with a neighbour, above the dense "
            f"spectral limit {dense_limit}; raise it with --dense-limit"
        )
    return covered


def spectral_decomposition(
    c: CliqueComplex, k: int, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the combined level-k adjacency on the
    simplices given by :func:`covered_simplices`.

    Let P be the covered k-simplices without a coface (k >= 1) and m the
    number of (k-1)-faces they touch.  A vector x on P has B_{k+1}^T x = 0
    and t x = 0, so A x = B_k^T B_k x - (k+1) x, and x is an eigenvector for
    -(k+1) whenever B_k x = 0.  When |P| > m, a full QR factorization
    B_k[faces, P]^T = Q R gives |P| - m such eigenvectors, the trailing
    columns of Q, and reduces the rest of the covered simplices to the
    symmetric matrix

        H = [[R1 R1^T - (k+1) I,  R1 B_k[faces, rest]],
             [its transpose,      A[rest, rest]     ]],   R1 = R[:m],

    which is the one matrix handed to ``eigh``.  Its eigenvectors Y map back
    as [Q[:, :m] Y[:m]; Y[m:]].  At k = 0, or when |P| <= m, nothing is split
    off and H is A on the covered simplices.  Products of dense blocks go
    through scipy's BLAS, not numpy's ``@``, whose separate thread pool
    slowed small levels down at two threads.

    The result is kept on the complex in one slot, which a request for
    another level replaces: callers loop over levels outermost, so each level
    is decomposed once and only one eigenvector matrix is held.
    """
    covered = covered_simplices(c, k, dense_limit)
    spec = c._spectrum
    if spec is None or spec.level != k:
        spec = c._spectrum = _decompose(c, k, covered)
    return spec


def _decompose(c: CliqueComplex, k: int, covered: np.ndarray) -> SpectralDecomposition:
    mat = combined_adjacency(c, k).mat
    n = mat.shape[0]
    p, m = covered[:0], 0  # coface-free simplices and the count of faces they touch, when B_k has a kernel there
    if k >= 1:
        faces_of = c.boundary(k).T.tocsr()  # row s: the k+1 (k-1)-faces of k-simplex s
        face_ids = faces_of.indices.reshape(n, k + 1)
        free = covered[np.diff(c.boundary(k + 1).indptr)[covered] == 0]
        faces = np.unique(face_ids[free])
        if free.size > faces.size:
            p, m = free, faces.size
    rest = np.setdiff1d(covered, p, assume_unique=True)
    # H = W^T A W for W = [Q[:, :m] on P; identity on rest].  It is filled in
    # Fortran order, so that eigh overwrites it without a copy, and eigh reads
    # only its lower triangle.
    h = np.zeros((m + rest.size, m + rest.size), order="F")
    at = np.full(n, -1)  # row of H that holds each simplex of rest
    at[rest] = np.arange(m, m + rest.size)
    coo = mat.tocoo()
    keep = (at[coo.row] >= 0) & (at[coo.col] >= 0)
    h[at[coo.row[keep]], at[coo.col[keep]]] = coo.data[keep]
    if p.size:
        # B_k[faces, P]^T = Q R, so B_k vanishes on the columns Q[:, m:] (placed on P).
        x = np.zeros((p.size, m), order="F")
        x[np.arange(p.size)[:, None], np.searchsorted(faces, face_ids[p])] = 1.0
        q, r = qr(x, mode="full", overwrite_a=True, check_finite=False)
        r1 = r[:m]
        h[:m, :m] = dgemm(1.0, r1, r1, trans_b=True)
        h[np.arange(m), np.arange(m)] -= k + 1
        h[m:, :m] = faces_of[rest][:, faces] @ r1.T
    w, y = eigh(h, driver="evd", overwrite_a=True, check_finite=False)
    w, y = w[::-1], y[:, ::-1]
    if not p.size:
        # C-ordered copies, as the split case writes: with the reversed view of
        # eigh's Fortran output kept instead, peak memory of the spectral-er
        # benchmark rose by one 2000 x 2000 array in about half of its runs
        values, vectors = w.copy(), y.copy()
    else:
        # Descending order: H's eigenvalues above -(k+1), the d split-off ones, the rest of H's.
        d = p.size - m
        above = int(np.count_nonzero(w > -(k + 1)))
        values = np.full(covered.size, -(k + 1.0))
        values[:above], values[above + d:] = w[:above], w[above:]
        vectors = np.zeros((covered.size, covered.size))
        top, low = np.searchsorted(covered, p), np.searchsorted(covered, rest)
        for rows, block in ((low, y[m:]), (top, dgemm(1.0, q[:, :m], y[:m]))):
            vectors[rows, :above], vectors[rows, above + d:] = block[:, :above], block[:, above:]
        vectors[top, above:above + d] = q[:, m:]
    covered.flags.writeable = values.flags.writeable = vectors.flags.writeable = False
    return SpectralDecomposition(k, covered, values, vectors)


def _exp_spectrum(spec: SpectralDecomposition) -> np.ndarray:
    """``exp`` of the eigenvalues, refusing a level where ``e**lambda_1``
    (the scale of every entry of ``exp(A)``) overflows float64."""
    if spec.eigenvalues.size and spec.eigenvalues[0] > EXP_MAX:
        raise ValueError(
            f"exp(A) at level {spec.level} overflows float64: lambda_1 = "
            f"{spec.eigenvalues[0]:.6g} exceeds log(max float) = {EXP_MAX:.2f}"
        )
    return np.exp(spec.eigenvalues)


def _principal_by_component(c: CliqueComplex, k: int) -> tuple[float, np.ndarray]:
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
    adj = combined_adjacency(c, k)
    if adj.mat.nnz == 0:
        return 0.0, np.zeros(adj.n)
    labels = connected_components(c, k).labels
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
    lam = _principal_by_component(c, k)[0]
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
    lam, vec = _principal_by_component(c, k)
    vec = np.where(np.abs(vec) < 1e-14, 0.0, vec)
    vec = vec / np.linalg.norm(vec)
    return CentralityVector(k, "eigenvector", vec, params={"lambda1": lam})


def subgraph_centrality(c: CliqueComplex, k: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> CentralityVector:
    """Diagonal of ``exp(A)`` at level k: the closed-walk weight of each
    simplex, with short walks weighted most.  Isolated simplices score
    exactly 1; the others are read from :func:`spectral_decomposition`, which
    covers at most ``dense_limit`` simplices.  Raises ValueError where
    ``e**lambda_1`` overflows float64 (lambda_1 above about 709.78).
    """
    spec = spectral_decomposition(c, k, dense_limit)
    scores = np.ones(c.n_simplices(k))
    scores[spec.simplices] = (spec.eigenvectors**2) @ _exp_spectrum(spec)
    return CentralityVector(k, "subgraph", scores)


def communicability(
    c: CliqueComplex, k: int, i: int, j: int, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> float:
    """Entry ``exp(A)_ij``: the weighted count of walks joining simplices i
    and j, exactly 1 (i = j) or 0 when either is isolated.  Refuses a level
    whose ``e**lambda_1`` overflows, as :func:`subgraph_centrality` does."""
    n = c.n_simplices(k)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"simplex IDs {i} and {j} must lie in 0..{n - 1} at level {k}")
    spec = spectral_decomposition(c, k, dense_limit)
    exp_w = _exp_spectrum(spec)
    ri, rj = np.searchsorted(spec.simplices, (i, j))
    if i not in spec.simplices[ri:ri + 1] or j not in spec.simplices[rj:rj + 1]:
        return float(i == j)
    return float((spec.eigenvectors[ri] * spec.eigenvectors[rj]) @ exp_w)


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
