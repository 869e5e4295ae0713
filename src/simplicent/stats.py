"""Degree distributions, likelihood fits, model selection, rank correlation.

Simplex degrees are integers, while the candidate families are continuous,
so fitting follows fixed conventions, all disclosed on the result:

* on integer-valued samples (degrees) the generalized Pareto and GEV
  locations are pinned at min(sample) - 0.5 -- half a lattice step below the
  smallest observation -- and only shape/scale are estimated (2 parameters);
* on continuous samples the generalized Pareto threshold is pinned at the
  sample minimum, while the GEV location is interior and must be estimated
  (3 parameters);
* gamma and lognormal need positive support, so samples containing zeros
  (integer degrees) are shifted by +0.5, and any other non-positive minimum
  is moved up to 0.5; the shift is reported with the fit;
* exponential, lognormal and normal use their closed-form maximum-likelihood
  estimates; the remaining families run a derivative-free bounded search
  from method-of-moments starts with three restarts;
* every likelihood is a weighted sum over the distinct sample values, with
  the log-densities written in numpy and ``scipy.special`` (``scipy.stats``
  serves only as the tests' oracle).

Model choice ranks by AIC; when the top two are not decisively separated
(``exp((AIC_min - AIC_2)/2) >= 0.01``) the BIC difference decides using the
Kass-Raftery bands (0-2 not significant, 2-6 positive, 6-10 strong, >10
very strong).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

from .adjacency import simplex_degrees
from .centrality import DEFAULT_DENSE_LIMIT, CentralityVector, compute
from .complexes import CliqueComplex
from .essential import project_to_nodes

FAMILIES = ("gen-pareto", "gev", "gamma", "exponential", "lognormal", "normal")

MIN_SAMPLE = 8


@dataclass(eq=False)
class DegreeDistribution:
    """Empirical distribution of the combined simplex degrees at one level."""

    level: int
    sample: np.ndarray
    values: np.ndarray  # sorted distinct degrees
    pdf: np.ndarray  # probability of each distinct degree
    ccdf: np.ndarray  # fraction of simplices with degree >= value


def degree_distribution(c: CliqueComplex, k: int) -> DegreeDistribution:
    if c.n_simplices(k) == 0:
        raise ValueError(f"level {k} is empty; no degree distribution")
    degrees = simplex_degrees(c, k)
    values, counts = np.unique(degrees, return_counts=True)
    pdf = counts / degrees.size
    ccdf = pdf[::-1].cumsum()[::-1]
    return DegreeDistribution(k, degrees, values, pdf, ccdf)


@dataclass
class FitResult:
    """One family's maximum-likelihood fit with its information criteria."""

    family: str
    params: dict[str, float] = field(default_factory=dict)
    n_params: int = 0
    loglik: float = math.nan
    aic: float = math.nan
    bic: float = math.nan
    n: int = 0
    success: bool = False
    message: str = ""
    shift: float = 0.0


def _finish(family: str, params: dict, n_params: int, loglik: float, n: int, shift: float = 0.0) -> FitResult:
    if not math.isfinite(loglik):
        return FitResult(family, params, n_params, n=n, success=False, message="non-finite likelihood", shift=shift)
    return FitResult(
        family,
        params,
        n_params,
        loglik=loglik,
        aic=2 * n_params - 2 * loglik,
        bic=n_params * math.log(n) - 2 * loglik,
        n=n,
        success=True,
        shift=shift,
    )


def _failed(family: str, n: int, message: str) -> FitResult:
    return FitResult(family, n=n, success=False, message=message)


@dataclass(frozen=True, eq=False)
class _Histogram:
    """A sample as its sorted distinct values and their multiplicities; a
    continuous sample has weights 1.  Likelihoods are weighted sums over the
    distinct values, so a fit does not depend on the order of the sample."""

    values: np.ndarray
    weights: np.ndarray
    n: int

    def total(self, per_value) -> float:
        return float(np.dot(self.weights, per_value))

    def moments(self) -> tuple[float, float]:
        mean = self.total(self.values) / self.n
        return mean, self.total((self.values - mean) ** 2) / self.n


def _histogram(sample) -> _Histogram:
    values, counts = np.unique(np.asarray(sample, dtype=np.float64), return_counts=True)
    return _Histogram(values, counts.astype(np.float64), int(counts.sum()))


def _gev_lmoment_start(h: _Histogram) -> tuple[float, float, float]:
    """Hosking's L-moment estimates of the GEV parameters (shape in the
    ``(1 + k(x-mu)/sigma)`` convention, i.e. the extreme-value index).  Each
    distinct value fills the sorted positions [lo, hi), over which the sums
    of i and i(i-1) in the probability-weighted moments have closed forms."""
    n = h.n
    hi = np.cumsum(h.weights)
    lo = hi - h.weights
    b0, var = h.moments()
    b1 = h.total((hi * (hi - 1) - lo * (lo - 1)) / 2) / (n * (n - 1))
    b2 = h.total((hi * (hi - 1) * (hi - 2) - lo * (lo - 1) * (lo - 2)) / 3) / (n * (n - 1) * (n - 2))
    fallback = 0.0, max(math.sqrt(var), 1e-6), b0
    lam2 = 2 * b1 - b0
    if lam2 <= 0:
        return fallback
    tau3 = (6 * b2 - 6 * b1 + b0) / lam2
    z = 2.0 / (3.0 + tau3) - math.log(2) / math.log(3)
    kappa = 7.8590 * z + 2.9554 * z * z  # Hosking's kappa = -extreme-value index
    if abs(kappa) < 1e-6:
        sigma = lam2 / math.log(2)
        return 0.0, sigma, b0 - 0.5772156649 * sigma
    gamma1k = math.gamma(1 + kappa) if kappa > -1 else math.nan
    if not math.isfinite(gamma1k):
        return fallback
    sigma = lam2 * kappa / (gamma1k * (1 - 2.0**-kappa))
    mu = b0 - sigma * (1 - gamma1k) / kappa
    if not (sigma > 0 and math.isfinite(mu)):
        return fallback
    return float(np.clip(-kappa, -4.9, 4.9)), float(sigma), float(mu)


def _gamma_nll(h: _Histogram):
    """-lnL(a, b) of gamma(shape a, scale b) on positive values, from two
    weighted sums: n(ln Γ(a) + a ln b) - (a-1) Σw ln x + Σw x / b."""
    s_x, s_logx = h.total(h.values), h.total(np.log(h.values))

    def nll(theta):
        a, b = theta
        if not (a > 0 and b > 0):
            return math.inf
        return h.n * (float(special.gammaln(a)) + a * math.log(b)) - (a - 1) * s_logx + s_x / b

    return nll


def _genpareto_nll(h: _Histogram, theta, loc: float) -> float:
    """Generalized Pareto (k, sigma) with z = (x - loc)/sigma >= 0, and
    kz >= -1 when k < 0: -lnL = n ln sigma + Σw (1 + 1/k) ln(1 + kz), or
    n ln sigma + Σw z at k = 0."""
    k, sigma = theta
    if not sigma > 0:
        return math.inf
    z = (h.values - loc) / sigma
    if z[0] < 0 or (k < 0 and k * z[-1] < -1):
        return math.inf
    if k == 0:
        return h.n * math.log(sigma) + h.total(z)
    with np.errstate(divide="ignore"):  # ln 0 at the upper endpoint
        return h.n * math.log(sigma) + h.total(special.xlog1py(k + 1, k * z)) / k


def _gev_nll(h: _Histogram, theta, mu: float | None = None) -> float:
    """GEV (k, sigma, mu), or (k, sigma) with mu pinned, with z = (x - mu)/sigma
    and t = 1 + kz > 0: -lnL = n ln sigma + Σw ((1 + 1/k) ln t + t^(-1/k)),
    or n ln sigma + Σw (z + e^(-z)) at k = 0."""
    k, sigma, mu = theta if mu is None else (*theta, mu)
    if not sigma > 0:
        return math.inf
    z = (h.values - mu) / sigma
    with np.errstate(over="ignore"):
        if k == 0:
            return h.n * math.log(sigma) + h.total(z + np.exp(-z))
        if k * z[0 if k > 0 else -1] <= -1:
            return math.inf
        log_t = np.log1p(k * z)
        return h.n * math.log(sigma) + h.total((1 + 1 / k) * log_t + np.exp(-log_t / k))


_INFEASIBLE = 1e12


def _maximize(nll, starts, bounds) -> tuple[np.ndarray | None, float]:
    """Derivative-free bounded minimization of ``nll`` over restarts.

    Out-of-support parameter points yield an infinite negative log-likelihood;
    they are clamped to a large finite penalty so the simplex search can walk
    off the plateau instead of stalling.
    """

    def objective(theta):
        value = float(nll(theta))
        return value if math.isfinite(value) else _INFEASIBLE

    best_x, best_f = None, math.inf
    for start in starts:
        res = optimize.minimize(
            objective,
            np.asarray(start, dtype=np.float64),
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 5_000, "adaptive": True},
        )
        if np.isfinite(res.fun) and res.fun < best_f and res.fun < _INFEASIBLE:
            best_x, best_f = np.asarray(res.x, dtype=np.float64), float(res.fun)
    return best_x, -best_f


def fit_mle(sample, family: str) -> FitResult:
    """Fit one family to a sample by maximum likelihood.

    Samples below 8 points, zero-variance samples (where the family cannot be
    identified), and optimizer failures come back with ``success=False`` and
    are excluded from ranking rather than raising.
    """
    return _fit(_histogram(sample), family)


def fit_all(sample, families=FAMILIES) -> list[FitResult]:
    """Fit every requested family to the same sample, sharing one histogram."""
    h = _histogram(sample)
    return [_fit(h, family) for family in families]


def _fit(h: _Histogram, family: str) -> FitResult:
    n = h.n
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if n < MIN_SAMPLE:
        return _failed(family, n, f"insufficient data (n={n} < {MIN_SAMPLE})")
    mean, var = h.moments()

    if family == "exponential":
        if h.values[0] < 0:
            return _failed(family, n, "negative values unsupported")
        if mean <= 0:
            return _failed(family, n, "degenerate: zero mean")
        return _finish(family, {"mean": mean}, 1, -n * (math.log(mean) + 1.0), n)
    if h.values.size == 1:
        return _failed(family, n, "degenerate: zero variance")
    if family == "normal":
        loglik = -0.5 * n * (math.log(2 * math.pi * var) + 1.0)
        return _finish(family, {"mu": mean, "sigma": math.sqrt(var)}, 2, loglik, n)
    # the positivity shift of the module docstring
    xmin = float(h.values[0])
    shift = 0.5 - xmin if family in ("gamma", "lognormal") and xmin <= 0 else 0.0
    if family == "lognormal":
        mu, log_var = _Histogram(np.log(h.values + shift), h.weights, n).moments()
        loglik = -n * (mu + 0.5 * math.log(2 * math.pi * log_var) + 0.5)
        return _finish(family, {"mu": mu, "sigma": math.sqrt(log_var)}, 2, loglik, n, shift=shift)

    # the rest run the bounded search; integer samples pin the generalized
    # Pareto and GEV locations half a lattice step below the minimum
    integer_sample = bool(np.all(np.mod(h.values, 1.0) == 0.0))
    pinned = xmin - (0.5 if integer_sample else 0.0)
    s0 = math.sqrt(6.0 * var) / math.pi  # Gumbel scale of the sample's variance
    if family == "gamma":
        m = mean + shift
        a0, b0 = m * m / var, var / m
        names, fixed, nll = ("a", "b"), {}, _gamma_nll(_Histogram(h.values + shift, h.weights, n))
        starts = [(a0, b0), (2 * a0, b0 / 2), (max(a0 / 2, 1e-3), 2 * b0)]
        bounds = [(1e-8, None), (1e-8, None)]
    elif family == "gen-pareto":
        m = mean - pinned
        k0 = (1.0 - m * m / var) / 2.0
        names, fixed = ("k", "sigma"), {"theta": pinned}
        nll = functools.partial(_genpareto_nll, h, loc=pinned)
        starts = [(np.clip(k0, -0.9, 4.9), max(m * (1.0 - min(k0, 0.49)), 1e-3)), (0.01, m), (1.0, m / 2)]
        bounds = [(-1.0, 5.0), (1e-8, None)]
    elif integer_sample:
        names, fixed = ("k", "sigma"), {"mu": pinned}
        nll = functools.partial(_gev_nll, h, mu=pinned)
        starts = [(0.1, s0), (0.7, s0), (-0.1, s0)]
        bounds = [(-5.0, 5.0), (1e-8, None)]
    else:
        # continuous samples: the GEV location is interior, not a threshold,
        # so it is estimated alongside shape and scale
        k0, sig0, mu0 = _gev_lmoment_start(h)
        names, fixed = ("k", "sigma", "mu"), {}
        nll = functools.partial(_gev_nll, h)
        starts = [(k0, sig0, mu0), (0.0, s0, mean - 0.5772156649 * s0), (min(k0 + 0.4, 4.9), sig0, mu0)]
        bounds = [(-5.0, 5.0), (1e-8, None), (None, None)]
    theta, loglik = _maximize(nll, starts, bounds)
    if theta is None:
        return _failed(family, n, "optimizer failed")
    return _finish(family, {**dict(zip(names, theta)), **fixed}, len(names), loglik, n, shift=shift)


@dataclass(eq=False)
class ModelSelection:
    """AIC ranking with the BIC tiebreak applied to the top two models."""

    ranked: list[FitResult]  # successful fits, ascending AIC
    delta_aic: list[float]  # exp((AIC_min - AIC_i)/2) per ranked fit
    winner: str | None
    stars: str  # "" decisive, "*" strong/very strong BIC, "**" positive BIC
    verdict: str
    delta_bic: float | None
    label: str  # e.g. "gamma", "gev*", "gen-pareto/gamma**", "NA"


def select_model(fits: list[FitResult]) -> ModelSelection:
    """Pick the best-supported family from a battery of fits.

    The AIC ranking is decisive when ``exp((AIC_min - AIC_2)/2) < 0.01``;
    otherwise the BIC difference of the two leaders is read against the
    Kass-Raftery bands, and below 2 the selection is undecided (NA).
    """
    ranked = sorted((f for f in fits if f.success), key=lambda f: f.aic)
    if not ranked:
        return ModelSelection([], [], None, "", "NA: all fits failed", None, "NA")
    aic_min = ranked[0].aic
    delta_aic = [math.exp((aic_min - f.aic) / 2.0) for f in ranked]
    if len(ranked) == 1:
        only = ranked[0]
        return ModelSelection(ranked, delta_aic, only.family, "", "single successful fit", None, only.family)
    first, second = ranked[0], ranked[1]
    if delta_aic[1] < 0.01:
        return ModelSelection(ranked, delta_aic, first.family, "", "decisive by AIC", None, first.family)
    delta_bic = abs(first.bic - second.bic)
    bic_winner = first if first.bic <= second.bic else second
    if delta_bic >= 6:
        band = "very strong" if delta_bic > 10 else "strong"
        return ModelSelection(
            ranked, delta_aic, bic_winner.family, "*", f"{band} by BIC", delta_bic, f"{bic_winner.family}*"
        )
    if delta_bic >= 2:
        label = f"{first.family}/{second.family}**"
        return ModelSelection(ranked, delta_aic, bic_winner.family, "**", "positive by BIC", delta_bic, label)
    return ModelSelection(ranked, delta_aic, None, "", "not significant (NA)", delta_bic, "NA")


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks, with sorted neighbours tied when their gap is at most
    1e-12 * max(|neighbours|) + 1e-13 * max|x|: scores equal in exact
    arithmetic must not be ordered by their rounding noise."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    finite = np.isfinite(xs)
    floor = 1e-13 * np.abs(xs[finite]).max(initial=0.0)
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.diff(xs) <= 1e-12 * np.maximum(np.abs(xs[1:]), np.abs(xs[:-1])) + floor
    tied = (xs[1:] == xs[:-1]) | (near & finite[1:] & finite[:-1])
    group = np.concatenate([[0], np.cumsum(~tied)])
    sizes = np.bincount(group)
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ranks = np.empty(x.size)
    ranks[order] = (first + (sizes + 1) / 2.0)[group]
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties, near-equal
    scores counting as tied (see :func:`_average_ranks`); nan when either
    input holds a nan or has zero rank variance."""
    a = np.asarray(getattr(x, "scores", x), dtype=np.float64)
    b = np.asarray(getattr(y, "scores", y), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("inputs must have the same length")
    if a.size < 2:
        raise ValueError("need at least two observations")
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    ra, rb = _average_ranks(a), _average_ranks(b)
    if ra.std() == 0 or rb.std() == 0:
        return math.nan
    return float(np.corrcoef(ra, rb)[0, 1])


@dataclass(eq=False)
class CorrelationTable:
    """Pairwise Spearman coefficients for (level, measure) rankings.

    Intra-level entries correlate the simplex-level vectors directly;
    inter-level entries correlate node projections (the mean score of the
    simplices containing each node).  ``averages[(k1, k2)]`` holds the block
    means, for the blocks that hold a pair; any nan entry propagates into its
    block average.
    """

    levels: tuple[int, ...]
    measures: tuple[str, ...]
    labels: list[str]
    matrix: np.ndarray
    averages: dict[tuple[int, int], float]


def correlation_table(
    c: CliqueComplex,
    measures: tuple[str, ...] = ("degree", "subgraph", "closeness"),
    levels: tuple[int, ...] = (0, 1, 2),
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> CorrelationTable:
    raw: dict[tuple[int, str], CentralityVector] = {}
    node_view: dict[tuple[int, str], CentralityVector] = {}
    for k in levels:
        for m in measures:
            vec = compute(c, k, m, dense_limit=dense_limit)
            raw[k, m] = vec
            node_view[k, m] = vec if k == 0 else project_to_nodes(c, vec)

    keys = [(k, m) for k in levels for m in measures]
    labels = [f"level{k}:{m}" for k, m in keys]
    matrix = np.eye(len(keys))
    for i, j in itertools.combinations(range(len(keys)), 2):
        (k1, m1), (k2, m2) = keys[i], keys[j]
        view = raw if k1 == k2 else node_view
        matrix[i, j] = matrix[j, i] = spearman(view[k1, m1], view[k2, m2])

    averages: dict[tuple[int, int], float] = {}
    for ka, kb in itertools.combinations_with_replacement(levels, 2):
        # measure pairs within a level, every ordered pair across levels
        pairs = itertools.combinations(measures, 2) if ka == kb else itertools.product(measures, repeat=2)
        entries = [matrix[keys.index((ka, ma)), keys.index((kb, mb))] for ma, mb in pairs]
        if entries:  # one measure has no pair within a level
            averages[ka, kb] = float(np.mean(entries))
    return CorrelationTable(tuple(levels), tuple(measures), labels, matrix, averages)
