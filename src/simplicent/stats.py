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
  from method-of-moments starts with three restarts.

Model choice ranks by AIC; when the top two are not decisively separated
(``exp((AIC_min - AIC_2)/2) >= 0.01``) the BIC difference decides using the
Kass-Raftery bands (0-2 not significant, 2-6 positive, 6-10 strong, >10
very strong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy import stats as spstats

from .adjacency import combined_adjacency
from .centrality import CentralityVector, compute
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
    degrees = combined_adjacency(c, k).degrees()
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


def _positivity_shift(x: np.ndarray) -> float:
    """Shift applied before positive-support fits: samples containing zeros
    (integer degrees) move by +0.5; any other non-positive minimum moves so
    the smallest value sits at 0.5."""
    xmin = float(x.min())
    return 0.5 - xmin if xmin <= 0 else 0.0


def _is_integer_sample(x: np.ndarray) -> bool:
    return bool(np.all(np.mod(x, 1.0) == 0.0))


def _gev_lmoment_start(x: np.ndarray) -> tuple[float, float, float]:
    """Hosking's L-moment estimates of the GEV parameters (shape in the
    ``(1 + k(x-mu)/sigma)`` convention, i.e. the extreme-value index)."""
    xs = np.sort(x)
    n = xs.size
    i = np.arange(n)
    b0 = xs.mean()
    b1 = float((i / (n - 1) * xs).mean())
    b2 = float((i * (i - 1) / ((n - 1) * (n - 2)) * xs).mean())
    lam2 = 2 * b1 - b0
    if lam2 <= 0:
        return 0.0, max(float(x.std()), 1e-6), float(x.mean())
    tau3 = (6 * b2 - 6 * b1 + b0) / lam2
    z = 2.0 / (3.0 + tau3) - math.log(2) / math.log(3)
    kappa = 7.8590 * z + 2.9554 * z * z  # Hosking's kappa = -extreme-value index
    if abs(kappa) < 1e-6:
        sigma = lam2 / math.log(2)
        return 0.0, sigma, b0 - 0.5772156649 * sigma
    gamma1k = math.gamma(1 + kappa) if kappa > -1 else math.nan
    if not math.isfinite(gamma1k):
        return 0.0, max(float(x.std()), 1e-6), float(x.mean())
    sigma = lam2 * kappa / (gamma1k * (1 - 2.0**-kappa))
    mu = b0 - sigma * (1 - gamma1k) / kappa
    if not (sigma > 0 and math.isfinite(mu)):
        return 0.0, max(float(x.std()), 1e-6), float(x.mean())
    return float(np.clip(-kappa, -4.9, 4.9)), float(sigma), float(mu)


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
    x = np.asarray(sample, dtype=np.float64)
    n = x.size
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if n < MIN_SAMPLE:
        return _failed(family, n, f"insufficient data (n={n} < {MIN_SAMPLE})")
    mean = float(x.mean())
    var = float(x.var())

    if family == "exponential":
        if x.min() < 0:
            return _failed(family, n, "negative values unsupported")
        if mean <= 0:
            return _failed(family, n, "degenerate: zero mean")
        loglik = float(-n * (math.log(mean) + 1.0))
        return _finish(family, {"mean": mean}, 1, loglik, n)

    if family == "normal":
        sigma = math.sqrt(var)
        if sigma == 0:
            return _failed(family, n, "degenerate: zero variance")
        loglik = float(spstats.norm.logpdf(x, loc=mean, scale=sigma).sum())
        return _finish(family, {"mu": mean, "sigma": sigma}, 2, loglik, n)

    if family == "lognormal":
        shift = _positivity_shift(x)
        y = np.log(x + shift)
        mu, sigma = float(y.mean()), float(y.std())
        if sigma == 0:
            return _failed(family, n, "degenerate: zero variance")
        loglik = float(spstats.lognorm.logpdf(x + shift, s=sigma, scale=math.exp(mu)).sum())
        return _finish(family, {"mu": mu, "sigma": sigma}, 2, loglik, n, shift=shift)

    if var == 0:
        return _failed(family, n, "degenerate: zero variance")

    if family == "gamma":
        shift = _positivity_shift(x)
        y = x + shift
        m, v = float(y.mean()), float(y.var())
        a0, b0 = m * m / v, v / m

        def nll(theta):
            a, b = theta
            return -spstats.gamma.logpdf(y, a, scale=b).sum()

        theta, loglik = _maximize(
            nll,
            [(a0, b0), (2 * a0, b0 / 2), (max(a0 / 2, 1e-3), 2 * b0)],
            [(1e-8, None), (1e-8, None)],
        )
        if theta is None:
            return _failed(family, n, "optimizer failed")
        return _finish(family, {"a": theta[0], "b": theta[1]}, 2, loglik, n, shift=shift)

    integer_sample = _is_integer_sample(x)

    if family == "gen-pareto":
        loc = float(x.min()) - (0.5 if integer_sample else 0.0)
        excess = x - loc
        m, v = float(excess.mean()), float(excess.var())
        k0 = (1.0 - m * m / v) / 2.0
        s0 = m * (1.0 - min(k0, 0.49))

        def nll(theta):
            shape, scale = theta
            return -spstats.genpareto.logpdf(x, c=shape, loc=loc, scale=scale).sum()

        theta, loglik = _maximize(
            nll,
            [(np.clip(k0, -0.9, 4.9), max(s0, 1e-3)), (0.01, m), (1.0, m / 2)],
            [(-1.0, 5.0), (1e-8, None)],
        )
        if theta is None:
            return _failed(family, n, "optimizer failed")
        params = {"k": theta[0], "sigma": theta[1], "theta": loc}
        return _finish(family, params, 2, loglik, n)

    # GEV; scipy's genextreme uses the opposite shape sign convention
    s0 = math.sqrt(6.0 * var) / math.pi
    if integer_sample:
        loc = float(x.min()) - 0.5

        def nll(theta):
            shape, scale = theta
            return -spstats.genextreme.logpdf(x, c=-shape, loc=loc, scale=scale).sum()

        theta, loglik = _maximize(
            nll,
            [(0.1, s0), (0.7, s0), (-0.1, s0)],
            [(-5.0, 5.0), (1e-8, None)],
        )
        if theta is None:
            return _failed(family, n, "optimizer failed")
        return _finish(family, {"k": theta[0], "sigma": theta[1], "mu": loc}, 2, loglik, n)

    # continuous samples: the GEV location is interior, not a threshold, so it
    # is estimated alongside shape and scale, starting from L-moment estimates
    k0, sig0, mu0 = _gev_lmoment_start(x)

    def nll3(theta):
        shape, scale, mu = theta
        return -spstats.genextreme.logpdf(x, c=-shape, loc=mu, scale=scale).sum()

    gumbel = (0.0, s0, mean - 0.5772156649 * s0)
    theta, loglik = _maximize(
        nll3,
        [(k0, sig0, mu0), gumbel, (min(k0 + 0.4, 4.9), sig0, mu0)],
        [(-5.0, 5.0), (1e-8, None), (None, None)],
    )
    if theta is None:
        return _failed(family, n, "optimizer failed")
    return _finish(family, {"k": theta[0], "sigma": theta[1], "mu": theta[2]}, 3, loglik, n)


def fit_all(sample, families=FAMILIES) -> list[FitResult]:
    """Fit every requested family to the same sample."""
    return [fit_mle(sample, family) for family in families]


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
    means; any nan entry propagates into its block average.
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
    dense_limit: int = 5_000,
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
    size = len(keys)
    matrix = np.full((size, size), math.nan)
    for i, (k1, m1) in enumerate(keys):
        for j, (k2, m2) in enumerate(keys):
            if j < i:
                matrix[i, j] = matrix[j, i]
                continue
            if i == j:
                matrix[i, j] = 1.0
                continue
            if k1 == k2:
                matrix[i, j] = spearman(raw[k1, m1], raw[k2, m2])
            else:
                matrix[i, j] = spearman(node_view[k1, m1], node_view[k2, m2])

    averages: dict[tuple[int, int], float] = {}
    for a_idx, ka in enumerate(levels):
        for kb in levels[a_idx:]:
            entries = []
            if ka == kb:
                for p in range(len(measures)):
                    for q in range(p + 1, len(measures)):
                        entries.append(matrix[keys.index((ka, measures[p])), keys.index((kb, measures[q]))])
            else:
                for ma in measures:
                    for mb in measures:
                        entries.append(matrix[keys.index((ka, ma)), keys.index((kb, mb))])
            averages[ka, kb] = float(np.mean(entries)) if entries else math.nan
    return CorrelationTable(tuple(levels), tuple(measures), labels, matrix, averages)
