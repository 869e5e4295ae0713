"""Checks of every CLI output against :mod:`reference` or a method property.

Each ``check_*`` function reads one command's output file (and, where the
command prints a summary, its captured stdout) and raises :class:`CheckFailed`
on the first disagreement.  Nothing is compared with a stored copy of an
earlier output: every expected value is recomputed from the input graph by
other code, or is an identity the result must satisfy.

Tolerances allow for the CLI's 12-significant-digit output and for the
rounding differences between two correct floating-point computations; they
are far below any perturbation that changes a ranking or a reported figure.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np
from scipy import stats as spstats

from reference import Reference

GRID = (1.0, 3.0, 5.0, 10.0, 15.0, 20.0, 25.0)  # the CLI's default --grid
BASELINE_SIGMAS = 6.0  # a seeded mean of 100 hypergeometric draws is this close


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


def _num(text: str) -> float:
    return math.nan if text == "NA" else float(text)


def read_output(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CLI CSV output ('#' metadata lines skipped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(line for line in fh.read().splitlines() if not line.startswith("#")))
    if not table:
        raise CheckFailed(f"{path}: no header row")
    return table[0], table[1:]


def _close(name: str, got: np.ndarray, want: np.ndarray, rtol: float, atol: float = 0.0) -> None:
    got = np.atleast_1d(np.asarray(got, dtype=np.float64))
    want = np.atleast_1d(np.asarray(want, dtype=np.float64))
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: {got.size} values, expected {want.size}")
    bad = ~(np.abs(got - want) <= rtol * np.abs(want) + atol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckFailed(f"{name}: {bad.sum()} values off, e.g. #{i} {got[i]!r} vs {want[i]!r}")


def _finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise CheckFailed(f"{name}: {int((~np.isfinite(values)).sum())} non-finite values")


def _level_rows(ref: Reference, rows: list[list[str]], levels: list[int], name: str):
    """Group rows by level and align each with the reference simplex order.

    Returns {level: (positions in rows, reference index per row)} after
    checking that each level lists every clique of its size exactly once.
    """
    by_level: dict[int, list[int]] = {k: [] for k in levels}
    for pos, row in enumerate(rows):
        k = int(row[0])
        if k not in by_level:
            raise CheckFailed(f"{name}: unexpected level {k}")
        by_level[k].append(pos)
    out = {}
    for k, positions in by_level.items():
        if ref.count(k) != ref.networkx_count(k):
            raise CheckFailed(f"{name}: level {k}: {ref.count(k)} reference cliques, {ref.networkx_count(k)} by networkx")
        if len(positions) != ref.count(k):
            raise CheckFailed(f"{name}: level {k} has {len(positions)} rows, {ref.count(k)} cliques of size {k + 1}")
        idx = np.empty(len(positions), dtype=np.int64)
        for j, pos in enumerate(positions):
            key = tuple(sorted(ref.label_to_vertex[lab] for lab in rows[pos][2].split(",")))
            if key not in ref.index[k]:
                raise CheckFailed(f"{name}: level {k} row {rows[pos][2]!r} is not a clique")
            idx[j] = ref.index[k][key]
        if np.unique(idx).size != idx.size:
            raise CheckFailed(f"{name}: level {k} lists a simplex twice")
        out[k] = (positions, idx)
    return out


def _aligned(rows, positions, idx, col: int, size: int) -> np.ndarray:
    values = np.full(size, np.nan)
    values[idx] = [_num(rows[p][col]) for p in positions]
    return values


def check_measure(ref: Reference, k: int, measure: str, scores: np.ndarray) -> None:
    """One level's scores for one measure, in reference simplex order."""
    name = f"level {k} {measure}"
    _finite(name, scores)
    if measure == "degree":
        _close(name, scores, ref.degrees(k), 0.0)
    elif measure == "closeness":
        _close(name, scores, ref.closeness(k), 1e-9)
    elif measure == "harmonic":
        _close(name, scores, ref.harmonic(k), 1e-9)
    elif measure == "betweenness":
        _close(name, scores, ref.betweenness(k), 1e-9, 1e-12)
        _close(f"{name} sum (pair-sum identity)", scores.sum(), ref.betweenness_total(k), 1e-9, 1e-12)
    elif measure == "katz":
        lam = ref.lambda1(k)
        alpha = 0.5 / lam if lam > 0 else 0.5
        residual = scores - alpha * (ref.adjacency(k) @ scores) - 1.0
        bound = 1e-9 * max(1.0, float(np.abs(scores).max()))
        if np.abs(residual).max() > bound:
            raise CheckFailed(f"{name}: residual of (I - alpha A)x = 1 is {np.abs(residual).max()!r}")
    elif measure == "eigenvector":
        lam = ref.lambda1(k)
        if abs(np.linalg.norm(scores) - 1.0) > 1e-9 or scores.min() < -1e-12:
            raise CheckFailed(f"{name}: not a non-negative unit vector")
        av = ref.adjacency(k) @ scores
        rayleigh = float(scores @ av)
        if abs(rayleigh - lam) > 1e-8 * lam:
            raise CheckFailed(f"{name}: Rayleigh quotient {rayleigh!r}, lambda_1 {lam!r}")
        if np.abs(av - lam * scores).max() > 1e-9 * lam:
            raise CheckFailed(f"{name}: residual |Av - lambda v| is {np.abs(av - lam * scores).max()!r}")
    elif measure == "subgraph":
        # exp(A)_ii = e**lambda_1 * exp(A - lambda_1 I)_ii; where e**lambda_1
        # overflows, scores scaled by any one common factor are accepted
        scaled = ref.subgraph_scaled(k)
        lam = ref.lambda1(k)
        factor = math.exp(lam) if lam < 700 else scores[0] / scaled[0]
        _close(name, scores, factor * scaled, 1e-8)
        for i, entry, column_max in ref.subgraph_samples(k):
            _close(f"{name} #{i} against expm_multiply", scores[i], factor * entry, 1e-7, 1e-12 * factor * column_max)
    else:
        raise ValueError(f"no check for measure {measure!r}")


def check_centrality(ref: Reference, path: str, levels: list[int], measures: list[str]) -> None:
    header, rows = read_output(path)
    if header != ["level", "id", "vertices"] + measures:
        raise CheckFailed(f"centrality: header {header}")
    aligned = _level_rows(ref, rows, levels, "centrality")
    if 2 in aligned and ref.count(2) != ref.triangles_by_trace():
        raise CheckFailed("centrality: triangle count disagrees with trace(A^3)/6")
    for k, (positions, idx) in aligned.items():
        for j, m in enumerate(measures):
            check_measure(ref, k, m, _aligned(rows, positions, idx, 3 + j, ref.count(k)))


_LEVEL_LINE = re.compile(
    r"level (\d+): (\d+) simplices, (\d+) components \[([\d+]*)\], "
    r"diameter (\S+), avg path length per component \[(.*)\]"
)


def check_distance(ref: Reference, path: str, stdout: str, levels: list[int]) -> None:
    header, rows = read_output(path)
    if header != ["level", "id", "vertices", "eccentricity"]:
        raise CheckFailed(f"distance: header {header}")
    aligned = _level_rows(ref, rows, levels, "distance")
    summaries = {int(m.group(1)): m for m in map(_LEVEL_LINE.match, stdout.splitlines()) if m}
    for k, (positions, idx) in aligned.items():
        d = ref.distances(k)
        ecc = np.where(np.isfinite(d), d, -np.inf).max(axis=1)
        got = _aligned(rows, positions, idx, 3, ref.count(k))
        _finite(f"level {k} eccentricity", got)
        _close(f"level {k} eccentricity", got, ecc, 0.0)
        if k not in summaries:
            raise CheckFailed(f"distance: no summary line for level {k}")
        m = summaries[k]
        n_comp, labels = ref.components(k)
        sizes = np.bincount(labels, minlength=n_comp)
        if int(m.group(2)) != ref.count(k) or int(m.group(3)) != n_comp:
            raise CheckFailed(f"distance: level {k} summary counts {m.group(0)!r}")
        if [int(s) for s in m.group(4).split("+")] != sorted(sizes.tolist(), reverse=True):
            raise CheckFailed(f"distance: level {k} component sizes {m.group(4)!r}")
        _close(f"level {k} diameter", _num(m.group(5)), ecc.max(), 0.0)
        want = []
        for comp, size in enumerate(sizes):
            if size >= 2:
                block = d[np.ix_(labels == comp, labels == comp)]
                want.append(block.sum() / (size * (size - 1)))
        got_avg = [_num(v) for v in m.group(6).split(";")]
        if sum(math.isnan(v) for v in got_avg) != int((sizes < 2).sum()):
            raise CheckFailed(f"distance: level {k} singleton components misreported")
        _close(
            f"level {k} average path lengths",
            np.sort([v for v in got_avg if not math.isnan(v)]),
            np.sort(want),
            1e-9,
        )


# fitted parameters per family on an integer sample (locations are pinned)
FIT_PARAMS = {"gen-pareto": 2, "gev": 2, "gamma": 2, "exponential": 1, "lognormal": 2, "normal": 2}
# shape range of the library's bounded search per optimized family: an
# optimum outside it is out of the library's reach and is not compared
SHAPE_RANGE = {"gamma": (0.0, math.inf), "gen-pareto": (-1.0, 5.0), "gev": (-5.0, 5.0)}


def _closed_form_loglik(family: str, x: np.ndarray) -> float | None:
    n = x.size
    if family == "exponential":
        return -n * (math.log(x.mean()) + 1.0)
    if family == "normal":
        return -0.5 * n * (math.log(2 * math.pi * x.var()) + 1.0)
    if family == "lognormal":
        shift = 0.5 - x.min() if x.min() <= 0 else 0.0
        y = np.log(x + shift)
        return float(-y.sum() - n * math.log(y.std()) - 0.5 * n * math.log(2 * math.pi) - 0.5 * n)
    return None


def _loglik_at(family: str, params: dict[str, float], x: np.ndarray) -> float:
    if family == "gamma":
        shift = 0.5 - x.min() if x.min() <= 0 else 0.0
        return float(spstats.gamma.logpdf(x + shift, params["a"], scale=params["b"]).sum())
    if family == "gen-pareto":
        return float(spstats.genpareto.logpdf(x, c=params["k"], loc=params["theta"], scale=params["sigma"]).sum())
    if family == "gev":
        return float(spstats.genextreme.logpdf(x, c=-params["k"], loc=params["mu"], scale=params["sigma"]).sum())
    raise ValueError(family)


def selection_label(fits: list[tuple[str, float, float]]) -> str:
    """The documented rule on (family, AIC, BIC) of the successful fits:
    AIC decides when exp((AIC_1 - AIC_2)/2) < 0.01, otherwise the BIC gap
    of the top two is read on the Kass-Raftery bands."""
    ranked = sorted(fits, key=lambda f: f[1])
    if not ranked:
        return "NA"
    if len(ranked) == 1 or math.exp((ranked[0][1] - ranked[1][1]) / 2) < 0.01:
        return ranked[0][0]
    (f1, _, b1), (f2, _, b2) = ranked[0], ranked[1]
    gap = abs(b1 - b2)
    if gap >= 6:
        return (f1 if b1 <= b2 else f2) + "*"
    if gap >= 2:
        return f"{f1}/{f2}**"
    return "NA"


def check_fit(ref: Reference, path: str, stdout: str, k: int) -> None:
    header, rows = read_output(path)
    if header != ["family", "params", "lnL", "AIC", "BIC", "deltaAIC", "status"]:
        raise CheckFailed(f"fit-degree: header {header}")
    x = ref.degrees(k).astype(np.float64)
    n = x.size
    ok = []
    for family, params_text, lnl, aic, bic, _, status in rows:
        best = ref.fits(k).get(family)
        reachable = best is not None and SHAPE_RANGE[family][0] <= best[1] <= SHAPE_RANGE[family][1]
        if status != "ok":
            if reachable:
                raise CheckFailed(f"fit-degree: {family} {status!r}, scipy's fit reaches lnL {best[0]!r}")
            continue
        lnl, aic, bic = _num(lnl), _num(aic), _num(bic)
        p = FIT_PARAMS[family]
        _finite(f"{family} fit", np.array([lnl, aic, bic]))
        _close(f"{family} AIC = 2p - 2lnL", aic, 2 * p - 2 * lnl, 1e-9, 1e-8)
        _close(f"{family} BIC = p ln n - 2lnL", bic, p * math.log(n) - 2 * lnl, 1e-9, 1e-8)
        params = {kv.split("=")[0]: float(kv.split("=")[1]) for kv in params_text.split()}
        exact = _closed_form_loglik(family, x)
        if exact is None:
            exact = _loglik_at(family, params, x)
        _close(f"{family} lnL", lnl, exact, 1e-7, 1e-7)
        if family in ("gen-pareto", "gev"):
            pinned = params["theta" if family == "gen-pareto" else "mu"]
            _close(f"{family} location pinned at min - 0.5", pinned, x.min() - 0.5, 0.0, 1e-9)
        # a fit stopped short of the maximum still agrees with its own
        # parameters; scipy's own fit under the same conventions does not
        if reachable and lnl < best[0] - (1e-9 * abs(best[0]) + 1e-6):
            raise CheckFailed(f"fit-degree: {family} lnL {lnl!r} is below scipy's maximum {best[0]!r}")
        ok.append((family, aic, bic))
    for family in ("exponential", "normal", "lognormal"):
        if family not in [f for f, _, _ in ok]:
            raise CheckFailed(f"fit-degree: closed-form family {family} did not fit")
    aic_min = min(a for _, a, _ in ok)
    for family, _, _, aic, _, delta, status in rows:
        if status == "ok":
            want = math.exp((aic_min - _num(aic)) / 2)
            # printed AICs carry 12 significant digits, each off by up to
            # 5e-11 of its value, and the exponent halves their difference
            rtol = 1e-8 + 5e-11 * (abs(aic_min) + abs(_num(aic)))
            _close(f"{family} deltaAIC", _num(delta), want, rtol, 1e-300)
    m = re.search(r"level (\d+) \((\d+) degrees\): selection (\S+) ", stdout)
    if not m or int(m.group(1)) != k or int(m.group(2)) != n:
        raise CheckFailed(f"fit-degree: summary line missing or wrong sample size: {stdout[:120]!r}")
    if m.group(3) != selection_label(ok):
        raise CheckFailed(f"fit-degree: selection {m.group(3)!r}, rule gives {selection_label(ok)!r}")


def _simplex_scores(ref: Reference, k: int, measure: str) -> np.ndarray:
    return {
        "degree": lambda: ref.degrees(k).astype(np.float64),
        "closeness": lambda: ref.closeness(k),
        "eigenvector": lambda: ref.principal_vector(k),
        "subgraph": lambda: ref.subgraph(k),
    }[measure]()


def _node_scores(ref: Reference, k: int, measure: str) -> np.ndarray:
    scores = _simplex_scores(ref, k, measure)
    return scores if k == 0 else ref.project(k, scores)


def _tie_ranks(x: np.ndarray, exact: bool, rtol: float = 1e-7) -> tuple[np.ndarray, float]:
    """Average ranks, with near-equal values of an inexact vector tied.

    Values that agree to ``rtol`` may be ordered either way by another
    correct computation.  Returns the ranks and E, the largest squared
    distance from them of any rank vector that reorders tied groups:
    sum over groups of (g^3 - g)/12, leaving out groups of exact zeros.
    """
    if exact:
        return spstats.rankdata(x, method="average"), 0.0
    order = np.argsort(x, kind="stable")
    xs = x[order]
    floor = 1e-13 * np.abs(xs).max(initial=0.0)  # entries near zero carry absolute error
    gap = np.abs(np.diff(xs)) > rtol * np.maximum(np.abs(xs[1:]), np.abs(xs[:-1])) + floor
    group = np.concatenate([[0], np.cumsum(gap)])
    sizes = np.bincount(group)
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ranks = np.empty(x.size)
    ranks[order] = (first + (sizes + 1) / 2.0)[group]
    # exact zeros (eigenvector entries off the principal component) tie exactly
    loose = np.bincount(group, weights=(xs != 0.0).astype(np.float64)) > 0
    return ranks, float(((sizes**3 - sizes)[loose] / 12.0).sum())


def spearman_interval(a, b, exact_a: bool, exact_b: bool) -> tuple[float, float]:
    """Range of Spearman's rho over every ordering of near-tied values.

    With r' = r + e for zero-sum e inside tied groups (|e|^2 <= E), the
    centred rank norms grow from S to at most S + E and the cross product
    moves by at most sqrt(E_a S_b) + sqrt(E_b S_a) + sqrt(E_a E_b).
    """
    ra, ea = _tie_ranks(np.asarray(a, dtype=np.float64), exact_a)
    rb, eb = _tie_ranks(np.asarray(b, dtype=np.float64), exact_b)
    ra, rb = ra - ra.mean(), rb - rb.mean()
    sa, sb, cross = float(ra @ ra), float(rb @ rb), float(ra @ rb)
    slack = math.sqrt(ea * sb) + math.sqrt(eb * sa) + math.sqrt(ea * eb)
    if sa == 0 or sb == 0:
        return math.nan, math.nan
    norms = (math.sqrt(sa * sb), math.sqrt((sa + ea) * (sb + eb)))
    lo = min((cross - slack) / q for q in norms)
    hi = max((cross + slack) / q for q in norms)
    return max(lo, -1.0), min(hi, 1.0)


def check_correlate(ref: Reference, path: str, levels: list[int], measures: list[str]) -> None:
    header, rows = read_output(path)
    keys = [(k, m) for k in levels for m in measures]
    labels = [f"level{k}:{m}" for k, m in keys]
    if header != ["ranking"] + labels:
        raise CheckFailed(f"correlate: header {header}")
    if [r[0] for r in rows[: len(keys)]] != labels:
        raise CheckFailed("correlate: row labels")
    matrix = np.array([[_num(v) for v in r[1:]] for r in rows[: len(keys)]])
    _finite("correlate matrix", matrix)
    if not np.array_equal(matrix, matrix.T) or not (np.diag(matrix) == 1.0).all():
        raise CheckFailed("correlate: matrix not symmetric with unit diagonal")
    raw = {(k, m): _simplex_scores(ref, k, m) for k, m in keys}
    node = {(k, m): _node_scores(ref, k, m) for k, m in keys}
    for i, (k1, m1) in enumerate(keys):
        for j, (k2, m2) in enumerate(keys[i + 1 :], start=i + 1):
            a, b = (raw[k1, m1], raw[k2, m2]) if k1 == k2 else (node[k1, m1], node[k2, m2])
            lo, hi = spearman_interval(a, b, m1 == "degree", m2 == "degree")
            if not lo - 1e-9 <= matrix[i, j] <= hi + 1e-9:
                raise CheckFailed(f"correlate {labels[i]} ~ {labels[j]}: {matrix[i, j]!r} outside [{lo!r}, {hi!r}]")
    averages = {}
    for r in rows[len(keys) :]:
        m = re.fullmatch(r"avg:level(\d+)~level(\d+)", r[0])
        if not m:
            raise CheckFailed(f"correlate: unexpected row {r[0]!r}")
        averages[int(m.group(1)), int(m.group(2))] = _num(r[1])
    for a, ka in enumerate(levels):
        for kb in levels[a:]:
            ia = [keys.index((ka, m)) for m in measures]
            ib = [keys.index((kb, m)) for m in measures]
            block = [matrix[p, q] for p in ia for q in ib if (ka != kb or p < q)]
            _close(f"correlate avg level{ka}~level{kb}", averages.get((ka, kb), np.nan),
                   np.mean(block), 1e-9, 1e-11)


def first_appearance_ids(ref: Reference, edge_path: str) -> np.ndarray:
    """Parser node numbering: order of first appearance in the edge list."""
    ids = np.full(ref.n, -1, dtype=np.int64)
    nxt = 0
    with open(edge_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            for lab in line.split():
                v = ref.label_to_vertex[lab]
                if ids[v] < 0:
                    ids[v] = nxt
                    nxt += 1
    return ids


def count_range(scores, lib_ids, flags, size: int, rtol: float) -> tuple[int, int]:
    """Essential nodes among the top ``size`` by descending score, ties by
    ascending parser ID.  With rtol > 0, scores within rtol of the cut score
    may fall either side of it, and the range of possible counts is returned."""
    order = np.lexsort((lib_ids, -scores))
    exact = int(flags[order[:size]].sum())
    if rtol == 0:
        return exact, exact
    cut = scores[order[size - 1]]
    tol = rtol * abs(cut) + 1e-13 * np.abs(scores).max()
    above = scores > cut + tol
    band = np.abs(scores - cut) <= tol
    need = size - int(above.sum())
    ess_above, ess_band = int(flags[above].sum()), int(flags[band].sum())
    lo = ess_above + max(0, need - (int(band.sum()) - ess_band))
    hi = ess_above + min(need, ess_band)
    return min(lo, exact), max(hi, exact)


def check_essential(
    ref: Reference, path: str, edge_path: str, flags: np.ndarray, levels: list[int],
    measures: list[str], repetitions: int = 100,
) -> None:
    header, rows = read_output(path)
    if header != ["measure", "level", "x", "count", "percentage"]:
        raise CheckFailed(f"essential: header {header}")
    n = ref.n
    lib_ids = first_appearance_ids(ref, edge_path)
    sizes = {x: min(n, math.ceil(x * n / 100.0)) for x in GRID}
    expected_rows = [(m, str(k)) for k in levels for m in measures for _ in GRID] + [("random", "NA")] * len(GRID)
    if [(r[0], r[1]) for r in rows] != expected_rows:
        raise CheckFailed("essential: row layout")
    values = np.array([[_num(r[2]), _num(r[3]), _num(r[4])] for r in rows])
    _finite("essential", values)
    scores = {}
    for r, (x, count, pct) in zip(rows, values):
        size = sizes[x]
        _close(f"essential {r[0]} x={x} percentage", pct, 100.0 * count / size, 1e-9)
        if r[0] == "random":
            p = flags.sum() / n
            sd = math.sqrt(size * p * (1 - p) * (n - size) / max(n - 1, 1) / repetitions)
            if abs(count - size * p) > BASELINE_SIGMAS * sd + 1e-9:
                raise CheckFailed(f"essential baseline x={x}: {count} vs expected {size * p:.3f} +- {sd:.3f}")
            continue
        k, m = int(r[1]), r[0]
        if (k, m) not in scores:
            scores[k, m] = _node_scores(ref, k, m)
        # integer degrees and level-0 closeness are computed bit-for-bit alike
        rtol = 0.0 if m == "degree" or (m == "closeness" and k == 0) else 1e-9
        lo, hi = count_range(scores[k, m], lib_ids, flags, size, rtol)
        if not lo <= count <= hi:
            raise CheckFailed(f"essential {m} level {k} x={x}: count {count}, recount gives {lo}..{hi}")
