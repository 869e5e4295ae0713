"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.  Criterion 12 needs the yeast interaction dataset,
which is not shipped; point SIMPLICENT_YEAST_EDGELIST at a local copy to
enable it.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.linalg import expm

from conftest import sid, whole_level_eigenpairs
from oracles import (
    brute_betweenness,
    brute_closeness,
    brute_harmonic,
    er_graph,
    random_growth_complex,
)
from simplicent import (
    FitResult,
    betweenness,
    build_clique_complex,
    closeness,
    combined_adjacency,
    communicability,
    degree_centrality,
    example_complex,
    fit_all,
    generate_P,
    generate_S,
    generate_T,
    harmonic_closeness,
    katz,
    level_summary,
    lower_adjacency,
    random_baseline,
    read_edge_list,
    rank_nodes,
    select_model,
    shortest_distances,
    subgraph_centrality,
    upper_adjacency,
)


def report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_fixture_counts():
    start = time.perf_counter()
    counts = example_complex(3).counts()
    elapsed = time.perf_counter() - start
    report(1, counts == [9, 14, 7, 1] and elapsed < 1.0,
           f"fixture counts {counts} in {elapsed:.3f}s (exact 9/14/7/1, < 1 s)")


def test_criterion_02_fixture_distances(fig):
    d2 = shortest_distances(fig, 2)
    d1 = shortest_distances(fig, 1)
    ok = (
        d2.dist[sid(fig, 2, "134"), sid(fig, 2, "234")] == 2
        and d1.dist[sid(fig, 1, "24"), sid(fig, 1, "67")] == 2
    )
    report(2, ok, "d({1,3,4},{2,3,4}) = 2 and d({2,4},{6,7}) = 2, exact")


def test_criterion_03_fixture_harmonic(fig):
    value = harmonic_closeness(fig, 2).scores[sid(fig, 2, "234")]
    report(3, value == 2.0, f"harmonic closeness of {{2,3,4}} = {value} (exact 2)")


def test_criterion_04_fixture_spectral(fig):
    sg = subgraph_centrality(fig, 1).scores[sid(fig, 1, "14")]
    comm = communicability(fig, 1, sid(fig, 1, "14"), sid(fig, 1, "69"))
    ok = abs(sg - 2.714) <= 1e-3 and abs(comm - 2.0363) <= 1e-3
    report(4, ok, f"subgraph centrality {{1,4}} = {sg:.4f} (2.714 +/- 0.001), "
                  f"communicability = {comm:.4f} (2.0363 +/- 0.001)")


def test_criterion_05_family_lemmas():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        for l in (3, 13, 50):
            s = generate_S(l, k)
            d = shortest_distances(s, k)
            ok &= bool((closeness(s, k).scores == 1.0).all())
            ok &= bool((betweenness(s, k).scores == 0.0).all())
            total = int(d.dist.sum())
            ok &= Fraction(total, l * (l - 1)) == 1
            ok &= level_summary(s, k).diameter == 1

            p = generate_P(l, k)
            dp = shortest_distances(p, k)
            ok &= Fraction(int(dp.dist.sum()), l * (l - 1)) == Fraction(l + 1, 3)
            end = p.simplex_id(k, tuple(range(k + 1)))
            ok &= closeness(p, k).scores[end] == 2 / l

        t = generate_T(k, [1] * (k + 1))
        center = t.simplex_id(k, tuple(range(k + 1)))
        ok &= betweenness(t, k).scores[center] == 1.0

    # subgraph centrality maximal on the star-like family among random
    # complexes with the same number of k-simplices
    for k in (1, 2, 3):
        l = 12
        s_value = subgraph_centrality(generate_S(l, k), k).scores.max()
        rng = np.random.default_rng(512)
        for _ in range(20):
            sample = random_growth_complex(l, k, rng)
            ok &= bool(subgraph_centrality(sample, k).scores.max() <= s_value + 1e-9)

    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 10.0,
           f"family lemmas for k in 1..3, sizes up to 50, in {elapsed:.2f}s (< 10 s)")


def test_criterion_06_t_family_worked_values():
    c = generate_T(2, [1, 2, 4])
    lone_arm = c.simplex_id(2, (1, 2, 3))
    score = closeness(c, 2).scores[lone_arm]
    diam = level_summary(c, 2).diameter
    report(6, score == 7 / 13 and diam == 2,
           f"t^2(1,2,4): peripheral closeness {score} (exact 7/13), diameter {diam} (exact 2)")


def test_criterion_07_structural_identities_on_er_graphs():
    checked = 0
    ok = True
    for n, p in [(20, 0.3), (30, 0.2), (40, 0.12), (50, 0.08), (60, 0.05)]:
        for seed in range(40):
            rng = np.random.default_rng(10_000 + 97 * seed + n)
            g = er_graph(n, p, rng)
            c = build_clique_complex(g, 3)
            checked += 1

            for k in (1, 2):
                low = lower_adjacency(c, k).mat.toarray()
                up = upper_adjacency(c, k).mat.toarray()
                comb = combined_adjacency(c, k).mat.toarray()
                ok &= bool(((up == 1) <= (low == 1)).all())
                ok &= bool((comb == ((low == 1) & (up == 0))).all())

            degrees = combined_adjacency(c, 1).degrees()
            triangles = c.simplices(2)
            for eid, (a, b) in enumerate(c.simplices(1)):
                t = sum(1 for tri in triangles if a in tri and b in tri)
                ok &= degrees[eid] == g.degree(a) + g.degree(b) - 2 - 2 * t

            for k in range(3):
                if c.n_simplices(k) == 0:
                    continue
                mat = combined_adjacency(c, k).mat.toarray().astype(float)
                w, v = whole_level_eigenpairs(c, k)
                ref = expm(mat)
                err = np.linalg.norm(ref - ((v * np.cosh(w)) @ v.T + (v * np.sinh(w)) @ v.T))
                # 1e-10 read as relative Frobenius error: ||exp(A)||_F reaches
                # ~1e4 here, far beyond what float64 resolves at 1e-10 absolute
                ok &= err <= 1e-10 * max(1.0, np.linalg.norm(ref))

                if combined_adjacency(c, k).mat.nnz:
                    vec = katz(c, k)
                    term = np.ones(mat.shape[0])
                    series = term.copy()
                    for _ in range(50):
                        term = vec.params["alpha"] * (mat @ term)
                        series += term
                    ok &= bool(np.allclose(vec.scores, series, rtol=1e-8))

                d = shortest_distances(c, k).dist
                ok &= bool((d == d.T).all())
                ok &= bool(((d == 0) == np.eye(d.shape[0], dtype=bool)).all())
                for mid in range(d.shape[0]):
                    ok &= bool((d <= d[:, mid, None] + d[None, mid, :]).all())

    report(7, ok and checked == 200,
           f"structural identities on {checked} Erdos-Renyi graphs "
           "(upper in lower, combined, edge-degree, exp=cosh+sinh, Katz, metric)")


def test_criterion_08_oracle_equivalence():
    complexes = []
    seed = 0
    while len(complexes) < 50 and seed < 600:
        rng = np.random.default_rng(30_000 + seed)
        seed += 1
        g = er_graph(int(rng.integers(5, 9)), float(rng.uniform(0.25, 0.6)), rng)
        c = build_clique_complex(g, 3)
        if max(c.counts()) <= 12 and c.n_simplices(1) >= 2:
            complexes.append(c)
    assert len(complexes) == 50

    ok = True
    for c in complexes:
        for k in range(c.max_level):
            if c.n_simplices(k) < 2:
                continue
            adj = combined_adjacency(c, k).mat.toarray()
            want_b = brute_betweenness(adj)
            want_c = brute_closeness(adj, normalized=True)
            want_h = brute_harmonic(adj)
            got_b = betweenness(c, k, normalized=False).scores
            got_c = closeness(c, k).scores
            got_h = harmonic_closeness(c, k).scores
            for i in range(adj.shape[0]):
                ok &= abs(got_b[i] - float(want_b[i])) <= 1e-12
                ok &= abs(got_c[i] - float(want_c[i])) <= 1e-12
                ok &= abs(got_h[i] - float(want_h[i])) <= 1e-12
    report(8, ok, "closeness/harmonic/betweenness match exhaustive enumeration "
                  "on all levels of 50 random complexes (<= 12 simplices per level)")


def test_criterion_09_distribution_fit_recovery():
    start = time.perf_counter()
    gp_wins = 0
    gamma_wins = 0
    for seed in range(10):
        rng = np.random.default_rng(20_000 + seed)
        sample = spstats.genpareto.rvs(c=0.5, scale=15.0, size=2000, random_state=rng)
        gp_wins += select_model(fit_all(sample)).ranked[0].family == "gen-pareto"

        rng = np.random.default_rng(21_000 + seed)
        sample = spstats.gamma.rvs(1.0, scale=2.0, size=2000, random_state=rng)
        winner = select_model(fit_all(sample)).ranked[0].family
        # gamma(a=1, b=2) *is* the exponential with mean 2 and the k=0
        # boundary of the generalized Pareto; all three families contain the
        # generating distribution, so any of them counts as recovery
        gamma_wins += winner in ("gamma", "exponential", "gen-pareto")
    elapsed = time.perf_counter() - start
    report(9, gp_wins >= 9 and gamma_wins >= 9 and elapsed < 30.0,
           f"AIC recovery: gen-Pareto {gp_wins}/10, gamma(1,2) carriers "
           f"{gamma_wins}/10, in {elapsed:.1f}s (< 30 s)")


def test_criterion_10_selection_rule_arithmetic():
    def fit(family, aic, bic):
        return FitResult(family, {}, 2, loglik=0.0, aic=aic, bic=bic, n=100, success=True)

    sel1 = select_model([fit("a", 204.0, 210.0), fit("b", 214.0, 220.0)])
    case1 = sel1.delta_aic[1] == math.exp(-5.0) and sel1.winner == "a" and sel1.stars == ""

    sel2 = select_model([fit("a", 204.0, 206.0), fit("b", 204.5, 207.0)])
    case2 = sel2.winner is None and sel2.label == "NA"

    sel3 = select_model([fit("a", 204.0, 206.0), fit("b", 205.0, 213.0)])
    case3 = sel3.winner == "a" and sel3.stars == "*" and sel3.delta_bic == 7.0

    report(10, case1 and case2 and case3,
           "delta-AIC = exp((AICmin-AICi)/2) and the BIC bands reproduce the "
           "three worked selection cases exactly")


def test_criterion_11_random_baseline_convergence():
    n = 1000
    flags = np.zeros(n, dtype=bool)
    flags[:300] = True  # essential fraction 30%
    curve = random_baseline(n, flags, (1.0, 3.0, 5.0, 10.0, 15.0, 20.0, 25.0),
                            seed=77, repetitions=10_000)
    deviation = float(np.abs(curve.percentages - 30.0).max())
    report(11, deviation <= 1.0,
           f"random baseline within +/-1 of the 30% essential fraction at every x "
           f"(worst deviation {deviation:.3f}) over 10000 repetitions")


YEAST = os.environ.get("SIMPLICENT_YEAST_EDGELIST", "")


@pytest.mark.skipif(not YEAST, reason="yeast PPI edge list not shipped; "
                    "set SIMPLICENT_YEAST_EDGELIST to enable")
def test_criterion_12_yeast_dataset():
    from simplicent import correlation_table, interaction_count, project_to_nodes

    g = read_edge_list(YEAST)
    c = build_clique_complex(g, 3)
    counts_ok = c.counts()[:3] == [2224, 6609, 3530]
    inter_edge = interaction_count(combined_adjacency(c, 1))
    inter_tri = interaction_count(combined_adjacency(c, 2))
    inter_ok = (inter_edge, inter_tri) == (99_882, 15_004)

    table = correlation_table(c, measures=("degree", "subgraph", "closeness"),
                              levels=(0, 1, 2), dense_limit=10_000)
    r_nn = table.averages[0, 0]
    r_et = table.averages[1, 2]
    corr_ok = abs(r_nn - 0.828) <= 0.02 and abs(r_et - 0.228) <= 0.02

    node_rank = rank_nodes(degree_centrality(c, 0))
    tri_rank = rank_nodes(project_to_nodes(c, degree_centrality(c, 2)))
    overlap = len(set(node_rank[:100].tolist()) & set(tri_rank[:100].tolist()))

    report(12, counts_ok and inter_ok and corr_ok and overlap == 24,
           f"yeast: counts {c.counts()[:3]}, interactions {inter_edge}/{inter_tri}, "
           f"<r_nn>={r_nn:.3f}, <r_et>={r_et:.3f}, top-100 overlap {overlap}")
