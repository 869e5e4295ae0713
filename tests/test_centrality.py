"""Centrality measures against worked values and brute-force oracles."""

import functools
import itertools
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import sid, whole_level_eigenpairs
from oracles import (
    ba_graph,
    brute_betweenness,
    brute_closeness,
    brute_harmonic,
    er_blocks_graph,
    er_graph,
    random_growth_complex,
)
from simplicent import NonConvergenceError, centrality, paths
from simplicent import (
    Graph,
    betweenness,
    build_clique_complex,
    closeness,
    combined_adjacency,
    communicability,
    compute,
    degree_centrality,
    eigenvector_centrality,
    example_complex,
    generate_P,
    generate_S,
    generate_T,
    harmonic_closeness,
    katz,
    spectral_decomposition,
    subgraph_centrality,
    walk_count,
)


class TestDegree:
    def test_nine_node_level2_values(self, fig):
        deg = degree_centrality(fig, 2)
        assert deg.scores[sid(fig, 2, "123")] == 0
        assert deg.scores[sid(fig, 2, "345")] == 3

    def test_s_family_constant(self):
        deg = degree_centrality(generate_S(7, 2), 2)
        assert (deg.scores == 6).all()


class TestCloseness:
    def test_t_family_peripheral_worked_value(self):
        c = generate_T(2, [1, 2, 4])
        cl = closeness(c, 2)
        lone_arm = c.simplex_id(2, (1, 2, 3))  # the single simplex on face {1,2}
        assert cl.scores[lone_arm] == 7 / 13

    @pytest.mark.parametrize("l,k", [(2, 1), (6, 2), (4, 3)])
    def test_s_family_all_ones(self, l, k):
        assert (closeness(generate_S(l, k), k).scores == 1).all()

    @pytest.mark.parametrize("l,k", [(3, 1), (5, 2), (8, 3)])
    def test_p_family_end_value(self, l, k):
        c = generate_P(l, k)
        cl = closeness(c, k)
        end = c.simplex_id(k, tuple(range(k + 1)))
        assert cl.scores[end] == 2 / l

    def test_singleton_component_scored_zero(self, fig):
        cl = closeness(fig, 1)
        assert cl.scores[sid(fig, 1, "12")] == 0
        assert "singleton" in cl.note

    def test_unnormalized_is_reciprocal_farness(self):
        c = generate_P(4, 1)
        raw = closeness(c, 1, normalized=False)
        assert raw.scores[0] == 1 / (1 + 2 + 3)


class TestHarmonic:
    def test_nine_node_worked_value(self, fig):
        h = harmonic_closeness(fig, 2)
        assert h.scores[sid(fig, 2, "234")] == 2

    def test_isolated_simplex_zero(self, fig):
        h = harmonic_closeness(fig, 1)
        assert h.scores[sid(fig, 1, "78")] == 0

    @pytest.mark.parametrize("l,k", [(4, 1), (7, 2)])
    def test_s_family_value(self, l, k):
        assert (harmonic_closeness(generate_S(l, k), k).scores == l - 1).all()


class TestBetweenness:
    @pytest.mark.parametrize("k,x", [(1, [1, 1]), (2, [1, 1, 1]), (3, [1, 0, 1, 1])])
    def test_t_family_center_attains_one(self, k, x):
        c = generate_T(k, x)
        b = betweenness(c, k)
        center = c.simplex_id(k, tuple(range(k + 1)))
        assert b.scores[center] == 1.0

    @pytest.mark.parametrize("l,k", [(4, 1), (5, 2)])
    def test_s_family_all_zero(self, l, k):
        assert (betweenness(generate_S(l, k), k).scores == 0).all()

    def test_p3_middle_one_ends_zero(self):
        c = generate_P(3, 2)
        b = betweenness(c, 2)
        assert b.scores[c.simplex_id(2, (1, 2, 3))] == 1.0
        assert b.scores[c.simplex_id(2, (0, 1, 2))] == 0.0

    def test_normalized_needs_three_simplices(self):
        with pytest.raises(ValueError, match="at least 3"):
            betweenness(generate_P(2, 1), 1)


class TestWalkCount:
    def test_zero_is_identity(self, fig):
        assert (walk_count(fig, 1, 0) == np.eye(14, dtype=np.int64)).all()

    def test_one_is_adjacency(self, fig):
        assert (walk_count(fig, 1, 1) == combined_adjacency(fig, 1).mat.toarray()).all()

    def test_square_diagonal_is_degree(self, fig):
        w2 = walk_count(fig, 1, 2)
        deg = degree_centrality(fig, 1).scores
        assert (np.diag(w2) == deg).all()
        assert w2[sid(fig, 1, "14"), sid(fig, 1, "14")] == deg[sid(fig, 1, "14")]

    @pytest.mark.parametrize("m", range(7))
    def test_matches_spectral_reconstruction(self, fig, m):
        w, v = whole_level_eigenpairs(fig, 1)
        rebuilt = (v * w**m) @ v.T
        assert np.allclose(walk_count(fig, 1, m), rebuilt, atol=1e-8)


class TestKatz:
    def test_s_family_closed_form(self):
        c = generate_S(3, 2)  # underlying K3
        scores = katz(c, 2, alpha=0.25).scores
        assert np.allclose(scores, 2.0, atol=1e-12)
        for n, alph in [(5, 0.1), (8, 0.05)]:
            got = katz(generate_S(n, 2), 2, alpha=alph).scores
            assert np.allclose(got, 1 / (1 - alph * (n - 1)), atol=1e-12)

    def test_alpha_to_zero_gives_ones(self, fig):
        scores = katz(fig, 1, alpha=1e-12).scores
        assert np.allclose(scores, 1.0, atol=1e-9)

    def test_all_isolated_level_gives_ones(self):
        # a lone triangle: its edges are all upper adjacent, so the combined
        # level-1 adjacency is empty
        c = generate_T(2, [0, 0, 0])
        assert (katz(c, 1, alpha=0.3).scores == 1).all()

    def test_rejects_alpha_outside_interval(self, fig):
        lam = katz(fig, 1).params["lambda1"]
        with pytest.raises(ValueError) as err:
            katz(fig, 1, alpha=1.0 / lam)
        assert f"{1.0 / lam}" in str(err.value)
        with pytest.raises(ValueError):
            katz(fig, 1, alpha=-0.1)

    def test_default_alpha_matches_half_spectral_radius(self, fig):
        vec = katz(fig, 1)
        assert vec.params["alpha"] == pytest.approx(0.5 / vec.params["lambda1"])

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_matches_series(self, seed):
        rng = np.random.default_rng(seed)
        g = er_graph(14, 0.3, rng)
        c = build_clique_complex(g, 3)
        for k in range(3):
            if combined_adjacency(c, k).mat.nnz == 0:
                continue
            vec = katz(c, k)
            mat = combined_adjacency(c, k).mat.toarray().astype(float)
            term = np.ones(mat.shape[0])
            series = term.copy()
            for _ in range(50):
                term = vec.params["alpha"] * (mat @ term)
                series += term
            assert np.allclose(vec.scores, series, rtol=1e-8)


class TestEigenvector:
    def test_s_family_uniform(self):
        vec = eigenvector_centrality(generate_S(4, 2), 2)
        assert np.allclose(vec.scores, 0.5, atol=1e-12)

    def test_path_center_dominates(self):
        vec = eigenvector_centrality(generate_P(3, 2), 2)
        assert vec.scores[1] > vec.scores[0]
        assert np.allclose(vec.scores, [0.5, np.sqrt(2) / 2, 0.5], atol=1e-10)

    def test_unit_norm_and_nonnegative(self, fig):
        vec = eigenvector_centrality(fig, 1)
        assert np.linalg.norm(vec.scores) == pytest.approx(1.0)
        assert (vec.scores >= 0).all()

    def test_error_when_no_adjacency(self):
        with pytest.raises(ValueError, match="no principal eigenvector"):
            eigenvector_centrality(generate_T(2, [0, 0, 0]), 1)

    def test_katz_limit_converges_to_principal_eigenvector(self, fig):
        vec = eigenvector_centrality(fig, 1)
        lam = vec.params["lambda1"]
        kz = katz(fig, 1, alpha=0.999 / lam).scores
        kz = kz / np.linalg.norm(kz)
        cosine = float(kz @ vec.scores)
        assert cosine >= 1 - 1e-6

    def test_degenerate_top_eigenvalue_stays_nonnegative(self):
        # two identical components -> multiplicity-2 dominant eigenvalue
        g_edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
        from simplicent import Graph

        c = build_clique_complex(Graph([str(i) for i in range(6)], g_edges), 1)
        vec = eigenvector_centrality(c, 0)
        assert (vec.scores >= 0).all()
        assert np.linalg.norm(vec.scores) == pytest.approx(1.0)


class TestSubgraphCentrality:
    def test_nine_node_worked_values(self, fig):
        sg = subgraph_centrality(fig, 1)
        assert sg.scores[sid(fig, 1, "14")] == pytest.approx(2.714, abs=1e-3)
        comm = communicability(fig, 1, sid(fig, 1, "14"), sid(fig, 1, "69"))
        assert comm == pytest.approx(2.0363, abs=1e-3)

    def test_isolated_simplex_scores_one(self, fig):
        sg = subgraph_centrality(fig, 1)
        assert sg.scores[sid(fig, 1, "12")] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_at_least_one(self, fig):
        for k in range(3):
            assert (subgraph_centrality(fig, k).scores >= 1 - 1e-12).all()

    def test_matches_scipy_expm(self, fig):
        for k in range(3):
            mat = combined_adjacency(fig, k).mat.toarray().astype(float)
            assert np.allclose(subgraph_centrality(fig, k).scores, np.diag(expm(mat)), atol=1e-10)

    def test_exp_equals_cosh_plus_sinh(self, fig):
        w, v = whole_level_eigenpairs(fig, 1)
        cosh = (v * np.cosh(w)) @ v.T
        sinh = (v * np.sinh(w)) @ v.T
        reference = expm(combined_adjacency(fig, 1).mat.toarray().astype(float))
        assert np.linalg.norm(reference - (cosh + sinh)) <= 1e-10

    def test_auto_refuses_above_limit_with_hint(self, fig):
        # 12 of the 14 edges have a neighbour; the limit counts those
        with pytest.raises(ValueError, match="level 1 has 12 simplices with a neighbour.*--dense-limit"):
            subgraph_centrality(fig, 1, dense_limit=11)
        assert subgraph_centrality(fig, 1, dense_limit=12).scores.shape == (14,)

    def test_extremal_families(self):
        l, k = 8, 2
        s_val = subgraph_centrality(generate_S(l, k), k).scores.max()
        p_scores = subgraph_centrality(generate_P(l, k), k).scores
        rng = np.random.default_rng(3)
        for _ in range(10):
            sample = random_growth_complex(l, k, rng)
            scores = subgraph_centrality(sample, k).scores
            assert scores.max() <= s_val + 1e-9
            assert scores.min() >= p_scores.min() - 1e-9


class TestRankingConsistency:
    MEASURE_CALLS = ["degree", "closeness", "harmonic", "betweenness", "katz", "eigenvector", "subgraph"]

    @pytest.mark.parametrize("measure", MEASURE_CALLS)
    def test_constant_on_s_family(self, measure):
        scores = compute(generate_S(6, 2), 2, measure).scores
        assert np.allclose(scores, scores[0], atol=1e-10)

    @pytest.mark.parametrize("measure", MEASURE_CALLS)
    def test_mirror_symmetric_on_p_family(self, measure):
        scores = compute(generate_P(7, 2), 2, measure).scores
        assert np.allclose(scores, scores[::-1], atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_shortest_path_measures_match_exhaustive_enumeration(seed):
    rng = np.random.default_rng(7000 + seed)
    c = random_growth_complex(int(rng.integers(3, 11)), int(rng.integers(1, 4)), rng)
    k = c.max_level - 1
    adj = combined_adjacency(c, k).mat.toarray()
    want_b = brute_betweenness(adj)
    want_c = brute_closeness(adj, normalized=True)
    want_h = brute_harmonic(adj)
    got_b = betweenness(c, k, normalized=False).scores
    got_c = closeness(c, k).scores
    got_h = harmonic_closeness(c, k).scores
    for i in range(adj.shape[0]):
        assert abs(got_b[i] - float(want_b[i])) <= 1e-12
        assert abs(got_c[i] - float(want_c[i])) <= 1e-12
        assert abs(got_h[i] - float(want_h[i])) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_block_kernel_matches_exhaustive_enumeration(seed, monkeypatch):
    graph = er_blocks_graph(np.random.default_rng(1300 + seed))
    runs = []
    for size in (1, 3, paths.BLOCK_SIZE):
        monkeypatch.setattr(paths, "BLOCK_SIZE", size)
        c = build_clique_complex(graph, 5)  # fresh, or the distance pass cached at one size serves the next
        runs.append([
            [betweenness(c, k, normalized=False).scores, closeness(c, k).scores, harmonic_closeness(c, k).scores]
            for k in range(c.max_level)
        ])
    for k in range(c.max_level):
        adj = combined_adjacency(c, k).mat.toarray()
        want = [
            np.array([float(x) for x in oracle], dtype=np.float64)
            for oracle in (brute_betweenness(adj), brute_closeness(adj, normalized=True), brute_harmonic(adj))
        ]
        for run in runs:
            for g, w in zip(run[k], want):
                assert g.shape == w.shape and (np.abs(g - w) <= 1e-12).all()
        first = runs[0][k]
        for got in (run[k] for run in runs[1:]):
            assert (np.abs(got[0] - first[0]) <= 1e-12).all()
            assert (got[1] == first[1]).all() and (got[2] == first[2]).all()


def test_compute_dispatch_unknown_measure(fig):
    with pytest.raises(ValueError, match="unknown measure"):
        compute(fig, 1, "pagerank")


SPECTRAL = ("katz", "eigenvector", "subgraph")


def _er_blocks_complex(seed):
    return build_clique_complex(er_blocks_graph(np.random.default_rng(2300 + seed)), 4)


BRANCH_INPUTS = [
    pytest.param(functools.partial(_er_blocks_complex, seed), id=f"er-blocks-{seed}") for seed in range(6)
] + [
    pytest.param(lambda: generate_S(6, 2), id="S-6-2"),
    pytest.param(lambda: generate_T(2, [2, 0, 3]), id="T-2-203"),
    pytest.param(lambda: generate_P(7, 2), id="P-7-2"),
]


@pytest.mark.parametrize("make_complex", BRANCH_INPUTS)
def test_sparse_branches_match_dense(make_complex):
    """The iterative Perron path against a full dense eigendecomposition:
    lambda_1, the Katz scores at the default alpha, and the all-ones vector
    projected onto the dominant eigenspace (degenerate on er-blocks-2 and -5)."""
    c = make_complex()
    for k in range(c.max_level):
        mat = combined_adjacency(c, k).mat.toarray().astype(np.float64)
        w, v = np.linalg.eigh(mat)
        lam = float(w.max()) if w.size else 0.0
        got = katz(c, k)
        assert got.params["lambda1"] == pytest.approx(lam, rel=1e-10, abs=1e-12)
        want = np.linalg.solve(np.eye(mat.shape[0]) - got.params["alpha"] * mat, np.ones(mat.shape[0]))
        assert np.allclose(got.scores, want, rtol=1e-9, atol=0)
        if not mat.any():
            continue
        basis = v[:, w >= lam - 1e-9 * max(1.0, lam)]
        want_vec = basis @ (basis.T @ np.ones(mat.shape[0]))
        want_vec /= np.linalg.norm(want_vec)
        got_vec = eigenvector_centrality(c, k)
        assert got_vec.params["lambda1"] == pytest.approx(lam, rel=1e-10, abs=1e-12)
        assert np.allclose(got_vec.scores, want_vec, atol=1e-8)


@pytest.mark.parametrize("make_complex", BRANCH_INPUTS)
@pytest.mark.parametrize("fraction", [0.5, 0.99, 0.9999])
def test_katz_matches_direct_solve(make_complex, fraction):
    c = make_complex()
    for k in range(c.max_level):
        mat = combined_adjacency(c, k).mat.toarray().astype(np.float64)
        lam = float(np.linalg.eigvalsh(mat).max()) if mat.size else 0.0
        if lam == 0:
            continue
        alpha = fraction / lam
        want = np.linalg.solve(np.eye(mat.shape[0]) - alpha * mat, np.ones(mat.shape[0]))
        got = katz(c, k, alpha=alpha).scores
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_katz_fails_loudly_when_the_solve_does_not_converge(fig, monkeypatch):
    monkeypatch.setattr(centrality, "cg", lambda system, b, **_: (np.zeros_like(b), 1))
    with pytest.raises(NonConvergenceError, match="katz solve at level 1"):
        katz(fig, 1)


@pytest.mark.parametrize("seed", range(3))
def test_spectral_scores_do_not_depend_on_measure_order(seed):
    def run(order, levels_outermost):
        c = _er_blocks_complex(seed)
        pairs = [(k, m) for k in range(3) for m in order]
        if not levels_outermost:
            pairs = [(k, m) for m in order for k in range(3)]
        # eigenvector centrality rejects a level without adjacencies
        pairs = [(k, m) for k, m in pairs if m != "eigenvector" or combined_adjacency(c, k).mat.nnz]
        return {(k, m): compute(c, k, m).scores for k, m in pairs}

    reference = run(SPECTRAL, True)
    for order in itertools.permutations(SPECTRAL):
        for levels_outermost in (True, False):
            got = run(order, levels_outermost)
            assert got.keys() == reference.keys()
            for key, scores in got.items():
                assert scores.tobytes() == reference[key].tobytes(), key


def _complete_multipartite(*parts):
    bounds = np.cumsum((0,) + parts).tolist()
    groups = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return [(u, v) for a, b in itertools.combinations(groups, 2) for u in a for v in b]


def _complex_of(edges, n, max_level):
    return build_clique_complex(Graph([str(i) for i in range(n)], sorted(edges)), max_level)


def _k45():
    return _complex_of(_complete_multipartite(4, 5), 9, 2)


def _k444():
    return _complex_of(_complete_multipartite(4, 4, 4), 12, 3)


def _k45_and_k5():
    return _complex_of(_complete_multipartite(4, 5) + list(itertools.combinations(range(9, 14), 2)), 14, 3)


def _ba_planted(seed):
    """A BA(60, 3) graph with cliques of 5, 6 and 7 vertices planted on
    random vertices: its level 2 has isolated triangles."""
    rng = np.random.default_rng(seed)
    edges = set(ba_graph(60, 3, rng).edges)
    for size in (5, 6, 7):
        edges.update(itertools.combinations(sorted(rng.choice(60, size, replace=False).tolist()), 2))
    return _complex_of(edges, 60, 3)


# (complex, level, the number of coface-free k-simplices with a neighbour
# minus the faces they touch, the number of isolated k-simplices)
DEFLATION_CASES = [
    pytest.param(_k45, 1, 11, 0, id="K45-level1"),
    pytest.param(_k444, 2, 16, 0, id="K444-level2"),
    pytest.param(lambda: build_clique_complex(ba_graph(100, 3, np.random.default_rng(1400)), 3), 1, 51, 0,
                 id="BA-100-3-level1"),
    pytest.param(_k45_and_k5, 1, 11, 10, id="K45+K5-level1"),
    pytest.param(lambda: _complex_of([(0, 1), (2, 3), (4, 5)], 6, 2), 1, 0, 3, id="matching-level1"),
    pytest.param(lambda: _complex_of([], 4, 2), 1, 0, 0, id="edgeless-level1"),
    pytest.param(lambda: _complex_of([], 4, 2), 0, 0, 4, id="edgeless-level0"),
    pytest.param(_k45, 0, 0, 0, id="K45-level0"),
    pytest.param(_k444, 1, 0, 0, id="K444-level1"),
    pytest.param(functools.partial(_ba_planted, 5), 2, 0, 4, id="BA-60-3-planted-level2"),
] + [pytest.param(lambda: example_complex(3), k, 0, isolated, id=f"fig-level{k}")
     for k, isolated in enumerate((0, 2, 3))]


@pytest.mark.parametrize("make_complex, k, deflated, isolated", DEFLATION_CASES)
def test_deflated_decomposition_matches_dense_oracle(make_complex, k, deflated, isolated):
    """The decomposition that leaves out the isolated simplices and splits off
    the coface-free kernel of B_k, against a test-side dense
    eigendecomposition and scipy's expm.  At the 9-node example's level 2 the
    isolated triangles are {1,2,3}, {1,2,4} and {6,7,8}."""
    c = make_complex()
    a = combined_adjacency(c, k).mat.toarray().astype(np.float64)
    n = a.shape[0]
    lone = np.flatnonzero(~a.any(axis=1))
    assert lone.size == isolated
    if k >= 1:
        free = np.setdiff1d(np.flatnonzero(np.diff(c.boundary(k + 1).indptr) == 0), lone)
        faces = np.unique(c.boundary(k).tocsc()[:, free].indices)
        assert max(free.size - faces.size, 0) == deflated
    spec = spectral_decomposition(c, k)
    assert spec.simplices.tolist() == np.setdiff1d(np.arange(n), lone).tolist()
    assert spec.eigenvectors.shape == (n - isolated, n - isolated)
    assert not spec.simplices.flags.writeable
    assert not spec.eigenvalues.flags.writeable and not spec.eigenvectors.flags.writeable
    assert (np.diff(spec.eigenvalues) <= 0).all()
    w, v = whole_level_eigenpairs(c, k)
    want = np.linalg.eigh(a)[0][::-1]
    assert (np.abs(w - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()
    assert np.count_nonzero(w == -(k + 1)) >= deflated

    def norm2(x):
        return np.linalg.norm(x, 2) if x.size else 0.0

    bound = 1e-12 * max(1.0, norm2(a))
    assert norm2(a @ v - v * w) <= bound
    assert norm2(v.T @ v - np.eye(n)) <= bound
    exp_a = expm(a)
    scores = subgraph_centrality(c, k).scores
    assert np.allclose(scores, np.diag(exp_a), rtol=1e-10, atol=1e-10)
    assert (scores[lone] == 1.0).all()
    for i in range(n):
        j = (7 * i + 3) % n
        assert communicability(c, k, i, j) == pytest.approx(exp_a[i, j], rel=1e-10, abs=1e-10)
    for i in lone.tolist():
        for j in range(n):
            assert communicability(c, k, i, j) == float(i == j) == communicability(c, k, j, i)


class TestSpectralCache:
    @staticmethod
    def _count_eigensolves(monkeypatch):
        """Record every dense symmetric eigensolve: the scipy ``eigh`` that
        :mod:`simplicent.centrality` calls as ``eigh``, and numpy's."""
        calls = []
        for module, name, label in (
            (centrality, "eigh", "eigh"),
            (np.linalg, "eigh", "numpy.linalg.eigh"),
            (np.linalg, "eigvalsh", "numpy.linalg.eigvalsh"),
        ):
            original = getattr(module, name)

            def counted(a, *args, _original=original, _label=label, **kwargs):
                calls.append((_label, a.shape[0]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_decomposition_per_level(self, monkeypatch):
        """The 9-node example decomposes its simplices with a neighbour: all 9
        nodes, 12 of the 14 edges and 4 of the 7 triangles."""
        c = example_complex(3)
        calls = self._count_eigensolves(monkeypatch)
        for k in range(3):
            for measure in SPECTRAL:
                compute(c, k, measure)
            n = c.n_simplices(k)
            for p in range(20):
                communicability(c, k, p % n, (7 * p + 1) % n)
            assert calls == [("eigh", size) for size in (9, 12, 4)[:k + 1]]

    @pytest.mark.parametrize("make_complex, sizes", [(_k45, [9, 9]), (_k444, [12, 48, 48])], ids=["K45", "K444"])
    def test_one_reduced_decomposition_per_level(self, make_complex, sizes, monkeypatch):
        """Each level makes one eigh, of size n minus the coface-free kernel:
        K_{4,5} level 1 (20 edges, no triangle) decomposes at size 9, and
        K_{4,4,4} level 2 (64 triangles, no tetrahedron) at size 48."""
        c = make_complex()
        calls = self._count_eigensolves(monkeypatch)
        for k in range(len(sizes)):
            subgraph_centrality(c, k)
            n = c.n_simplices(k)
            for p in range(20):
                communicability(c, k, p % n, (7 * p + 1) % n)
        assert calls == [("eigh", size) for size in sizes]

    def test_katz_and_eigenvector_make_no_dense_decomposition(self, monkeypatch):
        c = example_complex(3)
        calls = self._count_eigensolves(monkeypatch)
        for k in range(3):
            for measure in ("katz", "eigenvector"):
                compute(c, k, measure)
        assert calls == [] and c._spectrum is None

    def test_cached_arrays_are_read_only(self):
        spec = spectral_decomposition(example_complex(3), 1)
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            spec.eigenvectors[0, 0] = 0.0
        with pytest.raises(ValueError):
            spec.simplices[0] = 1

    def test_cache_does_not_keep_complex_alive(self, fig_graph):
        c = build_clique_complex(fig_graph, 3)
        for k in range(3):
            for measure in SPECTRAL:
                compute(c, k, measure)
        ref = weakref.ref(c)
        del c
        assert ref() is None  # freed without a collection: the slot holds no cycle

    def test_another_level_replaces_the_slot(self, monkeypatch):
        c = example_complex(3)
        first = spectral_decomposition(c, 1)
        assert spectral_decomposition(c, 1) is first
        second = spectral_decomposition(c, 2)
        assert second.level == 2 and c._spectrum is second
        calls = self._count_eigensolves(monkeypatch)
        again = spectral_decomposition(c, 1)
        assert again is not first and c._spectrum is again and calls == [("eigh", 12)]
        assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()


class TestExponentialOverflow:
    def test_subgraph_refuses_overflowing_level(self):
        c = generate_S(800, 1)  # level 1 is K_800: lambda_1 = 799
        with pytest.raises(ValueError, match=r"level 1 overflows float64: lambda_1 = 799"):
            subgraph_centrality(c, 1)
        with pytest.raises(ValueError, match=r"level 1 overflows float64: lambda_1 = 799"):
            communicability(c, 1, 0, 1)

    def test_largest_finite_level_is_accepted(self):
        c = generate_S(700, 1)  # lambda_1 = 699, e**699 is finite
        scores = subgraph_centrality(c, 1).scores
        assert np.isfinite(scores).all()
        assert np.isfinite(communicability(c, 1, 0, 1))
