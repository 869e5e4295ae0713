"""Lower/upper/combined adjacency, simplex degrees, underlying networks."""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import sid
from oracles import brute_adjacency, er_blocks_graph, er_graph, neighbour_sets
from simplicent import (
    MEASURES,
    Graph,
    InsufficientDepthError,
    build_clique_complex,
    combined_adjacency,
    compute,
    degree_centrality,
    degree_distribution,
    example_complex,
    generate_P,
    generate_S,
    generate_T,
    interaction_count,
    level_summary,
    lower_adjacency,
    shortest_distances,
    simplex_degrees,
    upper_adjacency,
)


class TestNineNodeExample:
    def test_lower_level1(self, fig):
        low = lower_adjacency(fig, 1)
        assert low.mat[sid(fig, 1, "67"), sid(fig, 1, "69")] == 1

    def test_lower_level2(self, fig):
        low = lower_adjacency(fig, 2)
        assert low.mat[sid(fig, 2, "456"), sid(fig, 2, "678")] == 0
        assert low.mat[sid(fig, 2, "134"), sid(fig, 2, "345")] == 1

    def test_upper_level1(self, fig):
        up = upper_adjacency(fig, 1)
        assert up.mat[sid(fig, 1, "56"), sid(fig, 1, "46")] == 1

    def test_upper_level2(self, fig):
        up = upper_adjacency(fig, 2)
        assert up.mat[sid(fig, 2, "134"), sid(fig, 2, "234")] == 1
        assert up.mat[sid(fig, 2, "456")].sum() == 0

    def test_combined_isolated_edges(self, fig):
        comb = combined_adjacency(fig, 1)
        assert comb.mat[sid(fig, 1, "12")].sum() == 0
        assert comb.mat[sid(fig, 1, "78")].sum() == 0

    def test_combined_lower_but_upper(self, fig):
        comb = combined_adjacency(fig, 2)
        assert comb.mat[sid(fig, 2, "123"), sid(fig, 2, "134")] == 0

    def test_combined_level0_is_graph_adjacency(self, fig, fig_graph):
        comb = combined_adjacency(fig, 0)
        expected = np.zeros((9, 9), dtype=np.int8)
        for u, v in fig_graph.edges:
            expected[u, v] = expected[v, u] = 1
        assert (comb.mat.toarray() == expected).all()

    def test_edge_degree_example(self, fig, fig_graph):
        e67 = sid(fig, 1, "67")
        assert simplex_degrees(fig, 1)[e67] == 3
        p, q = fig_graph.index_of("6"), fig_graph.index_of("7")
        nbrs = neighbour_sets(fig_graph)
        t = sum(1 for tri in fig.simplices(2) if p in tri and q in tri)
        assert simplex_degrees(fig, 1)[e67] == len(nbrs[p]) + len(nbrs[q]) - 2 - 2 * t

    def test_triangle_degree_example(self, fig):
        assert simplex_degrees(fig, 2)[sid(fig, 2, "345")] == 3

    def test_interaction_count_level0(self, fig):
        assert interaction_count(combined_adjacency(fig, 0)) == 14

    def test_underlying_network_level2_components(self, fig):
        comb = combined_adjacency(fig, 2)
        labels = fig.simplex_labels(2)
        connected = {"1,3,4", "2,3,4", "3,4,5", "4,5,6"}
        for u, v in zip(*comb.mat.nonzero()):
            assert labels[u] in connected and labels[v] in connected
        isolated = [lab for lab, degree in zip(labels, comb.degrees()) if degree == 0]
        assert sorted(isolated) == ["1,2,3", "1,2,4", "6,7,8"]


class TestFamilies:
    @pytest.mark.parametrize("l,k", [(3, 1), (5, 2), (4, 3)])
    def test_s_family_degree_and_complete_underlying(self, l, k):
        c = generate_S(l, k)
        comb = combined_adjacency(c, k)
        assert (comb.degrees() == l - 1).all()
        assert interaction_count(comb) == l * (l - 1) // 2

    @pytest.mark.parametrize("l,k", [(2, 2), (6, 1), (5, 3)])
    def test_p_family_path_underlying(self, l, k):
        comb = combined_adjacency(generate_P(l, k), k)
        assert comb.n == l and interaction_count(comb) == l - 1
        assert sorted(comb.degrees()) == [1, 1] + [2] * (l - 2)

    def test_star_level_drops_the_diagonal_in_place(self):
        # level 1 of the 5000-leaf star is K_5000: the lower product stores
        # 25 million entries, so copying it to drop its diagonal would
        # double the memory the level needs
        c = generate_S(5000, 1)
        tracemalloc.start()
        try:
            comb = combined_adjacency(c, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comb.mat.nnz == 5000 * 4999
        assert peak < 450e6


class TestContracts:
    def test_lower_at_level0_is_zero(self, fig):
        assert lower_adjacency(fig, 0).mat.nnz == 0

    def test_upper_requires_depth(self, fig_graph):
        shallow = build_clique_complex(fig_graph, 1)
        with pytest.raises(InsufficientDepthError, match="insufficient complex depth"):
            upper_adjacency(shallow, 1)
        with pytest.raises(InsufficientDepthError):
            combined_adjacency(shallow, 1)

    def test_empty_level_interactions(self, fig_graph):
        c = build_clique_complex(fig_graph, 5)
        assert interaction_count(combined_adjacency(c, 4)) == 0


class TestCache:
    def test_second_call_returns_same_matrix(self):
        c = example_complex(3)
        for k in range(3):
            assert combined_adjacency(c, k).mat is combined_adjacency(c, k).mat

    def test_second_call_returns_same_adjacency(self):
        c = example_complex(3)
        for k in range(3):
            assert combined_adjacency(c, k) is combined_adjacency(c, k)

    def test_callers_leave_cached_matrix_unchanged(self):
        c = example_complex(3)
        for k in range(3):
            adj = combined_adjacency(c, k)
            before = [arr.copy() for arr in (adj.mat.data, adj.mat.indices, adj.mat.indptr)]
            for measure in MEASURES:
                compute(c, k, measure)
            level_summary(c, k)
            shortest_distances(c, k)
            degree_distribution(c, k)
            assert combined_adjacency(c, k).mat is adj.mat
            for old, new in zip(before, (adj.mat.data, adj.mat.indices, adj.mat.indptr)):
                assert old.dtype == new.dtype and old.tobytes() == new.tobytes()

    def test_cache_does_not_keep_complex_alive(self, fig_graph):
        c = build_clique_complex(fig_graph, 3)
        for k in range(3):
            combined_adjacency(c, k)
        ref = weakref.ref(c)
        del c
        assert ref() is None  # freed without a collection: the cache holds no cycle

    def test_depth_error_on_every_call(self, fig):
        for _ in range(3):
            with pytest.raises(InsufficientDepthError, match="insufficient complex depth"):
                combined_adjacency(fig, fig.max_level)


def _er_complex(seed):
    rng = np.random.default_rng(100 + seed)
    g = er_graph(int(rng.integers(6, 14)), float(rng.uniform(0.2, 0.6)), rng)
    return build_clique_complex(g, 4)


BRUTE_FORCE_INPUTS = [pytest.param(functools.partial(_er_complex, seed), id=str(seed)) for seed in range(12)] + [
    pytest.param(lambda: generate_S(5, 2), id="S-5-2"),
    pytest.param(lambda: generate_T(2, [2, 0, 3]), id="T-2-203"),
    pytest.param(lambda: generate_P(6, 3), id="P-6-3"),
]


@pytest.mark.parametrize("make_complex", BRUTE_FORCE_INPUTS)
def test_random_graphs_match_brute_force_definitions(make_complex):
    c = make_complex()
    g = c.graph
    for k in range(c.max_level):
        sims, want_lower = brute_adjacency(g, k, "lower")
        _, want_upper = brute_adjacency(g, k, "upper")
        _, want_comb = brute_adjacency(g, k, "combined")
        assert list(c.simplices(k)) == sims
        mats = [lower_adjacency(c, k).mat, upper_adjacency(c, k).mat, combined_adjacency(c, k).mat]
        for mat in mats:
            assert mat.dtype == np.int8 and mat.has_canonical_format and (mat.data == 1).all()
        low, up, comb = (mat.toarray() for mat in mats)
        assert (low == want_lower).all()
        assert (up == want_upper).all()
        assert (comb == want_comb).all()
        # invariants: symmetry, empty diagonal, upper subset of lower (k>=1)
        for mat in (low, up, comb):
            assert (mat == mat.T).all()
            assert np.trace(mat) == 0
        if k >= 1:
            assert ((up == 1) <= (low == 1)).all()
            assert (comb == ((low == 1) & (up == 0))).all()


@pytest.mark.parametrize("seed", range(6))
def test_edge_degree_identity_and_handshake(seed):
    rng = np.random.default_rng(40 + seed)
    g = er_graph(16, 0.3, rng)
    c = build_clique_complex(g, 2)
    comb = combined_adjacency(c, 1)
    degrees = comb.degrees()
    triangles = c.simplices(2)
    nbrs = neighbour_sets(g)
    for eid, (p, q) in enumerate(c.simplices(1)):
        t = sum(1 for tri in triangles if p in tri and q in tri)
        assert degrees[eid] == len(nbrs[p]) + len(nbrs[q]) - 2 - 2 * t
    assert degrees.sum() == 2 * interaction_count(comb)


SIMPLEX_DEGREE_INPUTS = BRUTE_FORCE_INPUTS + [
    pytest.param(lambda: build_clique_complex(er_blocks_graph(np.random.default_rng(seed)), 4), id=f"er-blocks-{seed}")
    for seed in range(3)
] + [
    pytest.param(lambda: build_clique_complex(Graph([], []), 2), id="empty"),
    pytest.param(lambda: build_clique_complex(Graph(list("abc"), []), 3), id="no-edges"),
]


@pytest.mark.parametrize("make_complex", SIMPLEX_DEGREE_INPUTS)
def test_simplex_degrees_are_combined_row_sums(make_complex):
    c = make_complex()
    for k in range(c.max_level):
        got = simplex_degrees(c, k)
        assert got.dtype == np.int64 and got.shape == (c.n_simplices(k),)
        assert np.array_equal(got, combined_adjacency(c, k).degrees())
    with pytest.raises(InsufficientDepthError) as want:
        upper_adjacency(c, c.max_level)
    with pytest.raises(InsufficientDepthError) as err:
        simplex_degrees(c, c.max_level)
    assert str(err.value) == str(want.value)


def test_degree_measures_form_no_adjacency():
    c = example_complex(3)
    for k in range(3):
        assert np.array_equal(degree_centrality(c, k).scores, simplex_degrees(c, k))
        assert np.array_equal(degree_distribution(c, k).sample, simplex_degrees(c, k))
    assert c._combined == {}
