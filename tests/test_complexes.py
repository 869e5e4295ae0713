"""Graph ingest, clique lifting, and the synthetic families."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_cliques, er_graph
from simplicent import (
    Graph,
    build_clique_complex,
    generate_P,
    generate_S,
    generate_T,
    parse_edge_list,
)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(["a", "b"], [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(["a", "b"], [(0, 1), (1, 0)])

    def test_label_round_trip(self):
        g = Graph(["x", "y", "z"], [(0, 2)])
        assert g.index_of("z") == 2
        assert g.degree(1) == 0


class TestEdgeListParsing:
    def test_comments_blanks_and_drops(self):
        lines = [
            "# a comment",
            "",
            "A B",
            "B A",  # duplicate (reversed)
            "C C",  # self-loop
            "B C",
        ]
        g, report = parse_edge_list(lines)
        assert sorted(g.labels) == ["A", "B", "C"]
        assert g.m == 2
        assert report.dropped_duplicates == 1
        assert report.dropped_self_loops == 1
        assert report.comments == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list(["A B", "A B C"])


class TestBuild:
    def test_nine_node_example_counts(self, fig):
        assert fig.counts() == [9, 14, 7, 1]

    def test_triangle_free_path(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        c = build_clique_complex(g, 2)
        assert c.counts() == [3, 2, 0]

    def test_complete_graph_k4(self):
        g = Graph(list("abcd"), itertools.combinations(range(4), 2))
        c = build_clique_complex(g, 3)
        # every subset of the 4-clique is a simplex
        assert c.counts() == [4, 6, 4, 1]

    def test_empty_graph(self):
        c = build_clique_complex(Graph([], []), 2)
        assert c.counts() == [0, 0, 0]

    def test_levels_above_largest_clique_empty(self, fig_graph):
        c = build_clique_complex(fig_graph, 6)
        assert c.counts()[4:] == [0, 0, 0]

    def test_registry_is_lexicographic_and_deterministic(self, fig_graph):
        c1 = build_clique_complex(fig_graph, 3)
        c2 = build_clique_complex(fig_graph, 3)
        assert c1.levels == c2.levels
        for level in c1.levels:
            assert level == sorted(level)

    def test_count_identities(self, fig, fig_graph):
        assert fig.n_simplices(0) == fig_graph.n
        assert fig.n_simplices(1) == fig_graph.m

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_closure_and_brute_force_counts(self, seed):
        rng = np.random.default_rng(seed)
        g = er_graph(int(rng.integers(4, 12)), float(rng.uniform(0.2, 0.7)), rng)
        c = build_clique_complex(g, 3)
        for k in range(4):
            assert c.simplices(k) == sorted(brute_cliques(g, k + 1))
        for k in range(1, 4):
            for simplex in c.simplices(k):
                for drop in range(len(simplex)):
                    assert c.has_simplex(k - 1, simplex[:drop] + simplex[drop + 1 :])

    def test_matches_networkx_cliques(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(7)
        g = er_graph(18, 0.35, rng)
        c = build_clique_complex(g, 3)
        gx = nx.Graph(g.edges)
        gx.add_nodes_from(range(g.n))
        by_size = {k: set() for k in range(1, 5)}
        for clique in nx.enumerate_all_cliques(gx):
            if len(clique) <= 4:
                by_size[len(clique)].add(tuple(sorted(clique)))
        for k in range(4):
            assert set(c.simplices(k)) == by_size[k + 1]

    def test_boundary_columns_hold_faces(self, fig):
        for k in range(1, 4):
            b = fig.boundary(k)
            assert b.shape == (fig.n_simplices(k - 1), fig.n_simplices(k))
            for sid_, simplex in enumerate(fig.simplices(k)):
                column = b[:, [sid_]].toarray().ravel()
                faces = sorted(fig.simplex_id(k - 1, simplex[:d] + simplex[d + 1 :]) for d in range(k + 1))
                assert np.flatnonzero(column).tolist() == faces
                assert (column[faces] == 1).all() and len(faces) == k + 1


class TestFamilies:
    def test_s_family_counts_and_shared_face(self):
        c = generate_S(5, 2)
        assert c.n_simplices(2) == 5
        assert c.n_simplices(3) == 0
        shared = c.simplices(1)[c.simplex_id(1, (0, 1))]
        for tri in c.simplices(2):
            assert set(shared) <= set(tri)

    def test_s_family_star_graph(self):
        c = generate_S(6, 1)
        assert c.n_simplices(1) == 6
        degrees = sorted(c.graph.degree(i) for i in range(c.graph.n))
        assert degrees == [1] * 6 + [6]

    @pytest.mark.parametrize("l,k", [(1, 1), (3, 2), (10, 3)])
    def test_s_family_sizes(self, l, k):
        c = generate_S(l, k)
        assert c.n_simplices(k) == l
        assert c.n_simplices(k + 1) == 0

    def test_t_family_counts(self):
        assert generate_T(2, [1, 2, 4]).n_simplices(2) == 8
        assert generate_T(2, [0, 0, 0]).n_simplices(2) == 1
        assert generate_T(3, [2, 0, 1, 1]).n_simplices(3) == 5

    def test_t_family_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="exactly 3"):
            generate_T(2, [1, 2])

    def test_t_1_1_1_is_a_path_of_three_edges(self):
        c = generate_T(1, [1, 1])
        p = generate_P(3, 1)
        assert c.counts() == p.counts()
        assert sorted(c.graph.degree(i) for i in range(c.graph.n)) == sorted(
            p.graph.degree(i) for i in range(p.graph.n)
        )

    @pytest.mark.parametrize("l,k", [(1, 1), (2, 2), (5, 2), (7, 3)])
    def test_p_family_sizes(self, l, k):
        c = generate_P(l, k)
        assert c.n_simplices(k) == l
        assert c.n_simplices(k + 1) == 0

    def test_p_family_level_one_is_path_graph(self):
        c = generate_P(4, 1)
        assert c.graph.n == 5
        assert sorted(c.graph.degree(i) for i in range(5)) == [1, 1, 2, 2, 2]
