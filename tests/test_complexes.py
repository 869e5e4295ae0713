"""Graph ingest, clique lifting, and the synthetic families."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_cliques, er_blocks_graph, er_graph, line_loop_parse, neighbour_sets
from simplicent import complexes
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
        assert len(neighbour_sets(g)[1]) == 0

    def test_rejects_out_of_range_and_malformed_edges(self):
        with pytest.raises(ValueError, match=r"edge \(0,3\) out of range for 3 nodes"):
            Graph(["a", "b", "c"], [(0, 1), (0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(["a", "b"], [(-1, 1)])
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            Graph(["a", "b", "c"], np.array([[0, 1], [2, 1], [1, 2]]))
        with pytest.raises(ValueError, match="pairs"):
            Graph(["a", "b", "c"], [(0, 1, 2)])

    def test_edges_are_sorted_pairs_with_lazy_neighbours(self):
        g = Graph(list("abcd"), {(3, 1), (2, 0), (0, 1)})
        assert g.edges == [(0, 1), (0, 2), (1, 3)]
        assert all(type(u) is int for e in g.edges for u in e)
        assert not g.edge_array.flags.writeable
        nbrs = neighbour_sets(g)
        assert nbrs[0] == {1, 2} and len(nbrs[3]) == 1
        assert [(u, v) for u, v in g.edges] == g.edges


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

    def test_error_names_first_malformed_line_and_its_width(self):
        text = "# header\n\nA B\n  # indented comment\nB C D\nE\n"
        for source in (io.StringIO(text), text.splitlines()):
            with pytest.raises(ValueError, match=r"^line 5: expected two labels, got 3$"):
                parse_edge_list(source)
        with pytest.raises(ValueError, match=r"^line 2: expected two labels, got 1$"):
            parse_edge_list(["A B", "  lonely  "])

    @pytest.mark.parametrize(
        "text",
        [
            "A B\r\nB C\r\n# note\r\nC A\r\n",  # CRLF
            "A B\nB C",  # no final newline
            "A\tB\n\tB \t C\t\n",  # tabs
            "A B\n   \n\t\nB C\n\n",  # whitespace-only lines
            "  # indented\n\t#tab\nA B\n#x y\n",  # indented and two-token comments
            "A B\nB A\nA B\n",  # duplicates, one written in reverse
            "A A\nA B\nC C\n",  # self-loops, one on a label seen nowhere else
            "",
            "\n",
            "é 日本\n\"q\" a,b\n",
        ],
        ids=["crlf", "no-final-newline", "tabs", "blank", "comments", "duplicates", "self-loops", "empty",
             "newline-only", "unicode"],
    )
    def test_file_and_lines_agree_with_line_loop(self, text, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            from_file = parse_edge_list(fh)
        with open(path, encoding="utf-8") as fh:
            want = line_loop_parse(fh)
        for got in (from_file, parse_edge_list(text.splitlines()), parse_edge_list(io.StringIO(text))):
            _assert_same_parse(got, want)

    def test_counts_and_first_appearance_order(self):
        g, report = parse_edge_list(io.StringIO("# h\nz y\nq q\ny z\n\nx z\nz y\n"))
        assert g.labels == ["z", "y", "q", "x"]
        assert g.edges == [(0, 1), (0, 3)]
        assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (2, 2)
        assert (report.lines, report.comments, report.edges) == (7, 1, 2)
        assert (report.dropped_self_loops, report.dropped_duplicates) == (1, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["", " ", "\t", "\r", " \x0b"]),
                st.lists(st.sampled_from(["a", "b", "c", "d", "#", "#x", "é", "a,b", '"q"']), max_size=3),
                st.sampled_from([" ", "\t", " \x0c ", "\u00a0"]),
                st.sampled_from(["", " ", "\r"]),
            ).map(lambda t: t[0] + t[2].join(t[1]) + t[3]),
            max_size=12,
        ),
        final_newline=st.booleans(),
    )
    def test_matches_line_loop_parser(self, lines, final_newline):
        text = "\n".join(lines) + ("\n" if final_newline and lines else "")
        for make_source in (lambda: io.StringIO(text), lambda: list(lines)):
            try:
                want = line_loop_parse(make_source())
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    parse_edge_list(make_source())
                assert str(err.value) == str(exc)
            else:
                _assert_same_parse(parse_edge_list(make_source()), want)


def _assert_same_parse(got, want):
    (g, report), (g_want, report_want) = got, want
    assert report == report_want
    assert g.labels == g_want.labels
    assert g.edges == g_want.edges
    assert g.edge_array.dtype == np.int64 and np.array_equal(g.edge_array, g_want.edge_array)


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
        assert len(c1.levels) == len(c2.levels) == 4
        for k, (level, again) in enumerate(zip(c1.levels, c2.levels)):
            assert level.dtype == np.int64 and level.shape == (c1.n_simplices(k), k + 1)
            assert np.array_equal(level, again)
            assert (np.diff(level, axis=1) > 0).all()  # vertices strictly increase within a row
            rows = list(map(tuple, level.tolist()))
            assert all(a < b for a, b in zip(rows, rows[1:]))  # rows strictly increase

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

    def test_lookup_of_non_simplices(self, fig):
        empty_level = build_clique_complex(Graph(["a", "b"], []), 2)
        cases = [
            (fig, 1, (0, 8)),  # absent edge
            (fig, 2, (0, 1, 4)),  # absent triangle
            (fig, 1, (1, 0)),  # an edge, unsorted
            (fig, 2, (1, 0, 2)),  # a triangle, unsorted
            (fig, 1, (0, 1, 2)),  # too long
            (fig, 2, (0, 1)),  # too short
            (fig, 0, ()),
            (empty_level, 1, (0, 1)),
            (empty_level, 2, (0, 1, 2)),
        ]
        for c, k, simplex in cases:
            assert not c.has_simplex(k, simplex)
            with pytest.raises(KeyError):
                c.simplex_id(k, simplex)

    def test_boundary_columns_hold_faces(self, fig):
        for k in range(1, 4):
            b = fig.boundary(k)
            assert b.shape == (fig.n_simplices(k - 1), fig.n_simplices(k))
            for sid_, simplex in enumerate(fig.simplices(k)):
                column = b[:, [sid_]].toarray().ravel()
                faces = sorted(fig.simplex_id(k - 1, simplex[:d] + simplex[d + 1 :]) for d in range(k + 1))
                assert np.flatnonzero(column).tolist() == faces
                assert (column[faces] == 1).all() and len(faces) == k + 1


def _hub_graph(leaves: int, hub_last: bool, rim: bool) -> Graph:
    """A star on ``leaves`` leaves, the hub first or last in vertex order;
    with ``rim``, consecutive leaves are joined too (a fan of triangles)."""
    hub = leaves if hub_last else 0
    rest = [v for v in range(leaves + 1) if v != hub]
    edges = [(min(hub, v), max(hub, v)) for v in rest]
    if rim:
        edges += list(zip(rest, rest[1:]))
    return Graph([str(v) for v in range(leaves + 1)], edges)


LIFT_GRAPHS = (
    [er_blocks_graph(np.random.default_rng(seed)) for seed in range(6)]
    + [er_graph(14, 0.7, np.random.default_rng(0))]  # cliques up to level 4
    + [_hub_graph(9, hub_last, rim) for hub_last in (False, True) for rim in (False, True)]
)


@pytest.mark.parametrize("block", [1, 2, 7, complexes.ROW_BLOCK])
def test_lift_matches_brute_force_at_every_row_block(monkeypatch, block):
    monkeypatch.setattr(complexes, "ROW_BLOCK", block)
    for g in LIFT_GRAPHS:
        for k, level in enumerate(build_clique_complex(g, 4).levels):
            want = np.array(sorted(brute_cliques(g, k + 1)), dtype=np.int64).reshape(-1, k + 1)
            assert level.dtype == want.dtype and level.shape == want.shape and np.array_equal(level, want)


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
        degrees = sorted(map(len, neighbour_sets(c.graph)))
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
        assert sorted(map(len, neighbour_sets(c.graph))) == sorted(map(len, neighbour_sets(p.graph)))

    @pytest.mark.parametrize("l,k", [(1, 1), (2, 2), (5, 2), (7, 3)])
    def test_p_family_sizes(self, l, k):
        c = generate_P(l, k)
        assert c.n_simplices(k) == l
        assert c.n_simplices(k + 1) == 0

    def test_p_family_level_one_is_path_graph(self):
        c = generate_P(4, 1)
        assert c.graph.n == 5
        assert sorted(map(len, neighbour_sets(c.graph))) == [1, 1, 2, 2, 2]
