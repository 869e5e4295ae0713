"""Node projection, ranking, detection curves, random baseline."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import er_graph

from simplicent import (
    build_clique_complex,
    CentralityVector,
    degree_centrality,
    detection_curve,
    project_to_nodes,
    random_baseline,
    rank_nodes,
    read_annotations,
    top_overlap,
)


class TestProjection:
    def test_mean_of_incident_scores(self, fig):
        scores = CentralityVector(1, "x", np.zeros(14))
        idx = {s: i for i, s in enumerate(fig.simplices(1))}
        # node "1" (index 0) lies in edges (0,1), (0,2), (0,3)
        scores.scores[idx[(0, 1)]] = 2.0
        scores.scores[idx[(0, 2)]] = 4.0
        scores.scores[idx[(0, 3)]] = 3.0
        proj = project_to_nodes(fig, scores)
        assert proj.scores[0] == pytest.approx(3.0)

    def test_node_without_simplex_scores_zero(self, fig):
        tri_deg = degree_centrality(fig, 2)
        proj = project_to_nodes(fig, tri_deg)
        assert proj.scores[fig.graph.index_of("9")] == 0.0

    def test_nine_node_triangle_degree_projection(self, fig):
        proj = project_to_nodes(fig, degree_centrality(fig, 2))
        assert proj.scores[fig.graph.index_of("5")] == pytest.approx(2.0)

    def test_level_zero_rejected(self, fig):
        with pytest.raises(ValueError, match="level >= 1"):
            project_to_nodes(fig, degree_centrality(fig, 0))

    def test_projection_result_is_node_level(self, fig):
        proj = project_to_nodes(fig, degree_centrality(fig, 1))
        assert proj.level == 0
        assert proj.n == fig.graph.n

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_simplex_loop(self, seed):
        rng = np.random.default_rng(seed)
        c = build_clique_complex(er_graph(14, 0.5, rng), 3)
        for k in range(1, 4):
            scores = CentralityVector(k, "x", rng.normal(size=c.n_simplices(k)))
            totals, counts = np.zeros(c.graph.n), np.zeros(c.graph.n)
            for sid, simplex in enumerate(c.simplices(k)):
                for v in simplex:
                    totals[v] += scores.scores[sid]
                    counts[v] += 1
            want = np.divide(totals, counts, out=np.zeros(c.graph.n), where=counts > 0)
            assert project_to_nodes(c, scores).scores.tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(factor=st.floats(0.01, 100.0, allow_nan=False))
    def test_projection_linear_and_ranking_scale_invariant(self, fig, factor):
        base = degree_centrality(fig, 2)
        scaled = CentralityVector(2, "x", base.scores * factor)
        p1 = project_to_nodes(fig, base)
        p2 = project_to_nodes(fig, scaled)
        assert np.allclose(p2.scores, factor * p1.scores, rtol=1e-12)
        assert (rank_nodes(p1) == rank_nodes(p2)).all()


class TestRanking:
    def test_descending_with_id_tiebreak(self):
        vec = CentralityVector(0, "x", np.array([3.0, 1.0, 3.0]))
        assert rank_nodes(vec).tolist() == [0, 2, 1]

    def test_all_equal_gives_id_order(self):
        vec = CentralityVector(0, "x", np.full(5, 2.5))
        assert rank_nodes(vec).tolist() == [0, 1, 2, 3, 4]

    def test_distinct_scores_pure_order(self):
        vec = CentralityVector(0, "x", np.array([0.1, 5.0, 3.0]))
        assert rank_nodes(vec).tolist() == [1, 2, 0]

    def test_near_ties_rank_by_id(self):
        # the same node projection, rounded two ways: equal in exact arithmetic
        vec = CentralityVector(0, "x", np.array([1.0, 178.06716401948051, 2.0, 178.0671640194805]))
        assert 178.06716401948051 > 178.0671640194805
        assert rank_nodes(vec).tolist() == [1, 3, 2, 0]
        vec.scores[[1, 3]] = vec.scores[[3, 1]]
        assert rank_nodes(vec).tolist() == [1, 3, 2, 0]

    def test_integer_degrees_keep_strict_order(self):
        degrees = np.array([3, 10**6, 10**6 - 1, 3, 0, 10**6], dtype=np.int64)
        assert rank_nodes(CentralityVector(0, "degree", degrees)).tolist() == [1, 5, 2, 0, 3, 4]


class TestDetectionCurve:
    def test_perfect_ranking(self):
        flags = np.array([True] * 5 + [False] * 5)
        curve = detection_curve(np.arange(10), flags, (50.0,))
        assert curve.counts.tolist() == [5.0]
        assert curve.percentages.tolist() == [100.0]

    def test_counts_nondecreasing_in_x(self):
        rng = np.random.default_rng(0)
        flags = rng.random(40) < 0.3
        curve = detection_curve(rng.permutation(40), flags, (5.0, 10.0, 25.0, 50.0, 100.0))
        assert (np.diff(curve.counts) >= 0).all()
        assert ((0 <= curve.percentages) & (curve.percentages <= 100)).all()

    def test_top_size_uses_ceiling(self):
        flags = np.zeros(7, dtype=bool)
        curve = detection_curve(np.arange(7), flags, (1.0, 50.0))
        assert curve.top_sizes.tolist() == [1, 4]

    def test_random_permutation_mean_near_essential_fraction(self):
        rng = np.random.default_rng(42)
        n = 60
        flags = np.zeros(n, dtype=bool)
        flags[:30] = True
        pct = np.mean(
            [
                detection_curve(rng.permutation(n), flags, (50.0,)).percentages[0]
                for _ in range(100)
            ]
        )
        assert pct == pytest.approx(50.0, abs=5.0)

    def test_empty_annotation_warns_and_zeroes(self, caplog):
        with caplog.at_level(logging.WARNING):
            curve = detection_curve(np.arange(10), np.zeros(10, dtype=bool), (10.0, 50.0))
        assert (curve.counts == 0).all()
        assert "no essential nodes" in caplog.text

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            detection_curve(np.arange(4), np.zeros(4, dtype=bool), (0.0,))


class TestRandomBaseline:
    def test_seed_determinism(self):
        flags = np.arange(50) % 3 == 0
        a = random_baseline(50, flags, (10.0, 20.0), seed=9, repetitions=25)
        b = random_baseline(50, flags, (10.0, 20.0), seed=9, repetitions=25)
        assert (a.counts == b.counts).all()
        assert (a.percentages == b.percentages).all()

    def test_single_repetition_equals_detection_of_that_permutation(self):
        flags = np.arange(20) % 4 == 0
        seed = 123
        base = random_baseline(20, flags, (25.0, 50.0), seed=seed, repetitions=1)
        perm = np.random.default_rng(seed).permutation(20)
        direct = detection_curve(perm, flags, (25.0, 50.0))
        assert (base.counts == direct.counts).all()

    def test_mean_approaches_essential_fraction(self):
        flags = np.zeros(200, dtype=bool)
        flags[:80] = True  # fraction 0.4
        curve = random_baseline(200, flags, (5.0, 25.0, 60.0), seed=3, repetitions=4000)
        assert np.allclose(curve.percentages, 40.0, atol=1.5)

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            random_baseline(10, np.zeros(10, dtype=bool), (10.0,), seed=0, repetitions=0)


class TestTopOverlap:
    def test_identical_rankings(self):
        r = np.arange(30)
        assert top_overlap(r, r, 10) == 10

    def test_disjoint_prefixes(self):
        r1 = np.arange(20)
        r2 = np.concatenate([np.arange(10, 20), np.arange(10)])
        assert top_overlap(r1, r2, 10) == 0

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            top_overlap(np.arange(5), np.arange(5), 6)


class TestAnnotations:
    def test_file_round_trip(self, tmp_path, fig_graph, caplog):
        path = tmp_path / "ann.txt"
        path.write_text("# essentiality\n1 1\n3 0\n5 1\nZZZ 1\n")
        ann = read_annotations(str(path))
        assert ann.coverage == 4
        with caplog.at_level(logging.WARNING):
            flags = ann.flags_for(fig_graph)
        assert flags[fig_graph.index_of("1")]
        assert not flags[fig_graph.index_of("3")]
        assert flags[fig_graph.index_of("5")]
        assert not flags[fig_graph.index_of("2")]  # unannotated -> non-essential
        assert "not in the graph" in caplog.text

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A yes\n")
        with pytest.raises(ValueError, match="line 1"):
            read_annotations(str(path))
