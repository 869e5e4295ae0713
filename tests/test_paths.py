"""Distances, components, eccentricity/diameter, average path length, and the
cached per-level distance pass behind them."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import sid
from oracles import er_blocks_graph, er_graph, floyd_warshall
from simplicent import paths
from simplicent import (
    Graph,
    build_clique_complex,
    closeness,
    combined_adjacency,
    connected_components,
    example_complex,
    generate_P,
    generate_S,
    generate_T,
    harmonic_closeness,
    level_summary,
    shortest_distances,
)


class TestNineNodeExample:
    def test_triangle_distance(self, fig):
        d = shortest_distances(fig, 2)
        assert d[sid(fig, 2, "134"), sid(fig, 2, "234")] == 2

    def test_edge_distance(self, fig):
        d = shortest_distances(fig, 1)
        assert d[sid(fig, 1, "24"), sid(fig, 1, "67")] == 2

    def test_self_distance_zero(self, fig):
        for k in range(3):
            d = shortest_distances(fig, k)
            assert (np.diag(d) == 0).all()

    def test_component_structure(self, fig):
        assert connected_components(fig, 0).n_components == 1
        level1 = connected_components(fig, 1)
        assert level1.n_components == 3
        assert sorted(level1.sizes) == [1, 1, 12]
        lone = {sid(fig, 1, "12"), sid(fig, 1, "78")}
        for s in lone:
            assert level1.sizes[level1.labels[s]] == 1


class TestComponents:
    @pytest.mark.parametrize("l,k", [(4, 2), (3, 3)])
    def test_s_family_central_face_isolated_below(self, l, k):
        c = generate_S(l, k)
        labeling = connected_components(c, k - 1)
        central = c.simplex_id(k - 1, tuple(range(k)))
        assert labeling.sizes[labeling.labels[central]] == 1
        # ... while the level itself is connected
        assert connected_components(c, k).n_components == 1

    def test_single_simplex_is_singleton_component(self):
        c = generate_P(1, 2)
        labeling = connected_components(c, 2)
        assert labeling.sizes == [1]


class TestEccentricityDiameter:
    def test_t_family_worked_example(self):
        c = generate_T(2, [1, 2, 4])
        summary = level_summary(c, 2)
        central = c.simplex_id(2, (0, 1, 2))
        assert summary.eccentricities[central] == 1
        others = [i for i in range(summary.n) if i != central]
        assert all(summary.eccentricities[i] == 2 for i in others)
        assert summary.diameter == 2

    @pytest.mark.parametrize("l,k", [(5, 1), (4, 2), (3, 3)])
    def test_s_family_diameter_one(self, l, k):
        assert level_summary(generate_S(l, k), k).diameter == 1

    @pytest.mark.parametrize("l,k", [(2, 1), (5, 2), (7, 3)])
    def test_p_family_diameter(self, l, k):
        assert level_summary(generate_P(l, k), k).diameter == l - 1

    def test_singleton_eccentricity_zero(self):
        assert level_summary(generate_P(1, 1), 1).eccentricities[0] == 0


class TestAveragePathLength:
    @pytest.mark.parametrize("l,k", [(2, 1), (5, 2), (9, 3)])
    def test_s_family_is_one(self, l, k):
        assert level_summary(generate_S(l, k), k).avg_path_lengths == [1]

    @pytest.mark.parametrize("l,k", [(2, 2), (4, 1), (7, 2), (10, 3)])
    def test_p_family_attains_upper_bound_exactly(self, l, k):
        d = shortest_distances(generate_P(l, k), k)
        total = int(d.sum())  # both orientations
        assert Fraction(total, l * (l - 1)) == Fraction(l + 1, 3)

    def test_two_adjacent_simplices(self):
        assert level_summary(generate_P(2, 2), 2).avg_path_lengths == [1]

    def test_single_simplex_undefined(self):
        (value,) = level_summary(generate_P(1, 2), 2).avg_path_lengths
        assert math.isnan(value)

    def test_disconnected_level_averages_per_component(self, fig):
        values = level_summary(fig, 2).avg_path_lengths
        finite = [v for v in values if not math.isnan(v)]
        assert len(finite) == 1  # the 4-triangle component; isolated triangles are nan
        assert finite[0] == pytest.approx((1 + 1 + 1 + 2 + 2 + 2) / 6)


def test_distance_one_iff_adjacent(fig):
    for k in range(3):
        d = shortest_distances(fig, k)
        adj = combined_adjacency(fig, k).mat.toarray()
        assert ((d == 1) == (adj == 1)).all()


@pytest.mark.parametrize("seed", range(8))
def test_metric_axioms_and_brute_force_agreement(seed):
    rng = np.random.default_rng(900 + seed)
    g = er_graph(int(rng.integers(8, 16)), float(rng.uniform(0.2, 0.5)), rng)
    c = build_clique_complex(g, 3)
    for k in range(3):
        if c.n_simplices(k) == 0:
            continue
        d = shortest_distances(c, k)
        assert (d == d.T).all()
        assert ((d == 0) == np.eye(d.shape[0], dtype=bool)).all()
        reference = floyd_warshall(combined_adjacency(c, k).mat.toarray())
        assert (d == reference).all()
        for mid in range(d.shape[0]):
            assert (d <= d[:, mid, None] + d[None, mid, :]).all()


@pytest.mark.parametrize("seed", range(5))
def test_lemma_bound_on_connected_levels(seed):
    rng = np.random.default_rng(50 + seed)
    g = er_graph(12, 0.35, rng)
    c = build_clique_complex(g, 3)
    for k in range(3):
        labeling = connected_components(c, k)
        if labeling.n_components != 1 or c.n_simplices(k) < 2:
            continue
        n = c.n_simplices(k)
        (l_k,) = level_summary(c, k).avg_path_lengths
        assert 1 <= l_k <= (n + 1) / 3


def test_matrix_limit_guard(fig):
    with pytest.raises(ValueError, match="materialization.*level_summary"):
        shortest_distances(fig, 0, max_size=5)


@pytest.mark.parametrize("seed", range(6))
def test_block_kernel_matches_floyd_warshall(seed, monkeypatch):
    graph = er_blocks_graph(np.random.default_rng(1300 + seed))
    runs = []
    for size in (1, 3, paths.BLOCK_SIZE):
        monkeypatch.setattr(paths, "BLOCK_SIZE", size)
        c = build_clique_complex(graph, 5)  # fresh, or the distance pass cached at one size serves the next
        levels = range(c.max_level)
        runs.append([(shortest_distances(c, k), level_summary(c, k), connected_components(c, k)) for k in levels])
    assert any(c.n_simplices(k) == 0 for k in levels)
    assert connected_components(c, 0).sizes.count(1) >= 2  # isolated simplices among other components
    for k in levels:
        reference = floyd_warshall(combined_adjacency(c, k).mat.toarray())
        finite = np.isfinite(reference)
        for dist, summary, labeling in (run[k] for run in runs):
            assert (dist == reference).all()
            assert (summary.eccentricities == np.where(finite, reference, 0.0).max(axis=1, initial=0.0)).all()
            labels = labeling.labels
            assert ((labels[:, None] == labels[None, :]) == finite).all()
            first_seen = [int(np.flatnonzero(labels == comp)[0]) for comp in range(labeling.n_components)]
            assert first_seen == sorted(first_seen)
            assert labeling.sizes == summary.component_sizes == np.bincount(labels).tolist()
            for comp, size in enumerate(labeling.sizes):
                idx = np.flatnonzero(labels == comp)
                if size == 1:
                    assert math.isnan(summary.avg_path_lengths[comp])
                else:
                    assert summary.avg_path_lengths[comp] == reference[np.ix_(idx, idx)].sum() / (size * (size - 1))
            if c.n_simplices(k):
                assert summary.diameter == reference[finite].max()
            else:
                assert math.isnan(summary.diameter)


def _depth_ordered_harmonic(row: np.ndarray) -> float:
    """Sum over depths d >= 1, nearest first, of (count at d) / d."""
    total = 0.0
    for d in range(1, int(row[np.isfinite(row)].max()) + 1):
        total += np.count_nonzero(row == d) / d
    return total


def _branch_inputs(limit=paths.DEPTH_LIMIT):  # the module's limit, not a patched one
    for seed in range(6):
        c = build_clique_complex(er_blocks_graph(np.random.default_rng(1300 + seed)), 5)
        yield from ((c, k) for k in range(c.max_level))
    for l in (2, limit + 1, limit + 2, 40):  # diameter l - 1, on both sides of the limit
        yield generate_P(l, 1), 1
        yield generate_P(l, 2), 2
    for l in (2, 5):
        yield generate_S(l, 2), 2
    for size in (63, 64, 65, 129):  # one word, one bit more, and a block's bit 63
        yield generate_S(size, 1), 1
        yield generate_P(size, 1), 1


@pytest.mark.parametrize("limit", [0, 10**9], ids=["csgraph", "bits"])
def test_each_branch_of_the_distance_pass_matches_floyd_warshall(limit, monkeypatch):
    monkeypatch.setattr(paths, "DEPTH_LIMIT", limit)
    branches = []
    monkeypatch.setattr(paths, "_csgraph_distances", lambda mat, run=paths._csgraph_distances: branches.append(1) or run(mat))
    for c, k in _branch_inputs():
        adj = combined_adjacency(c, k).mat
        reference = floyd_warshall(adj.toarray())
        finite = np.where(np.isfinite(reference), reference, 0.0)
        _, ecc, farness, harmonic = paths._level_distances(c, k)
        assert (ecc == finite.max(axis=1, initial=0.0)).all()
        assert (farness == finite.sum(axis=1)).all()
        want = np.divide(1.0, reference, out=np.zeros_like(reference), where=reference > 0).sum(axis=1)
        assert (np.abs(harmonic - want) <= 1e-12 * np.maximum(want, 1.0)).all()
        if limit:  # the bit kernel adds each source's terms in depth order
            assert list(harmonic) == [_depth_ordered_harmonic(row) for row in reference]
        assert len(branches) == (0 if limit else int(adj.nnz > 0))
        branches.clear()


def test_a_level_deeper_than_the_limit_goes_to_csgraph_whatever_its_block(monkeypatch):
    searched = []
    monkeypatch.setattr(paths, "_csgraph_distances", lambda mat, run=paths._csgraph_distances: searched.append(1) or run(mat))
    limit = paths.DEPTH_LIMIT
    for l in (limit + 1, limit + 2):
        paths._level_distances(generate_P(l, 1), 1)
        assert len(searched) == (l - 1 > limit)  # diameter l - 1
    # a star's 70 edges fill the first block; the deep path's edges come in the second
    star = [(0, leaf) for leaf in range(1, 71)]
    path = [(v, v + 1) for v in range(71, 71 + limit + 2)]
    c = build_clique_complex(Graph([str(v) for v in range(72 + limit + 2)], star + path), 2)
    searched.clear()
    _, ecc, _, _ = paths._level_distances(c, 1)
    assert searched == [1] and ecc.max() == limit + 1


def test_block_size_above_one_word_refused(monkeypatch):
    monkeypatch.setattr(paths, "BLOCK_SIZE", paths.WORD + 1)
    with pytest.raises(ValueError, match="BLOCK_SIZE must be between 1 and 64"):
        level_summary(example_complex(3), 1)


class TestDistancePass:
    def test_one_traversal_serves_every_path_statistic(self, monkeypatch):
        c = example_complex(3)  # not the shared fixture, whose passes other tests may have cached
        original = paths._bit_distances
        calls = []

        def counted(mat):
            calls.append(mat.shape[0])
            return original(mat)

        monkeypatch.setattr(paths, "_bit_distances", counted)
        for k in range(3):
            closeness(c, k)
            harmonic_closeness(c, k)
            level_summary(c, k)
            closeness(c, k, normalized=False)
        assert calls == c.counts()[:3]

    def test_cached_arrays_are_read_only(self, fig):
        for k in range(3):
            summary = level_summary(fig, k)
            harmonic = harmonic_closeness(fig, k).scores
            labeling, *arrays = fig._distances[k]
            for arr in (labeling.labels, *arrays):
                assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                summary.eccentricities[0] = -1.0
            harmonic[:] = -1.0  # the caller's own copy
            assert (harmonic_closeness(fig, k).scores == arrays[2]).all()
            assert (arrays[2] >= 0).all()
            assert level_summary(fig, k) is not summary
