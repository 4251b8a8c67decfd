"""Tests for window-graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnase import graphs
from gnnase.errors import ShapeMismatch, TooFewWindows, ZeroVector
from gnnase.features import WindowFeatures
from gnnase.numerics import make_rng
from gnnase.simulate import FaultSpec


def windows_from(matrix, source="rec"):
    return [WindowFeatures(x=np.asarray(row, dtype=float), source=source) for row in matrix]


FAULT = FaultSpec(kind="broken_bars", bar_count=2, severity=2.0 / 3.0)
HEALTHY = FaultSpec(kind="healthy")

# Rows for property tests: repeats, scaled copies and mirror images make
# equal cosines, so similarity ties occur often.
TIE_ROWS = np.array([
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0],
    [1.0, -1.0, 0.5], [-1.0, 1.0, -0.5], [0.3, 0.3, 0.3],
])


def reference_edges(X, k):
    """kNN edges picked one node at a time with a Python sort, as the graph docstring defines them."""
    n = len(X)
    cos = np.ones((n, n))
    for i in range(n - 1):
        row, _ = graphs.row_cosines(np.broadcast_to(X[i], X[i + 1 :].shape), X[i + 1 :])
        cos[i, i + 1 :] = cos[i + 1 :, i] = row
    pairs = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        candidates = [j for j in range(n) if abs(j - i) > 1]
        # Descending similarity, index ascending on ties.
        candidates.sort(key=lambda j: (-cos[i, j], j))
        pairs.update((min(i, j), max(i, j)) for j in candidates[:k])
    return [(i, j, graphs.similarity_weight(cos[i, j])) for i, j in sorted(pairs)]


class TestCosineSimilarity:
    def test_identical_vectors(self):
        cos, undefined = graphs.row_cosines([[1.0, 2.0]], [[1.0, 2.0]])
        assert cos == pytest.approx([1.0])
        assert not undefined.any()

    def test_orthogonal(self):
        cos, undefined = graphs.row_cosines([[1.0, 0.0]], [[0.0, 1.0]])
        assert cos == pytest.approx([0.0])
        assert not undefined.any()

    def test_hand_evaluation(self):
        # A hand-evaluated pair, then a zero-norm pair, which is flagged and reads 0.
        cos, undefined = graphs.row_cosines([[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 0.0]])
        assert cos == pytest.approx([1 / np.sqrt(2), 0.0])
        assert undefined.tolist() == [False, True]

    def test_zero_vector_rejected(self):
        # row_cosines only flags a zero-norm pair; a graph refuses it.
        _, undefined = graphs.row_cosines([[0.0, 0.0]], [[1.0, 0.0]])
        assert undefined.tolist() == [True]
        with pytest.raises(ZeroVector):
            graphs.build_graph(windows_from([[0.0, 0.0], [1.0, 0.0]]), HEALTHY, k=0)

    def test_shape_mismatch(self):
        w = windows_from([[1.0]]) + windows_from([[1.0, 2.0]])
        with pytest.raises(ShapeMismatch):
            graphs.build_graph(w, HEALTHY, k=0)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_symmetry(self, seed):
        rng = make_rng(seed)
        x, y = rng.normal(size=(2, 6, 5)) + 0.1
        # Parallel rows round past +-1 about a quarter of the time unclamped.
        c = np.concatenate([graphs.row_cosines(x, other)[0] for other in (y, x, -x)])
        assert np.all((-1.0 <= c) & (c <= 1.0))
        assert np.array_equal(c[:6], graphs.row_cosines(y, x)[0])


class TestBuildGraph:
    def test_minimal_two_node_graph(self):
        w = windows_from([[1.0, 0.0], [1.0, 1.0]])
        g = graphs.build_graph(w, HEALTHY, k=0)
        assert len(g.edges) == 1
        i, j, weight = g.edges[0]
        assert (i, j) == (0, 1)
        assert weight == pytest.approx((1 + 1 / np.sqrt(2)) / 2)

    @given(
        st.lists(st.integers(0, len(TIE_ROWS) - 1), min_size=2, max_size=12),
        st.integers(0, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_edges_match_per_node_reference(self, rows, k):
        X = TIE_ROWS[rows]
        edges = graphs.build_graph(windows_from(X), HEALTHY, k=k).edges
        expected = reference_edges(X, k)
        assert [(i, j, w.hex()) for i, j, w in edges] == [(i, j, w.hex()) for i, j, w in expected]
        assert [tuple(map(type, e)) for e in edges] == [tuple(map(type, e)) for e in expected]

    def test_pair_blocks_give_the_same_edges(self, monkeypatch):
        X = make_rng(11).normal(size=(12, 5)) + 0.1
        expected = reference_edges(X, 3)
        monkeypatch.setattr(graphs, "PAIR_BLOCK", 7)
        edges = graphs.build_graph(windows_from(X), HEALTHY, k=3).edges
        assert [(i, j, w.hex()) for i, j, w in edges] == [(i, j, w.hex()) for i, j, w in expected]
        X[11] = 0.0  # none of its pairs falls in the first block
        with pytest.raises(ZeroVector):
            graphs.build_graph(windows_from(X), HEALTHY, k=3)

    def test_identical_vectors_give_unit_weights(self):
        w = windows_from([[1.0, 2.0]] * 5)
        g = graphs.build_graph(w, HEALTHY, k=2)
        assert all(weight == pytest.approx(1.0) for _, _, weight in g.edges)

    def test_degree_bounds_chain_plus_knn(self):
        rng = make_rng(3)
        w = windows_from(rng.normal(size=(6, 4)) + 2.0)
        g = graphs.build_graph(w, FAULT, k=2)
        deg = np.bincount([end for i, j, _ in g.edges for end in (i, j)], minlength=g.n_nodes)
        assert np.all(deg >= 1)
        assert np.all(deg <= 2 + 2 * 2)

    def test_chain_only_when_k_zero(self):
        rng = make_rng(4)
        w = windows_from(rng.normal(size=(7, 3)) + 2.0)
        g = graphs.build_graph(w, HEALTHY, k=0)
        assert len(g.edges) == 6
        assert [(i, j) for i, j, _ in g.edges] == [(i, i + 1) for i in range(6)]

    def test_single_window_rejected(self):
        with pytest.raises(TooFewWindows):
            graphs.build_graph(windows_from([[1.0, 2.0]]), HEALTHY, k=0)

    def test_weights_are_edge_weight_exactly(self):
        # One mapping: every stored weight is bit for bit the weight of its
        # endpoints' cosine, so changing the formula at either site fails here.
        for seed in range(20):
            rng = make_rng(100 + seed)
            n = int(rng.integers(2, 40))
            w = windows_from(rng.normal(size=(n, 20)) + 0.3)
            g = graphs.build_graph(w, FAULT, k=int(rng.integers(0, 5)))
            for i, j, weight in g.edges:
                a, b = w[i].x[None], w[j].x[None]
                assert weight == graphs.similarity_weight(graphs.row_cosines(a, b)[0])[0]

    def test_zero_window_rejected(self):
        with pytest.raises(ZeroVector):
            graphs.build_graph(windows_from([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0]]), HEALTHY, k=1)

    def test_mixed_feature_shapes_rejected(self):
        w = windows_from([[1.0, 2.0], [2.0, 1.0]]) + windows_from([[1.0, 2.0, 3.0]])
        with pytest.raises(ShapeMismatch):
            graphs.build_graph(w, HEALTHY, k=1)

    def test_weights_in_unit_interval(self):
        rng = make_rng(5)
        w = windows_from(rng.normal(size=(10, 6)))
        g = graphs.build_graph(w, FAULT, k=3)
        for _, _, weight in g.edges:
            assert 0.0 <= weight <= 1.0

    def test_edges_canonical_and_unique(self):
        rng = make_rng(6)
        w = windows_from(rng.normal(size=(8, 4)))
        g = graphs.build_graph(w, FAULT, k=3)
        keys = [(i, j) for i, j, _ in g.edges]
        assert all(i < j for i, j in keys)
        assert len(set(keys)) == len(keys)

    def test_connected_via_chain(self):
        rng = make_rng(7)
        w = windows_from(rng.normal(size=(9, 4)))
        g = graphs.build_graph(w, HEALTHY, k=1)
        # Union-find over the edge list.
        parent = list(range(g.n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j, _ in g.edges:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(g.n_nodes)}) == 1

    def test_targets_broadcast_from_label(self):
        w = windows_from(make_rng(8).normal(size=(4, 3)))
        g = graphs.build_graph(w, FAULT, k=1)
        assert len(g.node_targets) == 4
        for t in g.node_targets:
            assert t.anomaly == 1
            assert t.severity == pytest.approx(2.0 / 3.0)
            assert t.fault_type == "bar_breakage"
        h = graphs.build_graph(w, HEALTHY, k=1)
        assert all(t.anomaly == 0 and t.fault_type is None for t in h.node_targets)

    def test_feature_permutation_leaves_weights_unchanged(self):
        rng = make_rng(9)
        base = rng.normal(size=(6, 5))
        perm = [3, 0, 4, 1, 2]
        g1 = graphs.build_graph(windows_from(base), HEALTHY, k=2)
        g2 = graphs.build_graph(windows_from(base[:, perm]), HEALTHY, k=2)
        assert [(i, j) for i, j, _ in g1.edges] == [(i, j) for i, j, _ in g2.edges]
        for (_, _, w1), (_, _, w2) in zip(g1.edges, g2.edges):
            assert w1 == pytest.approx(w2, abs=1e-12)

    def test_global_scale_leaves_weights_unchanged(self):
        rng = make_rng(10)
        base = rng.normal(size=(6, 5))
        g1 = graphs.build_graph(windows_from(base), HEALTHY, k=2)
        g2 = graphs.build_graph(windows_from(base * 7.5), HEALTHY, k=2)
        for (_, _, w1), (_, _, w2) in zip(g1.edges, g2.edges):
            assert w1 == pytest.approx(w2, abs=1e-12)
