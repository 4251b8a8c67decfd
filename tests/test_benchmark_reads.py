"""The benchmark reads graphs and windows in these forms.

``benchmark/`` unpacks ``graph.edges`` as ``(i, j, w)`` triples, builds
``SignalGraph(nodes=[None] * 3, edges=[triples], node_targets=[])`` and
reads ``extract_windows(...)[w].x``. Its output checks run only when the
benchmark runs, so each read is pinned here, on a graph from
``build_graph`` and on one built from a triples list.
"""

import numpy as np
import pytest

from gnnase import features, graphs, model, simulate
from gnnase.numerics import make_rng

TRIPLES = [(0, 1, 0.8), (0, 2, 0.5), (1, 2, 0.75)]


def built_graph():
    x = make_rng(40).normal(size=(9, 4)) + 0.5
    return graphs.build_graph(x, simulate.FaultSpec(kind="healthy"), k=2)


def triples_graph():
    return graphs.SignalGraph(nodes=[None] * 3, edges=TRIPLES, node_targets=[])


@pytest.fixture(params=["build_graph", "triples"])
def graph(request):
    return built_graph() if request.param == "build_graph" else triples_graph()


def test_edges_unpack_as_triples(graph):
    unpacked = [(i, j, w) for i, j, w in graph.edges]
    assert unpacked == graph.edges.tolist()
    assert all(i < j and 0.0 <= w <= 1.0 for i, j, w in unpacked)
    assert triples_graph().edges.tolist() == TRIPLES


def test_edge_pairs_one_per_edge(graph):
    pairs = {(i, j) for i, j, _ in graph.edges}
    assert len(pairs) == len(graph.edges) == len(graph.edges.tolist())
    assert len(triples_graph().edges) == len(TRIPLES)


def test_gcn_layer_same_on_triples_and_array(graph):
    rng = make_rng(41)
    h, W = rng.normal(size=(graph.n_nodes, 5)), rng.normal(size=(5, 3))
    as_triples = graphs.SignalGraph(
        nodes=[None] * graph.n_nodes, edges=graph.edges.tolist(), node_targets=[]
    )
    assert np.array_equal(model.gcn_layer(h, graph, W), model.gcn_layer(h, as_triples, W))


def test_empty_edges():
    g = graphs.SignalGraph(nodes=[None] * 3, edges=[], node_targets=[])
    assert len(g.edges) == 0 and list(g.edges) == [] and not {(i, j) for i, j, _ in g.edges}
    h = make_rng(42).normal(size=(3, 2))
    assert np.array_equal(model.gcn_layer(h, g, np.eye(2), activation="identity"), h)


def windows():
    machine = simulate.MachineSpec(duration=1.0)
    rec = simulate.synthesize(
        machine, simulate.OperatingPoint.from_load(30.0), simulate.FaultSpec(kind="healthy"), 30.0, 3
    )
    return features.extract_windows(rec, features.WindowSpec())


def test_window_rows_are_rows_of_the_matrix():
    out = windows()
    assert len(out) == len(out.x) > 1
    for w in range(len(out)):
        assert out[w].x.tobytes() == out.x[w].tobytes()


def test_restacked_rows_equal_the_matrix():
    out = windows()
    assert np.stack([w.x for w in out]).tobytes() == out.x.tobytes()
