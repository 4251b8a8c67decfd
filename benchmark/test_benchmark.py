"""Tests of the benchmark's own arithmetic and oracles.

Run from the repository root: ``python -m pytest -q benchmark``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from oracles import CheckFailed  # noqa: E402

# ------------------------------------------------------------- percentile


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert oracles.percentile(values, 50) == 50
    assert oracles.percentile(values, 90) == 90


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        oracles.percentile(range(99), 90)  # rank 90 of 99 leaves 9 beyond
    assert oracles.percentile(range(1, 21), 50) == 10  # rank 10 of 20 leaves 10
    with pytest.raises(ValueError):
        oracles.percentile(range(1, 20), 50)


# -------------------------------------------------------------- self time


def test_self_time_of_a_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("c", 6.0, 8.0, 2),
        spans.Span("a", 11.0, 12.5, None),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0, 1.5]
    assert spans.root_time(tree) == 11.5
    summary = spans.summarize(tree, {}, names=["root", "a", "b", "c"])
    assert summary["a_s"] == 4.5 and summary["a_calls"] == 2
    assert summary["root_s"] + summary["a_s"] + summary["b_s"] + summary["c_s"] == 11.5


def test_tracer_records_nesting_and_work_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("features.extract_windows", lambda: [1, 2, 3])
    outer = tracer.wrap("cli.main", lambda: inner() and inner())
    outer()
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("cli.main", 0.0, 5.0, None),
        ("features.extract_windows", 1.0, 2.0, 0),
        ("features.extract_windows", 3.0, 4.0, 0),
    ]
    assert tracer.counts["features.windows"] == 6
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_installed_patches_and_restores():
    from gnnase import model

    original = model.reweight_edges
    tracer = spans.Tracer()
    with tracer.installed({"model.reweight_edges": ["gnnase.model.reweight_edges", "gnnase.model.gone"]}):
        assert model.reweight_edges is not original
        model.reweight_edges([(0, 1, 0.5)], np.ones((2, 3)), 0.5)
    assert model.reweight_edges is original
    assert not hasattr(model, "gone")
    assert [s.name for s in tracer.spans] == ["model.reweight_edges"]


# --------------------------------------------------------------- features


def test_window_features_hand_case():
    n = np.arange(8)
    x = np.cos(2 * np.pi * n / 8) + 0.5 * np.cos(2 * np.pi * 2 * n / 8)
    got = oracles.window_features(x[None, :], sample_rate=8.0)
    # |X1| = 4, |X2| = 2: power 16 and 4, so p = 0.8 and 0.2.
    entropy = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert np.allclose(got, [1.5, math.sqrt(0.625), 0.625, 1.0, entropy])

    nyquist = oracles.window_features(np.array([[1.0, -1.0] * 4]), sample_rate=8.0)
    assert np.allclose(nyquist, [1.0, 1.0, 1.0, 4.0, 0.0])


def test_window_features_match_the_package_and_catch_a_perturbation():
    from gnnase import features, simulate

    rec = simulate.synthesize(
        simulate.MachineSpec(duration=0.5),
        simulate.OperatingPoint.from_load(10.0),
        simulate.FaultSpec(kind="bearing", site="inner", severity=2 / 3),
        seed=3,
    )
    spec = features.WindowSpec()
    window = features.extract_windows(rec, spec)[1]
    own = np.stack([rec.channels[c] for c in simulate.CHANNEL_NAMES])[:, spec.hop : spec.hop + spec.window_len]
    expected = oracles.window_features(own, rec.sample_rate)
    oracles.check_features(expected, window.x, "window 1")
    perturbed = window.x.copy()
    perturbed[7] *= 1 + 1e-5
    with pytest.raises(CheckFailed):
        oracles.check_features(expected, perturbed, "window 1")


def test_filter_check_accepts_the_gain_curve_and_rejects_a_copy():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=1000)
    oracles.check_filter(raw, oracles.lowpass(raw, 1000.0, 100.0, 4), 1000.0, 100.0, 4)
    with pytest.raises(CheckFailed):
        oracles.check_filter(raw, raw.copy(), 1000.0, 100.0, 4)


def test_fault_tones_from_their_formulas():
    channel, brb = oracles.fault_tones("broken_bars", 50.0, 0.05, 2, None)
    assert channel == "phase_a" and np.allclose(brb, [45.0, 55.0])
    channel, ecc = oracles.fault_tones("eccentricity", 50.0, 0.01, 2, None)
    assert channel == "phase_a" and np.allclose(ecc, [25.25, 74.75])
    channel, bearing = oracles.fault_tones("bearing", 50.0, 0.01, 2, 60.0)
    assert channel == "vibration" and bearing == [10.0, 70.0, 110.0, 130.0, 170.0, 230.0]


def test_tone_level_reads_the_nearest_bin():
    t = np.arange(1000) / 1000.0
    assert oracles.tone_level(3.0 * np.cos(2 * np.pi * 50 * t), 1000.0, 50.2) == pytest.approx(1500.0)


# ------------------------------------------------------------------ graphs


def _hand_graph():
    # cos(0, 1) = cos(1, 2) = 1/sqrt(2); cos(0, 2) = 0.
    x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    w = (1 + 1 / math.sqrt(2)) / 2
    edges = [(0, 1, w), (0, 2, 0.5), (1, 2, w)]
    return x, edges


def test_graph_check_hand_case():
    x, edges = _hand_graph()
    oracles.check_graph(x, edges, n_samples=8, window_len=4, hop=2, k=0, where="hand")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: [(0, 1, 1 - e[0][2])] + e[1:],  # flipped weight: 1 - w
        lambda e: [(0, 1, e[1][2])] + e[1:],  # weight of another pair
        lambda e: e[1:],  # temporal chain broken
        lambda e: [(1, 0, e[0][2])] + e[1:],  # stored with i > j
    ],
)
def test_graph_check_rejects_a_broken_graph(mutate):
    x, edges = _hand_graph()
    with pytest.raises(CheckFailed):
        oracles.check_graph(x, mutate(edges), n_samples=8, window_len=4, hop=2, k=0, where="hand")


def test_graph_check_counts_nodes_and_degree():
    x, edges = _hand_graph()
    with pytest.raises(CheckFailed):
        oracles.check_graph(x, edges, n_samples=9 + 2, window_len=4, hop=2, k=0, where="hand")
    # Every node has degree 2, within 2 + 2k for k = 0; a fourth node linked
    # to all three takes them to 3.
    x4 = np.vstack([x, [[2.0, 1.0]]])
    cos = lambda i, j: float(x4[i] @ x4[j]) / (np.linalg.norm(x4[i]) * np.linalg.norm(x4[j]))
    dense = edges + [(i, 3, (1 + cos(i, 3)) / 2) for i in range(3)]
    with pytest.raises(CheckFailed):
        oracles.check_graph(x4, dense, n_samples=10, window_len=4, hop=2, k=0, where="hand")


# ------------------------------------------------------------------- model


def test_dense_gcn_hand_case():
    # One edge of weight 1: A + I is all ones, degrees 2, so each row averages.
    out = oracles.dense_gcn(np.array([[1.0], [3.0]]), 2, [(0, 1, 1.0)], np.array([[1.0]]))
    assert np.allclose(out, [[2.0], [2.0]])
    out = oracles.dense_gcn(np.array([[1.0], [3.0]]), 2, [(0, 1, 1.0)], np.array([[-1.0]]))
    assert np.allclose(out, 0.0)  # relu


def test_dense_gcn_matches_the_package_and_catches_a_flipped_weight():
    from gnnase import graphs, model

    x, edges = _hand_graph()
    g = graphs.SignalGraph(nodes=[None] * 3, edges=edges, node_targets=[])
    rng = np.random.default_rng(1)
    h, W = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    assert np.allclose(model.gcn_layer(h, g, W), oracles.dense_gcn(h, 3, edges, W), rtol=1e-12)
    flipped = [(0, 1, 1 - edges[0][2])] + edges[1:]
    assert not np.allclose(model.gcn_layer(h, g, W), oracles.dense_gcn(h, 3, flipped, W), rtol=1e-12)


def test_gradient_check_on_a_quadratic():
    target = np.array([1.0, -2.0, 3.0])

    def loss(params):
        return float(np.sum((params["w"] - target) ** 2))

    params = {"w": np.zeros(3)}
    rng = np.random.default_rng(0)
    oracles.check_gradients(loss, params, {"w": 2 * (params["w"] - target)}, rng)
    with pytest.raises(CheckFailed):
        oracles.check_gradients(loss, params, {"w": 2.001 * (params["w"] - target)}, rng)


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
