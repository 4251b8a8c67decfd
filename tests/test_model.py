"""Tests for the network, its gradients, and the training loop."""

import numpy as np
import pytest

from gnnase import model
from gnnase.errors import (
    EmptyDataset,
    FeatureDimMismatch,
    InvalidConfigValue,
    NegativeWeight,
    ShapeMismatch,
)
from gnnase.features import Standardizer, WindowFeatures
from gnnase.graphs import NodeTargets, SignalGraph, build_graph
from gnnase.numerics import derive_seed, finite_diff_grad, make_rng
from gnnase.simulate import FaultSpec

ECC = FaultSpec(kind="eccentricity", subtype="static", severity=0.75)
HEALTHY = FaultSpec(kind="healthy")

# Small dims keep finite-difference sweeps fast without changing any code path.
SMALL = dict(embed_dim=16, gcn1_dim=8, gcn2_dim=8, severity_dim=4)


def random_graph(n=6, d=20, seed=0, label=ECC, k=2):
    rng = make_rng(seed)
    windows = [
        WindowFeatures(x=rng.normal(size=d) + 0.5, window_index=i, source=f"g{seed}")
        for i in range(n)
    ]
    return build_graph(windows, label, k=k)


def mixed_targets_graph(n=6, d=20, seed=0):
    """Graph with healthy and all three fault classes among its nodes."""
    g = random_graph(n=n, d=d, seed=seed)
    kinds = [None, "eccentricity", "bar_breakage", "bearing"]
    g.node_targets = [
        NodeTargets(
            anomaly=0 if kinds[i % 4] is None else 1,
            severity=0.0 if kinds[i % 4] is None else 0.25 * (i % 4),
            fault_type=kinds[i % 4],
        )
        for i in range(n)
    ]
    return g


def dense_gcn_oracle(h, graph, W):
    """Dense normalized adjacency: D^(-1/2) (A + I) D^(-1/2) H W."""
    n = graph.n_nodes
    A = np.eye(n)
    for i, j, w in graph.edges:
        A[i, j] = A[j, i] = w
    d_inv_sqrt = np.diag(1.0 / np.sqrt(A.sum(axis=1)))
    return d_inv_sqrt @ A @ d_inv_sqrt @ h @ W


class TestGcnLayer:
    def test_isolated_node_identity(self):
        g = SignalGraph(
            nodes=[WindowFeatures(x=np.array([1.0, 2.0]), window_index=0, source="g")],
            edges=[],
            node_targets=[NodeTargets(0, 0.0, None)],
        )
        h = np.array([[3.0, -4.0]])
        out = model.gcn_layer(h, g, np.eye(2), activation="identity")
        assert out == pytest.approx(h)

    def test_two_nodes_hand_evaluated(self):
        # Each node: d = 2, aggregate = 1/2 * h_self + 1/2 * h_other = 1.
        g = random_graph(n=2, d=3, k=0)
        g.edges = [(0, 1, 1.0)]
        h = np.ones((2, 3))
        out = model.gcn_layer(h, g, np.eye(3), activation="identity")
        assert out == pytest.approx(np.ones((2, 3)))

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = make_rng(100)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            g = random_graph(n=n, d=5, seed=trial, k=int(rng.integers(0, 4)))
            h = rng.normal(size=(n, 5))
            W = rng.normal(size=(5, 4))
            sparse = model.gcn_layer(h, g, W, activation="identity")
            dense = dense_gcn_oracle(h, g, W)
            assert np.max(np.abs(sparse - dense)) < 1e-10

    def test_relu_applied(self):
        g = random_graph(n=3, d=2, seed=1, k=0)
        h = -np.ones((3, 2))
        out = model.gcn_layer(h, g, np.eye(2), activation="relu")
        assert np.all(out == 0.0)

    def test_shape_mismatch(self):
        g = random_graph(n=3, d=2, seed=2, k=0)
        with pytest.raises(ShapeMismatch):
            model.gcn_layer(np.ones((2, 2)), g, np.eye(2))
        with pytest.raises(ShapeMismatch):
            model.gcn_layer(np.ones((3, 2)), g, np.eye(3))

    def test_negative_weight_rejected(self):
        g = random_graph(n=3, d=2, seed=3, k=0)
        g.edges = [(0, 1, -0.2), (1, 2, 0.5)]
        with pytest.raises(NegativeWeight):
            model.gcn_layer(np.ones((3, 2)), g, np.eye(2))


class TestForward:
    def test_zero_parameters_give_neutral_outputs(self):
        g = random_graph(seed=4)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        for name in state.params:
            state.params[name] = np.zeros_like(state.params[name])
        diagnosis, _ = model.forward(g, state, config)
        assert diagnosis.node_anomaly == pytest.approx(np.full(6, 0.5))
        assert diagnosis.node_type == pytest.approx(np.full((6, 3), 1 / 3))
        # A uniform softmax over the severity bins scores the mean bin centre.
        assert diagnosis.node_severity == pytest.approx(np.full(6, 0.5))

    def test_eval_mode_deterministic(self):
        g = random_graph(seed=5)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        d1, _ = model.forward(g, state, config, train_mode=False)
        d2, _ = model.forward(g, state, config, train_mode=False)
        assert np.array_equal(d1.node_anomaly, d2.node_anomaly)
        assert np.array_equal(d1.node_type, d2.node_type)

    def test_probability_ranges(self):
        g = random_graph(seed=6)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        diagnosis, _ = model.forward(g, state, config)
        assert np.all((diagnosis.node_anomaly > 0) & (diagnosis.node_anomaly < 1))
        assert diagnosis.node_type.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-9)
        # An expected bin centre lies between the lowest and highest centres.
        low, high = model.SEVERITY_CENTERS[[0, -1]]
        assert np.all((diagnosis.node_severity > low) & (diagnosis.node_severity < high))

    def test_dropout_mask_unbiased(self):
        # Mean of 10^4 inverted-dropout applications of a fixed layer
        # reproduces the undropped activations.
        config = model.ModelConfig()
        h = np.abs(make_rng(7).normal(size=(6, 64))) + 0.1
        acc = np.zeros_like(h)
        draws = 10_000
        for i in range(draws):
            acc += h * model._dropout_mask(h.shape, config.dropout_p, seed=i)
        mean_rel_err = float(np.mean(np.abs(acc / draws - h) / h))
        assert mean_rel_err < 0.03

    def test_no_severity_omits_outputs(self):
        g = random_graph(seed=8)
        config = model.ModelConfig(ablation="no_severity")
        state = model.init_state(20, config)
        diagnosis, _ = model.forward(g, state, config)
        assert diagnosis.node_severity is None
        assert diagnosis.severity_score is None

    def test_permutation_equivariance(self):
        g = mixed_targets_graph(seed=9)
        config = model.ModelConfig(**SMALL)
        state = model.init_state(20, config)
        base, _ = model.forward(g, state, config)

        perm = [3, 5, 0, 1, 4, 2]
        inv = np.argsort(perm)
        permuted = SignalGraph(
            nodes=[g.nodes[p] for p in perm],
            edges=[
                (min(inv[i], inv[j]), max(inv[i], inv[j]), w) for i, j, w in g.edges
            ],
            node_targets=[g.node_targets[p] for p in perm],
        )
        out, _ = model.forward(permuted, state, config)
        assert out.node_anomaly == pytest.approx(base.node_anomaly[perm], abs=1e-10)
        assert out.node_type == pytest.approx(base.node_type[perm], abs=1e-10)

    def test_feature_dim_mismatch_rejected(self):
        g = random_graph(seed=10, d=12)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        with pytest.raises(ShapeMismatch):
            model.forward(g, state, config)


class TestLoss:
    def test_perfect_predictions_near_zero(self):
        g = random_graph(n=4, seed=11, label=ECC)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        for name in state.params:
            state.params[name] = np.zeros_like(state.params[name])
        # Saturate the correct heads through biases alone.
        state.params["b_anom"][:] = 50.0
        state.params["b_type"][:] = [50.0, 0.0, 0.0]
        state.params["b_sev2"][:] = [0.0, 0.0, 0.0, 50.0]  # severity 0.75: the top bin
        total, components, _ = model.loss_and_grads(g, state, config, train_mode=False)
        assert components["anomaly"] < 1e-9
        assert components["type"] < 1e-9
        assert components["severity"] < 1e-12
        assert total < 1e-9

    def test_uniform_type_gives_ln3(self):
        g = random_graph(n=5, seed=12, label=ECC)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        for name in state.params:
            state.params[name] = np.zeros_like(state.params[name])
        _, components, _ = model.loss_and_grads(g, state, config, train_mode=False)
        assert components["type"] == pytest.approx(np.log(3.0), abs=1e-12)

    def test_healthy_graph_has_no_type_term(self):
        g = random_graph(n=4, seed=13, label=HEALTHY)
        config = model.ModelConfig()
        state = model.init_state(20, config)
        _, components, _ = model.loss_and_grads(g, state, config, train_mode=False)
        assert components["type"] == 0.0

    # The ids keep the names these cases had while the severity head had
    # options, "<frozen>-<bins>-<ablation>": 4 bins is the one head left.
    @pytest.mark.parametrize("ablation", model.ABLATIONS)
    @pytest.mark.parametrize("frozen", [False, True], ids=["False-4", "True-4"])
    def test_loss_value_is_exactly_loss_and_grads_total(self, ablation, frozen):
        # The forward-only loss must be the very function whose gradients
        # loss_and_grads returns, so compare with ==, not a tolerance.
        config = model.ModelConfig(ablation=ablation, **SMALL)
        d = 12 if ablation == "no_freq_features" else 20
        g = mixed_targets_graph(n=6, d=d, seed=14)
        state = model.init_state(d, config)
        _, cache = model.forward(g, state, config, train_mode=True, dropout_seed=3)
        reweighted = model.reweight_edges(g.edges, cache["H1"], 0.4)
        frozen = cache["H2"] + 0.1 if frozen else None
        for edges in (None, reweighted):
            kwargs = dict(
                train_mode=True, dropout_seed=3, edges=edges, frozen_severity_input=frozen
            )
            total, _, _ = model.loss_and_grads(g, state, config, **kwargs)
            assert model.loss_value(g, state, config, **kwargs) == total


def gradcheck(config, graph_seed=21, h=1e-6, tol=1e-4):
    """Norm-relative agreement between analytic and central-difference grads."""
    d = 12 if config.ablation == "no_freq_features" else 20
    graph = mixed_targets_graph(n=6, d=d, seed=graph_seed)
    state = model.init_state(d, config)
    mask = model._dropout_mask((6, config.gcn1_dim), config.dropout_p, seed=graph_seed + 1)

    frozen = None
    if config.ablation != "no_severity":
        # The severity branch reads the trunk through a stop-gradient, so
        # differentiate the loss with that input frozen at its unperturbed
        # value. That is the function the analytic gradients are gradients of.
        _, cache = model.forward(graph, state, config, train_mode=True, dropout_mask=mask)
        frozen = cache["H2"]

    _, _, grads = model.loss_and_grads(
        graph, state, config, train_mode=True, dropout_mask=mask, frozen_severity_input=frozen
    )

    worst = {}
    for name, value in state.params.items():
        def objective(tensor, _name=name):
            trial = dict(state.params)
            trial[_name] = tensor
            trial_state = model.ModelState(params=trial, feature_dim=d)
            return model.loss_value(
                graph,
                trial_state,
                config,
                train_mode=True,
                dropout_mask=mask,
                frozen_severity_input=frozen,
            )

        fd = finite_diff_grad(objective, value.copy(), h=h)
        a_norm = float(np.linalg.norm(grads[name]))
        fd_norm = float(np.linalg.norm(fd))
        if a_norm == 0.0:
            # The loss must genuinely not depend on this tensor.
            assert fd_norm < 1e-7, f"{name}: analytic zero but FD {fd_norm}"
            worst[name] = 0.0
            continue
        rel = float(np.linalg.norm(fd - grads[name])) / (a_norm + fd_norm)
        worst[name] = rel
        assert rel < tol, f"{name}: relative error {rel}"
    return worst


class TestGradients:
    def test_full_model_detached_severity(self):
        # The stop-gradient: other severity targets change the severity
        # head's gradients and not one bit of any other tensor's.
        config = model.ModelConfig(**SMALL)
        g = mixed_targets_graph(seed=21)
        state = model.init_state(20, config)
        mask = model._dropout_mask((6, config.gcn1_dim), config.dropout_p, seed=22)
        _, _, grads = model.loss_and_grads(g, state, config, dropout_mask=mask)
        g.node_targets = [
            NodeTargets(t.anomaly, 1.0 - t.severity if t.anomaly else 0.0, t.fault_type)
            for t in g.node_targets
        ]
        _, _, moved = model.loss_and_grads(g, state, config, dropout_mask=mask)
        for name in grads:
            if name.endswith(("_sev1", "_sev2")):
                assert not np.array_equal(moved[name], grads[name]), name
            else:
                assert np.array_equal(moved[name], grads[name]), name

    def test_binned_severity_head(self):
        # A nonzero error means the head's gradient was live and compared,
        # not skipped as an analytic zero.
        worst = gradcheck(model.ModelConfig(**SMALL))
        assert worst["W_sev2"] > 0.0 and worst["b_sev2"] > 0.0

    def test_no_reweight_variant(self):
        gradcheck(model.ModelConfig(ablation="no_reweight", **SMALL))

    def test_no_severity_variant(self):
        gradcheck(model.ModelConfig(ablation="no_severity", **SMALL))

    def test_no_freq_features_variant(self):
        gradcheck(model.ModelConfig(ablation="no_freq_features", **SMALL))

    def test_without_dropout(self):
        gradcheck(model.ModelConfig(dropout_p=0.0, **SMALL))


class TestReweighting:
    def test_beta_zero_bit_identical(self):
        h1 = make_rng(14).normal(size=(4, 8)) + 1.0
        edges = [(0, 1, 0.3), (1, 2, 0.9), (0, 3, 0.5)]
        assert model.reweight_edges(edges, h1, 0.0) == edges

    def test_beta_one_equals_similarity(self):
        h1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        edges = [(0, 1, 0.2), (1, 2, 0.7)]
        out = model.reweight_edges(edges, h1, 1.0)
        assert out[0][2] == pytest.approx(0.5)  # orthogonal -> (1+0)/2
        assert out[1][2] == pytest.approx((1 + 1 / np.sqrt(2)) / 2)

    def test_hand_blend(self):
        # cosine 0.6 between (1,0) and (0.6,0.8) makes f = 0.8; the blend
        # 0.5*0.4 + 0.5*0.8 = 0.6 up to one ulp (0.4 and 0.8 are not
        # binary-representable, so bit-exact 0.6 is unattainable).
        h1 = np.array([[1.0, 0.0], [0.6, 0.8]])
        out = model.reweight_edges([(0, 1, 0.4)], h1, 0.5)
        assert out[0][2] == pytest.approx(0.6, abs=1e-15)

    def test_clamped_to_unit_interval(self):
        h1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = model.reweight_edges([(0, 1, 1.0)], h1, 0.5)
        assert 0.0 <= out[0][2] <= 1.0

    def test_zero_hidden_vector_neutral(self):
        h1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        out = model.reweight_edges([(0, 1, 0.4)], h1, 1.0)
        assert out[0][2] == pytest.approx(0.5)

    def test_invalid_beta(self):
        with pytest.raises(InvalidConfigValue):
            model.reweight_edges([(0, 1, 0.4)], np.ones((2, 2)), 1.5)


def tiny_dataset(n_graphs=8, d=20, seed=30):
    labels = [
        HEALTHY,
        ECC,
        FaultSpec(kind="broken_bars", bar_count=2, severity=2 / 3),
        FaultSpec(kind="bearing", site="outer", severity=1.0),
    ]
    return [
        random_graph(n=5, d=d, seed=seed + i, label=labels[i % 4]) for i in range(n_graphs)
    ]


class TestTrain:
    def test_zero_epochs_returns_initial_state(self):
        config = model.ModelConfig(epochs=0, **SMALL)
        dataset = tiny_dataset()
        state, log = model.train(dataset, config)
        fresh = model.init_state(20, config)
        assert log == []
        for name in fresh.params:
            assert np.array_equal(state.params[name], fresh.params[name])

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            model.train([], model.ModelConfig())

    def test_determinism_bit_identical(self):
        config = model.ModelConfig(epochs=3, batch_size=3, seed=5, **SMALL)
        dataset = tiny_dataset()
        s1, log1 = model.train(dataset, config)
        s2, log2 = model.train(dataset, config)
        assert log1 == log2
        for name in s1.params:
            assert np.array_equal(s1.params[name], s2.params[name])

    def test_overfits_single_graph(self):
        config = model.ModelConfig(epochs=200, batch_size=1, dropout_p=0.0, seed=2, **SMALL)
        dataset = [random_graph(n=5, seed=31, label=ECC)]
        state, log = model.train(dataset, config)
        assert log[-1]["train_loss"] < 0.1 * log[0]["train_loss"]

    def test_loss_trends_downward(self):
        config = model.ModelConfig(epochs=30, batch_size=4, seed=3, **SMALL)
        state, log = model.train(tiny_dataset(12), config)
        losses = [entry["train_loss"] for entry in log]
        # Window means, not per-step deltas: dropout makes single epochs noisy.
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_does_not_mutate_input_graphs(self):
        config = model.ModelConfig(epochs=2, seed=4, **SMALL)
        dataset = tiny_dataset(4)
        before = [list(g.edges) for g in dataset]
        model.train(dataset, config)
        assert [g.edges for g in dataset] == before

    def test_reweighting_moves_edge_weights(self):
        dataset = tiny_dataset(4)
        config = model.ModelConfig(epochs=2, seed=6, **SMALL)
        state, _ = model.train(dataset, config)
        flat_before = [w for g in dataset for _, _, w in g.edges]
        flat_after = [w for ws in state.edge_weights.values() for w in ws]
        assert flat_before != flat_after
        assert all(0.0 <= w <= 1.0 for w in flat_after)

    def test_no_reweight_keeps_weights(self):
        dataset = tiny_dataset(4)
        config = model.ModelConfig(epochs=2, seed=6, ablation="no_reweight", **SMALL)
        state, _ = model.train(dataset, config)
        flat_before = [w for g in dataset for _, _, w in g.edges]
        flat_after = [w for ws in state.edge_weights.values() for w in ws]
        assert flat_before == flat_after

    def test_no_severity_identical_anomaly_and_type(self):
        dataset = tiny_dataset(8)
        full_cfg = model.ModelConfig(epochs=4, batch_size=3, seed=7, **SMALL)
        abl_cfg = model.ModelConfig(epochs=4, batch_size=3, seed=7, ablation="no_severity", **SMALL)
        full_state, _ = model.train(dataset, full_cfg)
        abl_state, _ = model.train(dataset, abl_cfg)
        for g in dataset:
            d_full, _ = model.forward(g, full_state, full_cfg)
            d_abl, _ = model.forward(g, abl_state, abl_cfg)
            assert np.array_equal(d_full.node_anomaly, d_abl.node_anomaly)
            assert np.array_equal(d_full.node_type, d_abl.node_type)

    def test_freq_features_guard(self):
        dataset = tiny_dataset(4)
        for g in dataset:
            g.feature_names = [f"ch_{k}" for k in ("peak", "rms", "variance", "f_dom", "h_spec")] * 4
        config = model.ModelConfig(ablation="no_freq_features", **SMALL)
        with pytest.raises(FeatureDimMismatch):
            model.train(dataset, config)

    def test_mixed_dims_rejected(self):
        dataset = tiny_dataset(2, d=20) + tiny_dataset(2, d=12)
        with pytest.raises(FeatureDimMismatch):
            model.train(dataset, model.ModelConfig(**SMALL))


def mixed_size_dataset(d=20, seed=50):
    """Graphs of 2 to 9 nodes with every label and mixed per-node targets."""
    sizes = [5, 2, 9, 3, 7, 4, 6, 8]
    graphs = [mixed_targets_graph(n=n, d=d, seed=seed + k) for k, n in enumerate(sizes[:4])]
    labels = [HEALTHY, ECC, FaultSpec(kind="bearing", site="inner", severity=0.5), HEALTHY]
    graphs += [
        random_graph(n=n, d=d, seed=seed + 10 + k, label=label, k=k % 3)
        for k, (n, label) in enumerate(zip(sizes[4:], labels))
    ]
    return graphs


def assert_close(actual, expected, rel=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


class TestBatchedEngine:
    """One block-diagonal pass over a minibatch equals the per-graph calls."""

    # The ids keep the names these cases had while the severity head had
    # options, "<frozen>-<trunk-coupled>-<bins>-<ablation>".
    @pytest.mark.parametrize("ablation", model.ABLATIONS)
    @pytest.mark.parametrize("frozen", [False, True], ids=["False-False-4", "True-False-4"])
    def test_batch_equals_sum_of_graphs(self, ablation, frozen):
        config = model.ModelConfig(ablation=ablation, **SMALL)
        d = 12 if ablation == "no_freq_features" else 20
        graphs = mixed_size_dataset(d=d)
        state = model.init_state(d, config)
        rng = make_rng(60)
        # Move the biases off zero so every head is live.
        for name in state.params:
            state.params[name] += 0.05 * rng.normal(size=state.params[name].shape)
        masks = [
            model._dropout_mask((g.n_nodes, config.gcn1_dim), 0.5, seed=k)
            for k, g in enumerate(graphs)
        ]
        severity = [
            np.abs(rng.normal(size=(g.n_nodes, config.gcn2_dim))) if frozen else None
            for g in graphs
        ]

        totals, grads = [], []
        for g, mask, sev_in in zip(graphs, masks, severity):
            total, _, grad = model.loss_and_grads(
                g, state, config, dropout_mask=mask, frozen_severity_input=sev_in
            )
            totals.append(total)
            grads.append(grad)

        block = model._block(
            [g.feature_matrix() for g in graphs], [model._edge_arrays(g.edges) for g in graphs]
        )
        cache = model._forward_cache(
            block, state.params, config, np.concatenate(masks),
            np.concatenate(severity) if frozen else None,
        )
        targets = model._block_targets([model._targets(g) for g in graphs], block)
        batch_totals, _ = model._loss_terms(cache, targets, block, config)
        batch_grads = model._backward(cache, targets, state.params, config)

        assert_close(batch_totals, totals)
        for name in state.params:
            assert_close(batch_grads[name], sum(grad[name] for grad in grads))

    def test_negative_weight_raised_from_minibatch(self):
        dataset = mixed_size_dataset()
        i, j, _ = dataset[5].edges[0]
        dataset[5].edges[0] = (i, j, -0.1)
        with pytest.raises(NegativeWeight):
            model.train(dataset, model.ModelConfig(epochs=1, batch_size=4, **SMALL))

    def test_vectorized_reweighting_neutral_and_clamped(self):
        h1 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        rows = np.array([0, 1, 1, 3, 1])
        cols = np.array([1, 2, 2, 4, 4])
        weights = np.array([0.2, 1.5, 0.4, 0.9, -0.5])
        out = model._reweighted(rows, cols, weights, h1, 1.0)
        assert out[0] == 0.5 and out[3] == 0.5  # an all-zero row: neutral f
        assert out[1] == 1.0 and out[4] == 0.0  # cosines 1 and -1
        out = model._reweighted(rows, cols, weights, h1, 0.1)
        assert out[1] == 1.0 and out[4] == 0.0  # blends of 1.5 and -0.5 clamped
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_vectorized_reweighting_matches_per_graph(self):
        graphs = mixed_size_dataset()
        rng = make_rng(61)
        block = model._block(
            [g.feature_matrix() for g in graphs], [model._edge_arrays(g.edges) for g in graphs]
        )
        h1 = np.maximum(rng.normal(size=(len(block.X), 8)), 0.0)
        h1[3] = 0.0
        together = model._reweighted(block.rows, block.cols, block.weights, h1, 0.3)
        offset, expected = 0, []
        for g in graphs:
            local = model.reweight_edges(g.edges, h1[offset : offset + g.n_nodes], 0.3)
            expected += [w for _, _, w in local]
            offset += g.n_nodes
        assert together.tolist() == expected


def reference_train(dataset, config, val_dataset=None):
    """Per-graph SGD: one loss_and_grads call per graph, reweight_edges per graph."""
    state = model.init_state(dataset[0].nodes[0].x.shape[0], config)
    edge_lists = [list(g.edges) for g in dataset]
    log = []
    for epoch in range(config.epochs):
        order = make_rng(derive_seed(config.seed, "shuffle", str(epoch))).permutation(len(dataset))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_sum = {name: np.zeros_like(p) for name, p in state.params.items()}
            for idx in batch:
                total, _, grads = model.loss_and_grads(
                    dataset[idx], state, config,
                    dropout_seed=derive_seed(config.seed, "dropout", str(epoch), str(idx)),
                    edges=edge_lists[idx],
                )
                losses.append(total)
                for name in grad_sum:
                    grad_sum[name] += grads[name]
            scale = model.effective_learning_rate(config, epoch) / len(batch)
            for name in state.params:
                state.params[name] -= scale * grad_sum[name]
        if config.ablation != "no_reweight" and config.beta > 0.0:
            for idx, g in enumerate(dataset):
                _, cache = model.forward(g, state, config, edges=edge_lists[idx])
                edge_lists[idx] = model.reweight_edges(edge_lists[idx], cache["H1"], config.beta)
        entry = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if val_dataset:
            hits = [
                model.forward(g, state, config)[0].is_anomalous == bool(g.node_targets[0].anomaly)
                for g in val_dataset
            ]
            entry["val_accuracy"] = sum(hits) / len(val_dataset)
        log.append(entry)
    return state, log, edge_lists


class TestTrainMatchesReference:
    @pytest.mark.parametrize("ablation", ["full", "no_reweight", "no_severity"])
    @pytest.mark.parametrize("dataset", ["tiny", "mixed"])
    def test_three_epochs(self, ablation, dataset):
        graphs = tiny_dataset(8) if dataset == "tiny" else mixed_size_dataset()
        config = model.ModelConfig(epochs=3, batch_size=3, seed=11, ablation=ablation, **SMALL)
        state, log = model.train(graphs, config, val_dataset=graphs[:5])
        ref_state, ref_log, ref_edges = reference_train(graphs, config, val_dataset=graphs[:5])
        for name in state.params:
            assert_close(state.params[name], ref_state.params[name])
        for entry, ref in zip(log, ref_log, strict=True):
            assert entry["train_loss"] == pytest.approx(ref["train_loss"], rel=1e-12)
            assert entry["val_accuracy"] == ref["val_accuracy"]
        weights = [w for ws in state.edge_weights.values() for w in ws]
        assert_close(weights, [w for edges in ref_edges for _, _, w in edges])


class TestCheckpoint:
    @staticmethod
    def featurization(dataset):
        """The pipeline and a standardizer fitted on ``dataset``, as a checkpoint needs them."""
        return model.PipelineSettings(), Standardizer.fit([n.x for g in dataset for n in g.nodes])

    def test_round_trip_bit_identical(self, tmp_path):
        config = model.ModelConfig(epochs=2, seed=8, **SMALL)
        dataset = tiny_dataset(4)
        state, _ = model.train(dataset, config)
        pipeline, standardizer = self.featurization(dataset)
        path = tmp_path / "model.json"
        model.save_checkpoint(path, state, config, pipeline, standardizer)
        loaded_state, loaded_config, loaded_pipeline, loaded_std = model.load_checkpoint(path)
        assert loaded_config == config
        assert loaded_pipeline == pipeline
        assert loaded_state.epoch == state.epoch
        assert np.array_equal(loaded_std.mean, standardizer.mean)
        assert np.array_equal(loaded_std.std, standardizer.std)
        for name in state.params:
            assert np.array_equal(loaded_state.params[name], state.params[name])

    def test_save_twice_identical_bytes(self, tmp_path):
        config = model.ModelConfig(**SMALL)
        state = model.init_state(20, config)
        featurization = self.featurization(tiny_dataset(4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save_checkpoint(p1, state, config, *featurization)
        model.save_checkpoint(p2, state, config, *featurization)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_state_behaves_identically(self, tmp_path):
        config = model.ModelConfig(epochs=2, seed=9, **SMALL)
        dataset = tiny_dataset(4)
        state, _ = model.train(dataset, config)
        path = tmp_path / "model.json"
        model.save_checkpoint(path, state, config, *self.featurization(dataset))
        loaded, _, _, _ = model.load_checkpoint(path)
        g = dataset[0]
        d1, _ = model.forward(g, state, config)
        d2, _ = model.forward(g, loaded, config)
        assert np.array_equal(d1.node_anomaly, d2.node_anomaly)
        assert np.array_equal(d1.node_type, d2.node_type)
