"""The GNN-ASE network with hand-written analytic gradients.

Architecture: linear embedding -> graph convolution (ReLU) -> dropout ->
graph convolution (ReLU) -> three heads (anomaly sigmoid, severity MLP
with a softmax over SEVERITY_BINS bins, type softmax). Aggregation
multiplies by the dense normalized adjacency D^-1/2 (A + I) D^-1/2: each
edge weight is divided by the square root of both endpoints' weighted
degrees, with a weight-1 self-loop added per node.

One kernel serves every caller. A minibatch of graphs is one
block-diagonal graph: node features are stacked, one adjacency is built
over all of the batch's nodes (zero between graphs), and one forward and
one backward pass cover the batch. Node-level losses are weighted 1/n_g
and the type loss type_mask/n_anom_g, so the batch loss and gradient are
exactly the sums of the per-graph ones. Memory is O(N^2) in the N nodes
of one batch, never in the dataset. The single-graph functions (forward,
loss_and_grads, loss_value, gcn_layer, reweight_edges) run the same
kernel on a one-graph block.

Training is plain seeded SGD on a multi-task loss: binary cross-entropy
for anomaly, cross-entropy over severity bins, cross-entropy over fault
classes masked to anomalous nodes. After each epoch the edge weights of
every training graph are blended toward the cosine similarity of the
first convolution's hidden vectors (dynamic edge reweighting), computed
over all edges of a batch_size block of graphs at once; weights are
constants as far as the gradients are concerned.

The severity head classifies each node into one of SEVERITY_BINS equal
bins of [0, 1] and scores it as the expected bin centre. It reads the
trunk output but its loss gradient stops there: the trunk is trained by
the detection losses alone, so removing the severity head (the
no_severity ablation) cannot change anomaly or type behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import codec
from .errors import (
    EmptyDataset,
    FeatureDimMismatch,
    InvalidConfigValue,
    NegativeWeight,
    RecordingTooShort,
    ShapeMismatch,
)
from .features import Standardizer, WindowFeatures, WindowSpec, extract_windows, feature_names
from .graphs import TYPE_CLASSES, SignalGraph, build_graph, row_cosines, similarity_weight
from .numerics import derive_seed, make_rng
from .preprocess import FilterSpec, filter_recording
from .simulate import Recording

ABLATIONS = ("full", "no_reweight", "no_severity", "no_freq_features")

# Names of the frequency-domain feature columns; the no_freq_features
# variant must not see them.
FREQ_NAME_MARKERS = ("f_dom", "h_spec")

CHECKPOINT_FORMAT = "gnnase-checkpoint-v3"
CHECKPOINT_KEYS = ("config", "params", "feature_dim", "epoch", "pipeline", "standardizer")

# The severity head is a softmax over equal bins of [0, 1]; a node's
# severity score is its expected bin centre. Severity 1.0 falls in the top bin.
SEVERITY_BINS = 4
SEVERITY_CENTERS = (np.arange(SEVERITY_BINS) + 0.5) / SEVERITY_BINS


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; defaults follow the reference architecture."""

    embed_dim: int = 128
    gcn1_dim: int = 64
    gcn2_dim: int = 64
    severity_dim: int = 32
    learning_rate: float = 0.01
    # "cosine" anneals the step size from learning_rate to ~0 across the run;
    # "constant" keeps it fixed. Annealing settles the heads, which otherwise
    # wander under late-epoch SGD noise.
    lr_schedule: str = "cosine"
    dropout_p: float = 0.5
    beta: float = 0.3
    epochs: int = 400
    batch_size: int = 10
    lambda_anomaly: float = 1.0
    lambda_severity: float = 1.0
    lambda_type: float = 1.0
    ablation: str = "full"
    seed: int = 0

    def __post_init__(self):
        if min(self.embed_dim, self.gcn1_dim, self.gcn2_dim, self.severity_dim) < 1:
            raise InvalidConfigValue(
                "embed_dim, gcn1_dim, gcn2_dim and severity_dim must be >= 1, got "
                f"{self.embed_dim}, {self.gcn1_dim}, {self.gcn2_dim}, {self.severity_dim}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidConfigValue(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidConfigValue(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.ablation not in ABLATIONS:
            raise InvalidConfigValue(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.learning_rate <= 0:
            raise InvalidConfigValue(f"learning_rate must be positive, got {self.learning_rate}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise InvalidConfigValue(
                f"lr_schedule must be 'constant' or 'cosine', got {self.lr_schedule!r}"
            )
        if min(self.lambda_anomaly, self.lambda_severity, self.lambda_type) < 0:
            raise InvalidConfigValue("loss weights must be nonnegative")
        if self.epochs < 0 or self.batch_size < 1:
            raise InvalidConfigValue(
                f"epochs must be >= 0 and batch_size >= 1, got {self.epochs}, {self.batch_size}"
            )


@dataclass
class ModelState:
    """Learned parameters plus training-time bookkeeping."""

    params: dict[str, np.ndarray]
    feature_dim: int
    epoch: int = 0
    # Final per-graph edge weights after reweighting, keyed by graph id;
    # informational only, inference always starts from fresh weights.
    edge_weights: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class Diagnosis:
    """Per-node outputs plus mean-pooled graph-level decisions."""

    node_anomaly: np.ndarray
    node_severity: np.ndarray | None
    node_type: np.ndarray
    anomaly_probability: float
    is_anomalous: bool
    severity_score: float | None
    type_distribution: np.ndarray
    predicted_type: str


@dataclass(frozen=True)
class PipelineSettings:
    """Featurization settings a trained model depends on."""

    window: WindowSpec = WindowSpec()
    filter: FilterSpec | None = FilterSpec()
    neighbors: int = 4
    include_frequency: bool = True


def _param_specs(feature_dim: int, config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter tensors in a fixed order (order fixes the init streams)."""
    return [
        ("W_embed", (feature_dim, config.embed_dim)),
        ("b_embed", (config.embed_dim,)),
        ("W_gcn1", (config.embed_dim, config.gcn1_dim)),
        ("b_gcn1", (config.gcn1_dim,)),
        ("W_gcn2", (config.gcn1_dim, config.gcn2_dim)),
        ("b_gcn2", (config.gcn2_dim,)),
        ("W_anom", (config.gcn2_dim, 1)),
        ("b_anom", (1,)),
        ("W_sev1", (config.gcn2_dim, config.severity_dim)),
        ("b_sev1", (config.severity_dim,)),
        ("W_sev2", (config.severity_dim, SEVERITY_BINS)),
        ("b_sev2", (SEVERITY_BINS,)),
        ("W_type", (config.gcn2_dim, len(TYPE_CLASSES))),
        ("b_type", (len(TYPE_CLASSES),)),
    ]


def init_state(feature_dim: int, config: ModelConfig) -> ModelState:
    """Glorot-uniform weights, zero biases.

    Every tensor draws from its own seed stream derived from the config
    seed and the tensor name, so adding or skipping one tensor can never
    shift the values of another.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_specs(feature_dim, config):
        if name.startswith("b_"):
            params[name] = np.zeros(shape)
            continue
        fan_in, fan_out = shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        rng = make_rng(derive_seed(config.seed, "init", name))
        params[name] = rng.uniform(-bound, bound, size=shape)
    return ModelState(params=params, feature_dim=feature_dim)


@dataclass(frozen=True)
class _Block:
    """Several graphs as one block-diagonal graph over their stacked nodes."""

    X: np.ndarray  # (N, feature_dim) node features, graph after graph
    adj: np.ndarray  # (N, N) normalized adjacency, zero between graphs
    graph_id: np.ndarray  # (N,) position of each node's graph in the block
    sizes: np.ndarray  # (G,) node count per graph
    rows: np.ndarray  # (E,) block-wide endpoints of every stored edge
    cols: np.ndarray
    weights: np.ndarray  # (E,) edge weights in the same order


def _edge_arrays(edges: list[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint and weight arrays of a list of (i, j, weight) triples."""
    if not edges:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    i, j, w = zip(*edges)
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(w, dtype=float)


def _block(
    features: list[np.ndarray], edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> _Block:
    """Stack graphs and build their normalized adjacency D^-1/2 (A + I) D^-1/2.

    Each graph contributes both directions of every edge and a weight-1
    self-loop per node; weighted degrees count the self-loop. Memory is
    O(N^2) in the block's node count N, never in the dataset's.

    Raises:
        NegativeWeight: If any edge weight is negative.
    """
    sizes = np.array([len(x) for x in features])
    n = int(sizes.sum())
    src, dst, w = (np.concatenate(parts) for parts in zip(*edges))
    negative = np.flatnonzero(w < 0)
    if negative.size:
        k = negative[0]
        raise NegativeWeight(f"edge ({src[k]}, {dst[k]}) has negative weight {w[k]}")
    offsets = np.cumsum(sizes) - sizes
    shift = np.repeat(offsets, [len(e[2]) for e in edges])
    rows, cols = src + shift, dst + shift
    inv_sqrt = 1.0 / np.sqrt(1.0 + np.bincount(rows, w, n) + np.bincount(cols, w, n))
    adj = np.zeros((n, n))
    adj[rows, cols] = adj[cols, rows] = w * inv_sqrt[rows] * inv_sqrt[cols]
    adj[np.arange(n), np.arange(n)] = inv_sqrt * inv_sqrt
    return _Block(
        X=np.concatenate(features),
        adj=adj,
        graph_id=np.repeat(np.arange(len(sizes)), sizes),
        sizes=sizes,
        rows=rows,
        cols=cols,
        weights=w,
    )


def gcn_layer(h: np.ndarray, graph: SignalGraph, W: np.ndarray, activation: str = "relu") -> np.ndarray:
    """One graph convolution: normalized aggregation, linear map, activation.

    Args:
        h: Node features, shape (n_nodes, in_dim).
        graph: Supplies the weighted edges; self-loops are added here.
        W: Weight matrix, shape (in_dim, out_dim).
        activation: "relu" or "identity".

    Raises:
        ShapeMismatch: If h does not match the graph or W.
        NegativeWeight: If any edge weight is negative.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != graph.n_nodes:
        raise ShapeMismatch(f"h has shape {h.shape}, expected ({graph.n_nodes}, in_dim)")
    if W.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"W rows {W.shape[0]} do not match feature dim {h.shape[1]}")
    if activation not in ("relu", "identity"):
        raise InvalidConfigValue(f"unknown activation {activation!r}")
    out = (_block([h], [_edge_arrays(graph.edges)]).adj @ h) @ W
    return np.maximum(out, 0.0) if activation == "relu" else out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def _dropout_mask(shape, p: float, seed: int) -> np.ndarray:
    """Inverted dropout: entries are 0 or 1/(1-p), unbiased in expectation."""
    rng = make_rng(seed)
    return (rng.random(size=shape) >= p) / (1.0 - p)


def _gcn1(X: np.ndarray, adj: np.ndarray, params: dict) -> tuple[np.ndarray, ...]:
    """Embedding and first convolution: (E, A1, Z1, H1)."""
    E = X @ params["W_embed"] + params["b_embed"]
    A1 = adj @ E
    Z1 = A1 @ params["W_gcn1"] + params["b_gcn1"]
    return E, A1, Z1, np.maximum(Z1, 0.0)


def _forward_cache(
    block: _Block,
    params: dict,
    config: ModelConfig,
    mask: np.ndarray | None,
    severity_input: np.ndarray | None,
) -> dict:
    """Forward activations over a block; ``mask`` None means no dropout."""
    X = block.X
    if X.shape[1] != params["W_embed"].shape[0]:
        raise ShapeMismatch(
            f"feature dim {X.shape[1]} does not match W_embed rows {params['W_embed'].shape[0]}"
        )
    cache: dict = {"X": X, "adj": block.adj}
    cache["E"], cache["A1"], cache["Z1"], cache["H1"] = _gcn1(X, block.adj, params)
    cache["mask"] = np.ones_like(cache["H1"]) if mask is None else mask
    cache["D1"] = cache["H1"] * cache["mask"]
    cache["A2"] = block.adj @ cache["D1"]
    cache["Z2"] = cache["A2"] @ params["W_gcn2"] + params["b_gcn2"]
    cache["H2"] = np.maximum(cache["Z2"], 0.0)

    cache["za"] = cache["H2"] @ params["W_anom"] + params["b_anom"]
    cache["prob"] = expit(cache["za"])
    cache["zt"] = cache["H2"] @ params["W_type"] + params["b_type"]
    cache["type_probs"] = _softmax(cache["zt"])

    if config.ablation != "no_severity":
        sev_in = cache["H2"] if severity_input is None else severity_input
        cache["sev_in"] = sev_in
        cache["zs1"] = sev_in @ params["W_sev1"] + params["b_sev1"]
        cache["S1"] = np.maximum(cache["zs1"], 0.0)
        cache["zs2"] = cache["S1"] @ params["W_sev2"] + params["b_sev2"]
        cache["sev_probs"] = _softmax(cache["zs2"])
        cache["sev"] = cache["sev_probs"] @ SEVERITY_CENTERS[:, None]
    return cache


def _graph_pass(
    graph: SignalGraph,
    state: ModelState,
    config: ModelConfig,
    train_mode: bool,
    dropout_mask: np.ndarray | None,
    dropout_seed: int,
    edges: list[tuple[int, int, float]] | None,
    severity_input: np.ndarray | None,
) -> tuple[_Block, dict]:
    """Forward pass over one graph as a one-graph block: (block, cache).

    The graph's stored edges are used unless ``edges`` overrides them.
    """
    mask = None
    if train_mode and config.dropout_p > 0.0:
        mask = dropout_mask if dropout_mask is not None else _dropout_mask(
            (graph.n_nodes, config.gcn1_dim), config.dropout_p, dropout_seed
        )
    edge_arrays = _edge_arrays(graph.edges if edges is None else edges)
    block = _block([graph.feature_matrix()], [edge_arrays])
    return block, _forward_cache(block, state.params, config, mask, severity_input)


def _diagnosis_from_cache(cache: dict, config: ModelConfig) -> Diagnosis:
    prob = cache["prob"][:, 0]
    type_probs = cache["type_probs"]
    mean_type = np.mean(type_probs, axis=0)
    node_sev = cache["sev"][:, 0] if config.ablation != "no_severity" else None
    return Diagnosis(
        node_anomaly=prob,
        node_severity=node_sev,
        node_type=type_probs,
        anomaly_probability=float(np.mean(prob)),
        is_anomalous=bool(np.mean(prob) > 0.5),
        severity_score=float(np.mean(node_sev)) if node_sev is not None else None,
        type_distribution=mean_type,
        predicted_type=TYPE_CLASSES[int(np.argmax(mean_type))],
    )


def forward(
    graph: SignalGraph,
    state: ModelState,
    config: ModelConfig,
    train_mode: bool = False,
    dropout_mask: np.ndarray | None = None,
    dropout_seed: int = 0,
    edges: list[tuple[int, int, float]] | None = None,
) -> tuple[Diagnosis, dict]:
    """Run the network over one graph.

    Args:
        graph: Input graph; its stored edges are used unless ``edges``
            overrides them.
        train_mode: Enables dropout; draw is deterministic in dropout_seed.
        dropout_mask: Optional precomputed mask (gradient checks freeze it).

    Returns:
        (Diagnosis, cache of intermediate activations for the backward pass).
    """
    _, cache = _graph_pass(
        graph, state, config, train_mode, dropout_mask, dropout_seed, edges, None
    )
    return _diagnosis_from_cache(cache, config), cache


def _targets(graph: SignalGraph) -> dict:
    """Per-node label arrays of one graph."""
    n = graph.n_nodes
    onehot = np.zeros((n, len(TYPE_CLASSES)))
    for i, t in enumerate(graph.node_targets):
        if t.fault_type is not None:
            onehot[i, TYPE_CLASSES.index(t.fault_type)] = 1.0
    severity = np.array([t.severity for t in graph.node_targets])
    bins = np.clip((severity * SEVERITY_BINS).astype(int), 0, SEVERITY_BINS - 1)
    sev_onehot = np.zeros((n, SEVERITY_BINS))
    sev_onehot[np.arange(n), bins] = 1.0
    return {
        "y_anom": np.array([[float(t.anomaly)] for t in graph.node_targets]),
        "type_mask": np.array([float(t.anomaly) for t in graph.node_targets]),
        "onehot": onehot,
        "sev_onehot": sev_onehot,
    }


def _block_targets(per_graph: list[dict], block: _Block) -> dict:
    """Stack per-graph targets and add the per-graph loss normalizers.

    ``node_n`` and ``node_anom`` give each node its graph's node count and
    anomalous-node count, so node-level losses are weighted 1/n_g and the
    type loss type_mask/n_anom_g: the block's loss and gradient are then
    exactly the sums of the per-graph ones.
    """
    targets = {key: np.concatenate([t[key] for t in per_graph]) for key in per_graph[0]}
    n_anom = np.bincount(block.graph_id, targets["type_mask"], len(block.sizes))
    targets["n_anom"] = n_anom
    targets["node_n"] = block.sizes[block.graph_id][:, None].astype(float)
    targets["node_anom"] = np.maximum(n_anom, 1.0)[block.graph_id][:, None]
    return targets


def _loss_terms(
    cache: dict, targets: dict, block: _Block, config: ModelConfig
) -> tuple[np.ndarray, dict]:
    """Score a forward cache per graph: (total losses, per-component arrays)."""

    def per_graph_mean(values: np.ndarray) -> np.ndarray:
        return np.bincount(block.graph_id, values, len(block.sizes)) / block.sizes

    # Binary cross-entropy through softplus keeps large logits stable.
    za = cache["za"][:, 0]
    bce = per_graph_mean(np.logaddexp(0.0, za) - targets["y_anom"][:, 0] * za)

    logp = np.log(np.maximum(cache["type_probs"], 1e-300))
    node_ce = -np.sum(targets["onehot"] * logp, axis=1) * targets["type_mask"]
    n_anom = targets["n_anom"]
    ce = np.bincount(block.graph_id, node_ce, len(block.sizes)) / np.maximum(n_anom, 1.0)
    ce = np.where(n_anom > 0, ce, 0.0)

    if config.ablation == "no_severity":
        sev = np.zeros(len(block.sizes))
    else:
        logp = np.log(np.maximum(cache["sev_probs"], 1e-300))
        sev = per_graph_mean(-np.sum(targets["sev_onehot"] * logp, axis=1))

    total = config.lambda_anomaly * bce + config.lambda_type * ce + config.lambda_severity * sev
    return total, {"anomaly": bce, "type": ce, "severity": sev}


def _backward(cache: dict, targets: dict, params: dict, config: ModelConfig) -> dict:
    """Gradients of the summed per-graph losses, keyed like params."""
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    node_n = targets["node_n"]
    dza = config.lambda_anomaly * (cache["prob"] - targets["y_anom"]) / node_n
    dzt = config.lambda_type * (cache["type_probs"] - targets["onehot"])
    dzt = dzt * targets["type_mask"][:, None] / targets["node_anom"]

    H2 = cache["H2"]
    grads["W_anom"] = H2.T @ dza
    grads["b_anom"] = dza.sum(axis=0)
    grads["W_type"] = H2.T @ dzt
    grads["b_type"] = dzt.sum(axis=0)
    dH2 = dza @ params["W_anom"].T + dzt @ params["W_type"].T

    # The severity gradient stops at its input: it never reaches dH2.
    if config.ablation != "no_severity":
        dzs2 = config.lambda_severity * (cache["sev_probs"] - targets["sev_onehot"]) / node_n
        S1 = cache["S1"]
        grads["W_sev2"] = S1.T @ dzs2
        grads["b_sev2"] = dzs2.sum(axis=0)
        dS1 = dzs2 @ params["W_sev2"].T
        dzs1 = dS1 * (cache["zs1"] > 0)
        sev_in = cache["sev_in"]
        grads["W_sev1"] = sev_in.T @ dzs1
        grads["b_sev1"] = dzs1.sum(axis=0)

    dZ2 = dH2 * (cache["Z2"] > 0)
    grads["W_gcn2"] = cache["A2"].T @ dZ2
    grads["b_gcn2"] = dZ2.sum(axis=0)
    dA2 = dZ2 @ params["W_gcn2"].T
    dD1 = cache["adj"] @ dA2  # the normalized adjacency is symmetric
    dH1 = dD1 * cache["mask"]
    dZ1 = dH1 * (cache["Z1"] > 0)
    grads["W_gcn1"] = cache["A1"].T @ dZ1
    grads["b_gcn1"] = dZ1.sum(axis=0)
    dA1 = dZ1 @ params["W_gcn1"].T
    dE = cache["adj"] @ dA1
    grads["W_embed"] = cache["X"].T @ dE
    grads["b_embed"] = dE.sum(axis=0)
    return grads


def loss_and_grads(
    graph: SignalGraph,
    state: ModelState,
    config: ModelConfig,
    train_mode: bool = True,
    dropout_mask: np.ndarray | None = None,
    dropout_seed: int = 0,
    edges: list[tuple[int, int, float]] | None = None,
    frozen_severity_input: np.ndarray | None = None,
) -> tuple[float, dict, dict]:
    """Multi-task loss and analytic gradients for one graph.

    The loss is
    ``lambda_anomaly * BCE + lambda_severity * CE_sev + lambda_type * CE``
    with BCE and the severity-bin cross-entropy CE_sev averaged over all
    nodes and the type cross-entropy CE averaged over the anomalous nodes
    only (a healthy node has no fault class).

    The severity branch reads the trunk through a stop-gradient: CE_sev
    trains only the severity head. Finite-difference checks pass
    ``frozen_severity_input`` (the unperturbed trunk output) so the
    differentiated function matches the analytic one.

    Returns:
        (total loss, per-component dict, gradient dict keyed like params).
    """
    block, cache = _graph_pass(
        graph, state, config, train_mode, dropout_mask, dropout_seed, edges, frozen_severity_input
    )
    targets = _block_targets([_targets(graph)], block)
    total, components = _loss_terms(cache, targets, block, config)
    grads = _backward(cache, targets, state.params, config)
    return float(total[0]), {k: float(v[0]) for k, v in components.items()}, grads


def loss_value(
    graph: SignalGraph,
    state: ModelState,
    config: ModelConfig,
    train_mode: bool = True,
    dropout_mask: np.ndarray | None = None,
    dropout_seed: int = 0,
    edges: list[tuple[int, int, float]] | None = None,
    frozen_severity_input: np.ndarray | None = None,
) -> float:
    """Total loss from the forward pass only; no gradient is computed.

    Returns exactly (bit for bit) the total loss that ``loss_and_grads``
    returns for the same arguments, so finite-difference checks of its
    gradients differentiate the same function. Both score the forward
    cache through one shared loss helper.
    """
    block, cache = _graph_pass(
        graph, state, config, train_mode, dropout_mask, dropout_seed, edges, frozen_severity_input
    )
    targets = _block_targets([_targets(graph)], block)
    return float(_loss_terms(cache, targets, block, config)[0][0])


def _reweighted(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, h1: np.ndarray, beta: float
) -> np.ndarray:
    """New weights of the edges (rows[k], cols[k]); see reweight_edges."""
    cos, undefined = row_cosines(h1[rows], h1[cols])
    f = np.where(undefined, 0.5, similarity_weight(cos))
    return np.clip((1.0 - beta) * weights + beta * f, 0.0, 1.0)


def reweight_edges(
    edges: list[tuple[int, int, float]],
    h1: np.ndarray,
    beta: float,
) -> list[tuple[int, int, float]]:
    """Blend edge weights toward hidden-vector similarity.

    new = (1 - beta) * old + beta * f with f = (1 + cosine(h1_i, h1_j)) / 2,
    clamped into [0, 1]. A node whose hidden vector is (near) zero has no
    usable direction; its pairs fall back to the neutral f = 0.5.

    Raises:
        InvalidConfigValue: If beta lies outside [0, 1].
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidConfigValue(f"beta must lie in [0, 1], got {beta}")
    i, j, w = _edge_arrays(edges)
    return list(zip(i.tolist(), j.tolist(), _reweighted(i, j, w, h1, beta).tolist()))


def _check_feature_dims(dataset: list[SignalGraph], config: ModelConfig) -> int:
    dims = {g.nodes[0].x.shape[0] for g in dataset}
    if len(dims) != 1:
        raise FeatureDimMismatch(f"graphs carry mixed feature dims: {sorted(dims)}")
    if config.ablation == "no_freq_features":
        for g in dataset:
            bad = [n for n in g.feature_names if any(m in n for m in FREQ_NAME_MARKERS)]
            if bad:
                raise FeatureDimMismatch(
                    f"no_freq_features expects time-domain features only, found {bad[:2]}"
                )
    return dims.pop()


def _graph_key(index: int, graph: SignalGraph) -> str:
    return f"{index}:{graph.source}"


def _chunks(count: int, size: int):
    return (range(start, min(start + size, count)) for start in range(0, count, size))


def evaluate_anomaly_accuracy(
    dataset: list[SignalGraph], state: ModelState, config: ModelConfig
) -> float:
    """Graph-level anomaly accuracy in eval mode (thresholded mean prob).

    Graphs are scored in blocks of ``config.batch_size``.
    """
    if not dataset:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    correct = 0
    for chunk in _chunks(len(dataset), config.batch_size):
        graphs = [dataset[i] for i in chunk]
        block = _block(
            [g.feature_matrix() for g in graphs], [_edge_arrays(g.edges) for g in graphs]
        )
        prob = _forward_cache(block, state.params, config, None, None)["prob"][:, 0]
        mean_prob = np.bincount(block.graph_id, prob, len(graphs)) / block.sizes
        truth = np.array([bool(g.node_targets[0].anomaly) for g in graphs])
        correct += int(np.sum((mean_prob > 0.5) == truth))
    return correct / len(dataset)


def effective_learning_rate(config: ModelConfig, epoch: int) -> float:
    """Step size for one epoch under the configured schedule."""
    if config.lr_schedule == "constant" or config.epochs <= 1:
        return config.learning_rate
    progress = epoch / config.epochs
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * progress))


def train(
    dataset: list[SignalGraph],
    config: ModelConfig,
    val_dataset: list[SignalGraph] | None = None,
) -> tuple[ModelState, list[dict]]:
    """Seeded mini-batch SGD over per-recording graphs.

    Per epoch: shuffle; for each minibatch, one forward and one backward
    pass over the block-diagonal graph of its members, whose gradient is
    the sum of the per-graph gradients; update with the batch mean. Then
    (unless the no_reweight ablation) blend every graph's edge weights
    toward first-layer hidden similarity, in blocks of batch_size graphs.
    Each graph keeps its own dropout stream. Input graphs are not mutated;
    the loop works on copies of their edge weights.

    Returns:
        (final state, per-epoch log of loss and validation accuracy).

    Raises:
        EmptyDataset: If the training split is empty.
        FeatureDimMismatch: If graphs disagree on dimension or carry
            frequency features under the no_freq_features ablation.
    """
    if not dataset:
        raise EmptyDataset("training requires at least one graph")
    dim = _check_feature_dims(dataset, config)
    state = init_state(dim, config)
    params = state.params
    features = [g.feature_matrix() for g in dataset]
    edges = [_edge_arrays(g.edges) for g in dataset]  # (i, j, weights) per graph
    targets = [_targets(g) for g in dataset]

    def block_of(members) -> _Block:
        return _block([features[k] for k in members], [edges[k] for k in members])

    log: list[dict] = []
    for epoch in range(config.epochs):
        order = make_rng(derive_seed(config.seed, "shuffle", str(epoch))).permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [int(k) for k in order[start : start + config.batch_size]]
            block = block_of(batch)
            mask = None
            if config.dropout_p > 0.0:
                mask = np.concatenate([
                    _dropout_mask(
                        (len(features[k]), config.gcn1_dim),
                        config.dropout_p,
                        derive_seed(config.seed, "dropout", str(epoch), str(k)),
                    )
                    for k in batch
                ])
            cache = _forward_cache(block, params, config, mask, None)
            batch_targets = _block_targets([targets[k] for k in batch], block)
            totals, _ = _loss_terms(cache, batch_targets, block, config)
            epoch_losses.append(totals)
            grads = _backward(cache, batch_targets, params, config)
            scale = effective_learning_rate(config, epoch) / len(batch)
            for name in params:
                params[name] -= scale * grads[name]

        if config.ablation != "no_reweight" and config.beta > 0.0:
            for chunk in _chunks(len(dataset), config.batch_size):
                block = block_of(chunk)
                h1 = _gcn1(block.X, block.adj, params)[3]
                new = _reweighted(block.rows, block.cols, block.weights, h1, config.beta)
                splits = np.cumsum([len(edges[k][2]) for k in chunk])[:-1]
                for k, w in zip(chunk, np.split(new, splits)):
                    edges[k] = (*edges[k][:2], w)

        entry = {"epoch": epoch, "train_loss": float(np.mean(np.concatenate(epoch_losses)))}
        if val_dataset:
            entry["val_accuracy"] = evaluate_anomaly_accuracy(val_dataset, state, config)
        log.append(entry)

    state.epoch = config.epochs
    state.edge_weights = {_graph_key(k, g): edges[k][2].tolist() for k, g in enumerate(dataset)}
    return state, log


def recording_to_graph(
    recording: Recording,
    pipeline: PipelineSettings,
    standardizer: Standardizer,
) -> SignalGraph:
    """Preprocess -> featurize -> standardize -> graph, for one recording."""
    rec = recording
    if pipeline.filter is not None:
        rec = filter_recording(rec, pipeline.filter)
    windows = [
        WindowFeatures(x=standardizer.transform(w.x), window_index=w.window_index, source=w.source)
        for w in extract_windows(rec, pipeline.window, pipeline.include_frequency)
    ]
    names = feature_names(include_frequency=pipeline.include_frequency)
    return build_graph(windows, rec.label, k=pipeline.neighbors, feature_names=names)


def diagnose(
    recording: Recording,
    state: ModelState,
    config: ModelConfig,
    pipeline: PipelineSettings,
    standardizer: Standardizer,
) -> Diagnosis:
    """Full inference on one raw recording.

    Runs the training-time pipeline (filter, window, standardize, graph)
    and an eval-mode forward pass. Edge weights are the fresh cosine
    weights; reweighting is a training-time mechanism only.

    Raises:
        RecordingTooShort: If the recording cannot fill one window.
    """
    if recording.n_samples < pipeline.window.window_len:
        raise RecordingTooShort(
            f"recording has {recording.n_samples} samples, below window_len "
            f"{pipeline.window.window_len}"
        )
    graph = recording_to_graph(recording, pipeline, standardizer)
    diagnosis, _ = forward(graph, state, config, train_mode=False)
    return diagnosis


def save_checkpoint(
    path: str | Path,
    state: ModelState,
    config: ModelConfig,
    pipeline: PipelineSettings,
    standardizer: Standardizer,
) -> None:
    """Write a JSON checkpoint that restores bit-identical behavior.

    Tensors are stored as row-major flat lists of 64-bit floats; JSON float
    text round-trips exactly, so a save/load cycle changes nothing.
    """
    blob = {
        "format": CHECKPOINT_FORMAT,
        "config": codec.to_json(config),
        "feature_dim": state.feature_dim,
        "epoch": state.epoch,
        "pipeline": codec.to_json(pipeline),
        "standardizer": standardizer.to_json(),
        "params": {
            name: {"shape": list(p.shape), "data": [float(v) for v in p.ravel()]}
            for name, p in state.params.items()
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(blob, fh)
        fh.write("\n")


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelState, ModelConfig, PipelineSettings, Standardizer]:
    """Read a checkpoint written by save_checkpoint, checking every entry.

    Raises:
        InvalidConfigValue: If the file is not UTF-8 JSON, the format tag is
            not CHECKPOINT_FORMAT, or a key is missing, null or malformed
            (the message names the key).
        InvalidConfig: If the config or pipeline section does not decode.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidConfigValue(f"checkpoint {path} is not UTF-8 JSON: {err}") from None
    found = blob.get("format") if isinstance(blob, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise InvalidConfigValue(f"unrecognized checkpoint format {found!r}")
    missing = [key for key in CHECKPOINT_KEYS if key not in blob]
    if missing:
        raise InvalidConfigValue(f"checkpoint lacks key(s): {', '.join(missing)}")
    config = codec.from_json(ModelConfig, blob["config"], "config")
    feature_dim = _checked_int(blob["feature_dim"], "feature_dim", 1)
    specs = dict(_param_specs(feature_dim, config))
    entries = _checked_object(blob["params"], "params", tuple(specs))
    unknown = sorted(set(entries) - set(specs))
    if unknown:
        raise InvalidConfigValue(f"checkpoint params.{unknown[0]}: unknown tensor")
    params = {}
    for name, shape in specs.items():
        entry = _checked_object(entries[name], f"params.{name}", ("shape", "data"))
        if entry["shape"] != list(shape):
            raise InvalidConfigValue(
                f"checkpoint params.{name}.shape is {entry['shape']!r}, expected {list(shape)}"
            )
        data = _checked_floats(entry["data"], f"params.{name}.data", int(np.prod(shape)))
        params[name] = data.reshape(shape)
    state = ModelState(
        params=params, feature_dim=feature_dim, epoch=_checked_int(blob["epoch"], "epoch", 0)
    )
    pipeline_blob = _checked_object(blob["pipeline"], "pipeline")
    pipeline = codec.from_json(PipelineSettings, pipeline_blob, "pipeline")
    stats = _checked_object(blob["standardizer"], "standardizer", ("mean", "std"))
    for part in ("mean", "std"):
        _checked_floats(stats[part], f"standardizer.{part}", feature_dim)
    return state, config, pipeline, Standardizer.from_json(stats)


def _checked_int(value, key: str, minimum: int) -> int:
    """``value`` as a JSON integer of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidConfigValue(f"checkpoint {key} must be an int >= {minimum}, got {value!r}")
    return value


def _checked_object(value, key: str, required: tuple[str, ...] = ()) -> dict:
    """``value`` as a JSON object holding every ``required`` key."""
    if not isinstance(value, dict):
        raise InvalidConfigValue(f"checkpoint {key} must be an object, got {value!r:.60}")
    for part in required:
        if part not in value:
            raise InvalidConfigValue(f"checkpoint lacks key {key}.{part}")
    return value


def _checked_floats(value, key: str, count: int) -> np.ndarray:
    """``value`` as a flat float64 array of exactly ``count`` numbers."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != (count,):
        raise InvalidConfigValue(f"checkpoint {key} must hold {count} numbers")
    return array
