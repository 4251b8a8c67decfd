"""The GNN-ASE network with hand-written analytic gradients.

Architecture: linear embedding -> graph convolution (ReLU) -> dropout ->
graph convolution (ReLU) -> three heads (anomaly sigmoid, severity MLP
with a softmax over SEVERITY_BINS bins, type softmax). Aggregation
multiplies by the normalized adjacency D^-1/2 (A + I) D^-1/2: each edge
weight is divided by the square root of both endpoints' weighted
degrees, with a weight-1 self-loop added per node.

One kernel serves every caller. Graphs are padded to one node count n
and stacked: node features become a (G, n, d) array, each graph keeps
its own (n, n) normalized adjacency, and aggregation is one batched
``(G, n, n) @ (G, n, k)`` product. The linear maps run on the G*n stack
rows at once. Padding rows and columns of the adjacency are zero and
padding nodes carry no loss, so they never reach a real node's output
or gradient. Node-level losses are weighted 1/n_g and the type loss
type_mask/n_anom_g, so a stack's loss and gradient are exactly the sums
of the per-graph ones. Memory is O(G n^2) in the graphs of one stack.
The single-graph functions (forward, loss_and_grads, loss_value,
gcn_layer, reweight_edges) run the same kernel on a one-graph stack. In
train_mode without a dropout_mask they draw the seed-0 mask.

Training is plain seeded SGD on a multi-task loss: binary cross-entropy
for anomaly, cross-entropy over severity bins, cross-entropy over fault
classes masked to anomalous nodes. The training graphs are stacked once;
each epoch rebuilds their adjacency from the current edge weights, and
a minibatch is the members' slice of that stack. After each epoch the
edge weights of every training graph are blended toward the cosine
similarity of the first convolution's hidden vectors (dynamic edge
reweighting), computed over batch_size graphs of the stack at a time;
weights are constants as far as the gradients are concerned.

The severity head classifies each node into one of SEVERITY_BINS equal
bins of [0, 1] and scores it as the expected bin centre. It reads the
trunk output but its loss gradient stops there: the trunk is trained by
the detection losses alone, so removing the severity head (the
no_severity ablation) cannot change anomaly or type behavior.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import codec
from .errors import (
    EmptyDataset,
    FeatureDimMismatch,
    InvalidConfigValue,
    NegativeWeight,
    SampleRateMismatch,
    ShapeMismatch,
)
from .features import FREQ_FEATURES, Standardizer, WindowSpec, extract_windows, feature_names
from .graphs import TYPE_CLASSES, SignalGraph, build_graph, row_cosines, similarity_weight
from .numerics import derive_seed, make_rng
from .preprocess import FilterSpec, filter_recording
from .simulate import MachineSpec, Recording

ABLATIONS = ("full", "no_reweight", "no_severity", "no_freq_features")

CHECKPOINT_FORMAT = "gnnase-checkpoint-v5"
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
    """Featurization settings a trained model depends on, and the sample rate it was trained at."""

    window: WindowSpec = WindowSpec()
    filter: FilterSpec | None = FilterSpec()
    neighbors: int = 4
    include_frequency: bool = True
    sample_rate: float = MachineSpec.sample_rate


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
class _Stack:
    """Graphs padded to one node count n, each with its own adjacency.

    Node-level arrays hold n rows per graph, graph after graph (stack row
    g*n + i is node i of graph g); rows past a graph's node count are
    padding. Padding rows and columns of ``adj`` are zero, so nothing
    aggregates from or into a padding node.
    """

    X: np.ndarray  # (G, n, feature_dim) node features; padding rows are zero
    adj: np.ndarray  # (G, n, n) normalized adjacency of each graph
    sizes: np.ndarray  # (G,) node count per graph

    def take(self, members) -> _Stack:
        """The sub-stack of the graphs at positions ``members``."""
        return _Stack(self.X[members], self.adj[members], self.sizes[members])

    def node_graph(self) -> np.ndarray:
        """(G*n,) position of each stack row's graph; padding rows read G."""
        count, n = self.adj.shape[:2]
        return np.where(
            np.arange(n) < self.sizes[:, None], np.arange(count)[:, None], count
        ).ravel()


def _edge_arrays(edges: list[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint and weight arrays of a list of (i, j, weight) triples."""
    if not edges:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    i, j, w = zip(*edges)
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(w, dtype=float)


def _padded(features: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrices zero-padded to the largest node count: (X (G, n, d), sizes)."""
    sizes = np.array([len(x) for x in features])
    X = np.zeros((len(features), int(sizes.max()), features[0].shape[1]))
    for x, block in zip(features, X):
        block[: len(x)] = x
    return X, sizes


def _edge_rows(
    n: int, edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every graph's edges with endpoints as stack rows g*n + i: (src, dst, weights)."""
    src, dst, w = (np.concatenate(parts) for parts in zip(*edges))
    shift = np.repeat(np.arange(len(edges)) * n, [len(e[2]) for e in edges])
    return src + shift, dst + shift, w


def _adjacency(sizes: np.ndarray, n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normalized adjacency D^-1/2 (A + I) D^-1/2 of each graph, shape (G, n, n).

    ``src`` and ``dst`` are the stack rows of each edge's endpoints. Each
    edge is entered in both directions and each node gets a weight-1
    self-loop; weighted degrees count the self-loop. Padding rows and
    columns stay zero. Memory is O(G n^2).

    Raises:
        NegativeWeight: If any edge weight is negative.
    """
    negative = np.flatnonzero(w < 0)
    if negative.size:
        k = negative[0]
        raise NegativeWeight(
            f"edge ({src[k] % n}, {dst[k] % n}) of graph {src[k] // n} has negative weight {w[k]}"
        )
    rows = len(sizes) * n
    inv_sqrt = 1.0 / np.sqrt(1.0 + np.bincount(src, w, rows) + np.bincount(dst, w, rows))
    adj = np.zeros((rows, n))
    adj[src, dst % n] = adj[dst, src % n] = w * inv_sqrt[src] * inv_sqrt[dst]
    nodes = np.flatnonzero(np.arange(n) < sizes[:, None])
    adj[nodes, nodes % n] = inv_sqrt[nodes] * inv_sqrt[nodes]
    return adj.reshape(len(sizes), n, n)


def _graph_stack(dataset: list[SignalGraph]) -> _Stack:
    """Pad and stack graphs and build each one's normalized adjacency.

    Raises:
        NegativeWeight: If any edge weight is negative.
    """
    X, sizes = _padded([g.feature_matrix() for g in dataset])
    src, dst, w = _edge_rows(X.shape[1], [_edge_arrays(g.edges) for g in dataset])
    return _Stack(X, _adjacency(sizes, X.shape[1], src, dst, w), sizes)


def _aggregate(adj: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Each graph's adjacency times its own n rows of H, as one batched product."""
    count, n = adj.shape[:2]
    return (adj @ H.reshape(count, n, -1)).reshape(count * n, -1)


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
    n = graph.n_nodes
    out = _aggregate(_adjacency(np.array([n]), n, *_edge_arrays(graph.edges)), h) @ W
    return np.maximum(out, 0.0) if activation == "relu" else out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic per entry via libm's ``math.exp`` (not ``np.exp``), bit-identical to scipy's expit."""
    out = []
    for v in z.ravel().tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-v)))
        except OverflowError:
            out.append(0.0)
    return np.array(out, dtype=float).reshape(z.shape)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def _uniforms(bitgen: np.random.Philox, seed: int, count: int) -> np.ndarray:
    """The first ``count`` draws of ``make_rng(seed).random()``, bit for bit.

    ``bitgen`` is re-keyed to ``seed`` through its state, which costs far
    less than constructing a generator. A double is the top 53 bits of one
    64-bit output times 2^-53, as ``Generator.random`` computes it.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return (bitgen.random_raw(count) >> 11) * 2.0**-53


def _dropout_mask(shape, p: float, seed: int) -> np.ndarray:
    """Inverted dropout: entries are 0 or 1/(1-p), unbiased in expectation.

    Equals ``(make_rng(seed).random(shape) >= p) / (1 - p)``.
    """
    return (_uniforms(np.random.Philox(), seed, math.prod(shape)).reshape(shape) >= p) / (1.0 - p)


def _gcn1(stack: _Stack, params: dict) -> tuple[np.ndarray, ...]:
    """Embedding and first convolution over stack rows: (E, A1, Z1, H1)."""
    E = stack.X.reshape(-1, stack.X.shape[2]) @ params["W_embed"] + params["b_embed"]
    A1 = _aggregate(stack.adj, E)
    Z1 = A1 @ params["W_gcn1"] + params["b_gcn1"]
    return E, A1, Z1, np.maximum(Z1, 0.0)


def _forward_cache(
    stack: _Stack,
    params: dict,
    config: ModelConfig,
    mask: np.ndarray | None,
    severity_input: np.ndarray | None,
) -> dict:
    """Forward activations over a stack, one row per stack row; ``mask`` None means no dropout."""
    if stack.X.shape[2] != params["W_embed"].shape[0]:
        raise ShapeMismatch(
            f"feature dim {stack.X.shape[2]} does not match W_embed rows {params['W_embed'].shape[0]}"
        )
    cache: dict = {"X": stack.X.reshape(-1, stack.X.shape[2]), "adj": stack.adj}
    cache["E"], cache["A1"], cache["Z1"], cache["H1"] = _gcn1(stack, params)
    cache["mask"] = np.ones_like(cache["H1"]) if mask is None else mask
    cache["D1"] = cache["H1"] * cache["mask"]
    cache["A2"] = _aggregate(stack.adj, cache["D1"])
    cache["Z2"] = cache["A2"] @ params["W_gcn2"] + params["b_gcn2"]
    cache["H2"] = np.maximum(cache["Z2"], 0.0)

    cache["za"] = cache["H2"] @ params["W_anom"] + params["b_anom"]
    cache["prob"] = _sigmoid(cache["za"])
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
    severity_input: np.ndarray | None,
) -> tuple[_Stack, dict]:
    """Forward pass over one graph as a one-graph stack: (stack, cache).

    Raises:
        ShapeMismatch: If a given mask is not (n_nodes, gcn1_dim) or a given
            severity input not (n_nodes, gcn2_dim).
    """
    n = graph.n_nodes
    for name, value, dim in (
        ("dropout_mask", dropout_mask, config.gcn1_dim),
        ("frozen_severity_input", severity_input, config.gcn2_dim),
    ):
        if value is not None and np.shape(value) != (n, dim):
            raise ShapeMismatch(f"{name} has shape {np.shape(value)}, expected ({n}, {dim})")
    mask = None
    if train_mode and config.dropout_p > 0.0:
        mask = dropout_mask if dropout_mask is not None else _dropout_mask(
            (n, config.gcn1_dim), config.dropout_p, 0
        )
    stack = _graph_stack([graph])
    return stack, _forward_cache(stack, state.params, config, mask, severity_input)


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
) -> tuple[Diagnosis, dict]:
    """Run the network over one graph.

    Args:
        graph: Input graph with its stored edge weights.
        train_mode: Enables dropout; without ``dropout_mask`` the mask is
            the seed-0 draw ``_dropout_mask(shape, dropout_p, 0)``.
        dropout_mask: Optional precomputed (n_nodes, gcn1_dim) mask
            (gradient checks freeze it).

    Returns:
        (Diagnosis, cache of intermediate activations for the backward pass).

    Raises:
        ShapeMismatch: If the features or the mask do not fit the model.
    """
    _, cache = _graph_pass(graph, state, config, train_mode, dropout_mask, None)
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


def _stack_targets(per_graph: list[dict], n: int) -> dict:
    """Per-graph targets padded to n rows each and stacked, one row per stack row.

    ``node_n`` and ``node_anom`` give each row its graph's node count and
    anomalous-node count (at least 1), so node-level losses are weighted
    1/n_g and the type loss type_mask/n_anom_g: a stack's loss and
    gradient are then exactly the sums of the per-graph ones. Padding rows
    have every label zero and ``valid`` 0, so they carry no loss.
    """

    def padded(a: np.ndarray) -> np.ndarray:
        return np.concatenate([a, np.zeros((n - len(a),) + a.shape[1:])])

    targets = {key: np.concatenate([padded(t[key]) for t in per_graph]) for key in per_graph[0]}
    sizes = np.array([len(t["type_mask"]) for t in per_graph])
    n_anom = np.array([t["type_mask"].sum() for t in per_graph])
    targets["valid"] = (np.arange(n) < sizes[:, None]).astype(float).reshape(-1, 1)
    targets["node_n"] = np.repeat(sizes.astype(float), n)[:, None]
    targets["node_anom"] = np.repeat(np.maximum(n_anom, 1.0), n)[:, None]
    return targets


def _take_targets(targets: dict, members: np.ndarray, n: int) -> dict:
    """The stack rows of the graphs at positions ``members``, in that order."""
    rows = (members[:, None] * n + np.arange(n)).ravel()
    return {key: value[rows] for key, value in targets.items()}


def _loss_terms(
    cache: dict, targets: dict, stack: _Stack, config: ModelConfig
) -> tuple[np.ndarray, dict]:
    """Score a forward cache per graph: (total losses, per-component arrays)."""
    node_graph = stack.node_graph()
    count = len(stack.sizes)

    def per_graph_sum(values: np.ndarray) -> np.ndarray:
        # Padding rows land in the extra bin; real rows add in node order.
        return np.bincount(node_graph, values, count + 1)[:count]

    # Binary cross-entropy through softplus keeps large logits stable.
    za = cache["za"][:, 0]
    bce = per_graph_sum(np.logaddexp(0.0, za) - targets["y_anom"][:, 0] * za) / stack.sizes

    logp = np.log(np.maximum(cache["type_probs"], 1e-300))
    node_ce = -np.sum(targets["onehot"] * logp, axis=1) * targets["type_mask"]
    n_anom = per_graph_sum(targets["type_mask"])
    ce = per_graph_sum(node_ce) / np.maximum(n_anom, 1.0)
    ce = np.where(n_anom > 0, ce, 0.0)

    if config.ablation == "no_severity":
        sev = np.zeros(count)
    else:
        logp = np.log(np.maximum(cache["sev_probs"], 1e-300))
        sev = per_graph_sum(-np.sum(targets["sev_onehot"] * logp, axis=1)) / stack.sizes

    total = config.lambda_anomaly * bce + config.lambda_type * ce + config.lambda_severity * sev
    return total, {"anomaly": bce, "type": ce, "severity": sev}


def _backward(cache: dict, targets: dict, params: dict, config: ModelConfig) -> dict:
    """Gradients of the summed per-graph losses, keyed like params.

    Padding rows get no loss gradient, so every gradient further back
    vanishes on them too.
    """
    grads = {}
    node_n, valid = targets["node_n"], targets["valid"]
    dza = config.lambda_anomaly * (cache["prob"] - targets["y_anom"]) / node_n * valid
    dzt = config.lambda_type * (cache["type_probs"] - targets["onehot"])
    dzt = dzt * targets["type_mask"][:, None] / targets["node_anom"]

    H2 = cache["H2"]
    grads["W_anom"] = H2.T @ dza
    grads["b_anom"] = dza.sum(axis=0)
    grads["W_type"] = H2.T @ dzt
    grads["b_type"] = dzt.sum(axis=0)
    dH2 = dza @ params["W_anom"].T + dzt @ params["W_type"].T

    # The severity gradient stops at its input: it never reaches dH2.
    if config.ablation == "no_severity":
        for name in ("W_sev1", "b_sev1", "W_sev2", "b_sev2"):
            grads[name] = np.zeros_like(params[name])
    else:
        dzs2 = config.lambda_severity * (cache["sev_probs"] - targets["sev_onehot"]) / node_n * valid
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
    dD1 = _aggregate(cache["adj"], dA2)  # the normalized adjacency is symmetric
    dH1 = dD1 * cache["mask"]
    dZ1 = dH1 * (cache["Z1"] > 0)
    grads["W_gcn1"] = cache["A1"].T @ dZ1
    grads["b_gcn1"] = dZ1.sum(axis=0)
    dA1 = dZ1 @ params["W_gcn1"].T
    dE = _aggregate(cache["adj"], dA1)
    grads["W_embed"] = cache["X"].T @ dE
    grads["b_embed"] = dE.sum(axis=0)
    return grads


def loss_and_grads(
    graph: SignalGraph,
    state: ModelState,
    config: ModelConfig,
    train_mode: bool = True,
    dropout_mask: np.ndarray | None = None,
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
    stack, cache = _graph_pass(graph, state, config, train_mode, dropout_mask, frozen_severity_input)
    targets = _stack_targets([_targets(graph)], graph.n_nodes)
    total, components = _loss_terms(cache, targets, stack, config)
    grads = _backward(cache, targets, state.params, config)
    return float(total[0]), {k: float(v[0]) for k, v in components.items()}, grads


def loss_value(
    graph: SignalGraph,
    state: ModelState,
    config: ModelConfig,
    train_mode: bool = True,
    dropout_mask: np.ndarray | None = None,
    frozen_severity_input: np.ndarray | None = None,
) -> float:
    """Total loss from the forward pass only; no gradient is computed.

    Returns exactly (bit for bit) the total loss that ``loss_and_grads``
    returns for the same arguments, so finite-difference checks of its
    gradients differentiate the same function. Both score the forward
    cache through one shared loss helper.
    """
    stack, cache = _graph_pass(graph, state, config, train_mode, dropout_mask, frozen_severity_input)
    targets = _stack_targets([_targets(graph)], graph.n_nodes)
    return float(_loss_terms(cache, targets, stack, config)[0][0])


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
            bad = [n for n in g.feature_names if any(m in n for m in FREQ_FEATURES)]
            if bad:
                raise FeatureDimMismatch(
                    f"no_freq_features expects time-domain features only, found {bad[:2]}"
                )
    return dims.pop()


def _anomaly_hits(stack: _Stack, truth: np.ndarray, params: dict, config: ModelConfig) -> int:
    """Graphs whose eval-mode mean anomaly probability is on the side of ``truth``."""
    prob = _forward_cache(stack, params, config, None, None)["prob"][:, 0]
    count = len(stack.sizes)
    mean_prob = np.bincount(stack.node_graph(), prob, count + 1)[:count] / stack.sizes
    return int(np.sum((mean_prob > 0.5) == truth))


def _anomaly_truth(dataset: list[SignalGraph]) -> np.ndarray:
    return np.array([bool(g.node_targets[0].anomaly) for g in dataset])


def evaluate_anomaly_accuracy(
    dataset: list[SignalGraph], state: ModelState, config: ModelConfig
) -> float:
    """Graph-level anomaly accuracy in eval mode (thresholded mean prob), in one stacked pass."""
    if not dataset:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    hits = _anomaly_hits(_graph_stack(dataset), _anomaly_truth(dataset), state.params, config)
    return hits / len(dataset)


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

    The training graphs are stacked once, and each epoch rebuilds their
    adjacency from the current edge weights. Per epoch: shuffle; for each
    minibatch, one forward and one backward pass over the members' rows of
    the stack, whose gradient is the sum of the per-graph gradients;
    update with the batch mean. Then (unless the no_reweight ablation)
    blend every training edge's weight toward first-layer hidden
    similarity, batch_size graphs of the stack at a time. Validation
    is one pass over a stack built before the first epoch. Each graph
    keeps its own dropout stream. Input graphs are not mutated; the loop
    works on a copy of their edge weights.

    Returns:
        (final state, per-epoch log of loss and validation accuracy).

    Raises:
        EmptyDataset: If the training split is empty.
        FeatureDimMismatch: If graphs disagree on dimension or carry
            frequency features under the no_freq_features ablation.
        NegativeWeight: If any edge weight is negative.
    """
    if not dataset:
        raise EmptyDataset("training requires at least one graph")
    dim = _check_feature_dims(dataset, config)
    state = init_state(dim, config)
    params = state.params
    edges = [_edge_arrays(g.edges) for g in dataset]
    X, sizes = _padded([g.feature_matrix() for g in dataset])
    n = X.shape[1]
    src, dst, weights = _edge_rows(n, edges)
    first_edge = np.concatenate([[0], np.cumsum([len(e[2]) for e in edges])])
    targets = _stack_targets([_targets(g) for g in dataset], n)
    if val_dataset:
        val_stack, val_truth = _graph_stack(val_dataset), _anomaly_truth(val_dataset)
    bitgen = np.random.Philox()

    log: list[dict] = []
    for epoch in range(config.epochs):
        stack = _Stack(X, _adjacency(sizes, n, src, dst, weights), sizes)
        order = make_rng(derive_seed(config.seed, "shuffle", str(epoch))).permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            part = stack.take(batch)
            mask = None
            if config.dropout_p > 0.0:
                # Each graph draws n rows; rows past its own size fall on
                # padding, where the mask has no effect.
                draws = np.concatenate([
                    _uniforms(bitgen, derive_seed(config.seed, "dropout", str(epoch), str(k)),
                              n * config.gcn1_dim)
                    for k in batch.tolist()
                ])
                mask = (draws.reshape(-1, config.gcn1_dim) >= config.dropout_p) / (1.0 - config.dropout_p)
            cache = _forward_cache(part, params, config, mask, None)
            batch_targets = _take_targets(targets, batch, n)
            totals, _ = _loss_terms(cache, batch_targets, part, config)
            epoch_losses.append(totals)
            grads = _backward(cache, batch_targets, params, config)
            scale = effective_learning_rate(config, epoch) / len(batch)
            for name in params:
                params[name] -= scale * grads[name]

        # The weights the last epoch would blend are never read.
        if config.ablation != "no_reweight" and config.beta > 0.0 and epoch < config.epochs - 1:
            # batch_size graphs at a time: one pass over the whole stack
            # gives the same bits but raised peak memory, at no gain in time.
            blended = []
            for start in range(0, len(dataset), config.batch_size):
                stop = min(start + config.batch_size, len(dataset))
                h1 = _gcn1(stack.take(slice(start, stop)), params)[3]
                own, shift = slice(first_edge[start], first_edge[stop]), start * n
                blended.append(
                    _reweighted(src[own] - shift, dst[own] - shift, weights[own], h1, config.beta)
                )
            weights = np.concatenate(blended)

        entry = {"epoch": epoch, "train_loss": float(np.mean(np.concatenate(epoch_losses)))}
        if val_dataset:
            entry["val_accuracy"] = _anomaly_hits(val_stack, val_truth, params, config) / len(val_dataset)
        log.append(entry)

    state.epoch = config.epochs
    return state, log


def recording_to_graph(
    recording: Recording,
    pipeline: PipelineSettings,
    standardizer: Standardizer,
) -> SignalGraph:
    """Preprocess -> featurize -> standardize -> graph, for one recording.

    Raises:
        SampleRateMismatch: If the recording's sample rate differs from the
            pipeline's by more than 1e-6 of it, the rounding the CSV reader allows.
    """
    if abs(recording.sample_rate - pipeline.sample_rate) > 1e-6 * pipeline.sample_rate:
        raise SampleRateMismatch(
            f"recording {recording.name} is sampled at {recording.sample_rate} Hz, "
            f"the model at {pipeline.sample_rate} Hz"
        )
    rec = recording
    if pipeline.filter is not None:
        rec = filter_recording(rec, pipeline.filter)
    windows = [
        replace(w, x=standardizer.transform(w.x))
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
        SampleRateMismatch: If the recording's sample rate is not the pipeline's.
    """
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
    """Write a checkpoint that restores bit-identical behavior.

    One line of JSON (the settings, and each tensor's ``[name, shape]`` in
    order), a newline, then every tensor's row-major little-endian float64
    bytes back to back, so the file's size is fixed by the tensor shapes.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": codec.to_json(config),
        "feature_dim": state.feature_dim,
        "epoch": state.epoch,
        "pipeline": codec.to_json(pipeline),
        "standardizer": standardizer.to_json(),
        "params": [[name, list(p.shape)] for name, p in state.params.items()],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for p in state.params.values():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelState, ModelConfig, PipelineSettings, Standardizer]:
    """Read a checkpoint written by save_checkpoint, checking every entry.

    Raises:
        InvalidConfigValue: If the first line is not UTF-8 JSON, the format
            tag is not CHECKPOINT_FORMAT, a key is missing, null, malformed or
            holds a NaN or infinite number, the bytes after the first line are
            not the listed tensors', the pipeline yields another feature count
            than feature_dim, or a standardizer std is below
            Standardizer.STD_FLOOR (the message names the key).
        InvalidConfig: If the config or pipeline section does not decode.
    """
    raw = Path(path).read_bytes()
    head, _, body = raw.partition(b"\n")
    try:
        header = json.loads(head.decode())
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        try:  # a JSON document of several lines, such as a dataset manifest
            header = json.loads(raw.decode())
        except ValueError:
            raise InvalidConfigValue(f"checkpoint {path} is not UTF-8 JSON: {err}") from None
    found = header.get("format") if isinstance(header, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise InvalidConfigValue(f"unrecognized checkpoint format {found!r}")
    missing = [key for key in CHECKPOINT_KEYS if key not in header]
    if missing:
        raise InvalidConfigValue(f"checkpoint lacks key(s): {', '.join(missing)}")
    config = codec.from_json(ModelConfig, header["config"], "config")
    feature_dim = _checked_int(header["feature_dim"], "feature_dim", 1)
    specs = _param_specs(feature_dim, config)
    listed = header["params"] if isinstance(header["params"], list) else [header["params"]]
    expected = [[name, list(shape)] for name, shape in specs]
    for index, (got, want) in enumerate(itertools.zip_longest(listed, expected)):
        if got != want:
            raise InvalidConfigValue(f"checkpoint params[{index}] is {got!r:.60}, expected {want}")
    size = 8 * sum(math.prod(shape) for _, shape in specs)
    if len(body) != size:
        raise InvalidConfigValue(
            f"checkpoint must hold {size} bytes after its first line, found {len(body)}"
        )
    params, offset = {}, 0
    for name, shape in specs:
        count = math.prod(shape)
        tensor = np.frombuffer(body, "<f8", count, offset).reshape(shape).copy()
        params[name] = _finite(tensor, f"params.{name}.data")
        offset += 8 * count
    state = ModelState(
        params=params, feature_dim=feature_dim, epoch=_checked_int(header["epoch"], "epoch", 0)
    )
    pipeline_blob = _checked_object(header["pipeline"], "pipeline")
    pipeline = codec.from_json(PipelineSettings, pipeline_blob, "pipeline")
    columns = len(feature_names(include_frequency=pipeline.include_frequency))
    if feature_dim != columns:
        raise InvalidConfigValue(
            f"checkpoint feature_dim is {feature_dim}, but its pipeline yields {columns} features"
        )
    stats = _checked_object(header["standardizer"], "standardizer", ("mean", "std"))
    for part in ("mean", "std"):
        _checked_floats(stats[part], f"standardizer.{part}", feature_dim)
    standardizer = Standardizer.from_json(stats)
    # Standardizer.fit never goes below the floor; a smaller std would divide
    # features by zero and score NaN as "healthy".
    if np.any(standardizer.std < Standardizer.STD_FLOOR):
        raise InvalidConfigValue(
            f"checkpoint standardizer.std must hold values >= {Standardizer.STD_FLOOR}"
        )
    return state, config, pipeline, standardizer


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
    """``value`` as a float64 array, once it is a JSON list of exactly ``count`` numbers."""
    if not isinstance(value, list) or len(value) != count or any(
        type(v) not in (int, float) for v in value
    ):
        raise InvalidConfigValue(f"checkpoint {key} must hold {count} numbers")
    try:
        array = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond float64's range
        array = np.array([np.inf])
    return _finite(array, key)


def _finite(array: np.ndarray, key: str) -> np.ndarray:
    """``array`` unchanged, once every entry is known to be finite."""
    if not np.isfinite(array).all():
        raise InvalidConfigValue(f"checkpoint {key} holds a NaN or infinite number")
    return array
