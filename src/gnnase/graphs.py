"""Window graphs: one graph per recording.

Nodes are windows carrying their feature vectors. Edges combine a temporal
chain over consecutive windows with k-nearest-neighbor links among the
rest, so both adjacency in time and similarity in feature space are
represented. Raw cosine similarity c in [-1, 1] is mapped affinely to a
weight w = (1 + c) / 2 in [0, 1]; clamping at zero would erase ordering
among dissimilar pairs.

Edges are stored once with i < j; the graph is undirected throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigValue, ShapeMismatch, TooFewWindows, ZeroVector
from .features import WindowFeatures
from .simulate import FaultSpec

TYPE_CLASSES = ("eccentricity", "bar_breakage", "bearing")

# FaultSpec.kind -> classification target; healthy recordings have none.
KIND_TO_CLASS = {
    "eccentricity": "eccentricity",
    "broken_bars": "bar_breakage",
    "bearing": "bearing",
}

DEFAULT_NEIGHBORS = 4


@dataclass(frozen=True)
class NodeTargets:
    """Ground truth broadcast to every node of a recording's graph."""

    anomaly: int
    severity: float
    fault_type: str | None

    def __post_init__(self):
        if self.anomaly not in (0, 1):
            raise InvalidConfigValue(f"anomaly flag must be 0 or 1, got {self.anomaly}")
        if self.fault_type is not None and self.fault_type not in TYPE_CLASSES:
            raise InvalidConfigValue(f"unknown fault type {self.fault_type!r}")


@dataclass
class SignalGraph:
    """Undirected weighted graph over one recording's windows.

    edges holds unique (i, j, weight) triples with i < j; weights always
    lie in [0, 1]. Self-loops are never stored here; the model adds them
    during aggregation.
    """

    nodes: list[WindowFeatures]
    edges: list[tuple[int, int, float]]
    node_targets: list[NodeTargets]
    feature_names: list[str] = field(default_factory=list)
    source: str = ""

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def feature_matrix(self) -> np.ndarray:
        return np.stack([node.x for node in self.nodes])


def fault_targets(label: FaultSpec) -> NodeTargets:
    """Node-level ground truth for a recording-level label."""
    if label.kind == "healthy":
        return NodeTargets(anomaly=0, severity=0.0, fault_type=None)
    return NodeTargets(anomaly=1, severity=label.severity, fault_type=KIND_TO_CLASS[label.kind])


def row_cosines(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of every row pair (a[k], b[k]), clamped into [-1, 1].

    Each row's result depends on that row alone, so a single pair and a
    batch of pairs give the same bits; graph construction, edge_weight and
    the model's edge reweighting all compute cosines here.

    Returns:
        (cosines, undefined): undefined marks pairs where either norm is
        at most 1e-12; their cosine reads 0.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    undefined = (na <= 1e-12) | (nb <= 1e-12)
    cos = np.einsum("ij,ij->i", a, b) / np.where(undefined, 1.0, na * nb)
    return np.where(undefined, 0.0, np.clip(cos, -1.0, 1.0)), undefined


def similarity_weight(cos):
    """Cosine mapped affinely into [0, 1]: w = (1 + c) / 2 (scalar or array)."""
    return (1.0 + cos) / 2.0


def cosine_similarity(x, y) -> float:
    """Inner product over the product of norms, clamped into [-1, 1].

    Raises:
        ZeroVector: If either vector's norm is at most 1e-12.
        ShapeMismatch: If dimensions differ.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ShapeMismatch(f"vectors differ in shape: {x.shape} vs {y.shape}")
    cos, undefined = row_cosines(x.reshape(1, -1), y.reshape(1, -1))
    if undefined[0]:
        raise ZeroVector("cosine similarity is undefined for near-zero vectors")
    return float(cos[0])


def edge_weight(x, y) -> float:
    """Cosine mapped into [0, 1]: w = (1 + c) / 2."""
    return similarity_weight(cosine_similarity(x, y))


def build_graph(
    windows: list[WindowFeatures],
    label: FaultSpec,
    k: int = DEFAULT_NEIGHBORS,
    feature_names: list[str] | None = None,
) -> SignalGraph:
    """Connect windows by a temporal chain plus k-nearest-neighbor links.

    Every consecutive pair (i, i+1) is connected. Each node additionally
    proposes links to its k most-similar nodes among the non-adjacent
    ones; proposals from either endpoint are kept (union), so degrees stay
    within 2 + 2k. All weights are (1 + cosine) / 2.

    Args:
        windows: At least two featurized windows in temporal order.
        label: Recording label; broadcast to all nodes as targets.
        k: Neighbor proposals per node, >= 0.
        feature_names: Optional column names stored on the graph.

    Returns:
        Connected undirected SignalGraph.

    Raises:
        TooFewWindows: If fewer than two windows are given.
        ShapeMismatch: If the windows' feature vectors differ in shape.
        ZeroVector: If a window's feature vector is (near) zero.
    """
    n = len(windows)
    if n < 2:
        raise TooFewWindows(f"a graph needs at least 2 windows, got {n}")
    if k < 0:
        raise InvalidConfigValue(f"k must be >= 0, got {k}")

    shapes = {np.shape(w.x) for w in windows}
    if len(shapes) != 1:
        raise ShapeMismatch(f"windows differ in feature shape: {sorted(shapes)}")
    # Pairwise cosine once, one row at a time so temporaries stay O(n);
    # similarity ordering reuses it for kNN picks.
    X = np.stack([w.x for w in windows])
    cos = np.ones((n, n))
    for i in range(n - 1):
        row, undefined = row_cosines(np.broadcast_to(X[i], X[i + 1 :].shape), X[i + 1 :])
        if undefined.any():
            raise ZeroVector("cosine similarity is undefined for near-zero vectors")
        cos[i, i + 1 :] = cos[i + 1 :, i] = row

    pairs: set[tuple[int, int]] = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        candidates = [j for j in range(n) if j != i and abs(j - i) > 1]
        # Descending similarity, index ascending on ties.
        candidates.sort(key=lambda j: (-cos[i, j], j))
        for j in candidates[:k]:
            pairs.add((min(i, j), max(i, j)))

    edges = [(i, j, similarity_weight(cos[i, j])) for i, j in sorted(pairs)]
    targets = fault_targets(label)
    return SignalGraph(
        nodes=list(windows),
        edges=edges,
        node_targets=[targets] * n,
        feature_names=list(feature_names or []),
        source=windows[0].source,
    )
