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

# Window pairs per row_cosines call in build_graph. One call covers all
# pairs of up to 90 windows, about 9 s at the default sample rate and window.
PAIR_BLOCK = 4096


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
    batch of pairs give the same bits; graph construction and the model's
    edge reweighting both compute cosines here.

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
    # Every pair i < j, PAIR_BLOCK pairs per call so that the gathered rows
    # stay small on long recordings; each pair's cosine depends on its own
    # rows alone, so the bits match a per-row evaluation.
    X = np.stack([w.x for w in windows])
    iu, ju = np.triu_indices(n, 1)
    pair_cos = np.empty(len(iu))
    for start in range(0, len(iu), PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        pair_cos[block], undefined = row_cosines(X[iu[block]], X[ju[block]])
        if undefined.any():
            raise ZeroVector("cosine similarity is undefined for near-zero vectors")
    cos = np.ones((n, n))
    cos[iu, ju] = cos[ju, iu] = pair_cos

    # Each node's k picks among nodes more than one step away in time:
    # descending similarity, index ascending on ties (a stable sort of
    # -cos); the excluded nodes sort last and are never picked.
    offset = np.abs(np.arange(n)[:, None] - np.arange(n))
    score = np.where(offset > 1, -cos, np.inf)
    top = np.argsort(score, axis=1, kind="stable")[:, :k]
    picked = np.isfinite(np.take_along_axis(score, top, axis=1))
    linked = offset == 1
    rows = np.broadcast_to(np.arange(n)[:, None], top.shape)[picked]
    linked[rows, top[picked]] = linked[top[picked], rows] = True

    ii, jj = np.nonzero(np.triu(linked))
    edges = list(zip(ii.tolist(), jj.tolist(), similarity_weight(cos[ii, jj])))
    targets = fault_targets(label)
    return SignalGraph(
        nodes=list(windows),
        edges=edges,
        node_targets=[targets] * n,
        feature_names=list(feature_names or []),
        source=windows[0].source,
    )
