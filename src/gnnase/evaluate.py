"""Dataset splitting, confusion-matrix metrics, and the ablation harness.

Evaluation is per fault family: each family's test subset is that family's
faulty recordings plus every healthy test recording. Anomaly metrics are
binary on the subset; type metrics are computed over detected anomalies
(truly faulty recordings the detector flagged, since healthy false
positives carry no type label). Severity quality is reported as Spearman
rank correlation between the predicted score and the injected severity.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyCatalog, InvalidRatios, UndefinedMetric
from .features import Standardizer, extract_windows, feature_names
from .graphs import KIND_TO_CLASS, TYPE_CLASSES, SignalGraph, build_graph
from .model import ABLATIONS, ModelConfig, ModelState, PipelineSettings, forward, train
from .numerics import derive_seed, make_rng
from .preprocess import filter_recording
from .simulate import Recording

VARIANT_NAMES = {
    "full": "GNN-ASE",
    "no_reweight": "GNN-ASE@1",
    "no_severity": "GNN-ASE@2",
    "no_freq_features": "GNN-ASE@3",
}

ANOMALY_METRICS = ("accuracy", "recall", "f1")

# Recount tolerance: both sides are short exact-integer ratios, so any
# disagreement beyond roundoff is an accounting bug.
_RECOUNT_TOL = 1e-12


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_pairs(cls, truth, predicted) -> "ConfusionMatrix":
        if len(truth) != len(predicted):
            raise ValueError("truth and prediction lists differ in length")
        t = np.asarray(truth, dtype=bool)
        p = np.asarray(predicted, dtype=bool)
        return cls(
            tp=int(np.sum(t & p)),
            tn=int(np.sum(~t & ~p)),
            fp=int(np.sum(~t & p)),
            fn=int(np.sum(t & ~p)),
        )


@dataclass(frozen=True)
class TypeConfusion:
    """Per-class count matrix, rows true class, columns predicted class."""

    classes: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        k = len(self.classes)
        if self.counts.shape != (k, k):
            raise ValueError(f"count matrix must be {k}x{k}")
        if np.min(self.counts) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_pairs(cls, truth, predicted) -> "TypeConfusion":
        if len(truth) != len(predicted):
            raise ValueError("truth and prediction lists differ in length")
        index = {name: i for i, name in enumerate(TYPE_CLASSES)}
        counts = np.zeros((len(TYPE_CLASSES), len(TYPE_CLASSES)), dtype=int)
        for t, p in zip(truth, predicted):
            counts[index[t], index[p]] += 1
        return cls(classes=TYPE_CLASSES, counts=counts)

    def one_vs_rest(self, cls_index: int) -> ConfusionMatrix:
        tp = int(self.counts[cls_index, cls_index])
        fn = int(self.counts[cls_index].sum()) - tp
        fp = int(self.counts[:, cls_index].sum()) - tp
        return ConfusionMatrix(tp=tp, tn=self.total - tp - fn - fp, fp=fp, fn=fn)


def accuracy(cm) -> float:
    if cm.total == 0:
        raise UndefinedMetric("accuracy undefined on an empty sample")
    if isinstance(cm, TypeConfusion):
        return float(np.trace(cm.counts)) / cm.total
    return (cm.tp + cm.tn) / cm.total


def precision(cm: ConfusionMatrix) -> float:
    if cm.tp + cm.fp == 0:
        raise UndefinedMetric("precision undefined without positive predictions")
    return cm.tp / (cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> float:
    if cm.tp + cm.fn == 0:
        raise UndefinedMetric("recall undefined without positive samples")
    return cm.tp / (cm.tp + cm.fn)


def f1_score(cm: ConfusionMatrix) -> float:
    p = precision(cm)
    r = recall(cm)
    if p + r == 0:
        raise UndefinedMetric("F1 undefined when precision + recall is zero")
    return 2 * p * r / (p + r)


def _macro(metric, tc: TypeConfusion) -> float:
    """Average a one-vs-rest metric over the classes where it is defined."""
    values = []
    for i in range(len(tc.classes)):
        try:
            values.append(metric(tc.one_vs_rest(i)))
        except UndefinedMetric:
            continue
    if not values:
        raise UndefinedMetric("metric undefined for every class")
    return float(np.mean(values))


def macro_precision(tc: TypeConfusion) -> float:
    return _macro(precision, tc)


def macro_recall(tc: TypeConfusion) -> float:
    return _macro(recall, tc)


def macro_f1(tc: TypeConfusion) -> float:
    p = macro_precision(tc)
    r = macro_recall(tc)
    if p + r == 0:
        raise UndefinedMetric("macro F1 undefined when precision + recall is zero")
    return 2 * p * r / (p + r)


def metrics(cm) -> tuple[float, float, float]:
    """(accuracy, recall, F1); macro one-vs-rest for the multi-class task.

    Raises:
        UndefinedMetric: On any zero denominator. Callers assembling
            reports must leave such cells absent, never substitute 0.
    """
    if isinstance(cm, TypeConfusion):
        return accuracy(cm), macro_recall(cm), macro_f1(cm)
    return accuracy(cm), recall(cm), f1_score(cm)


def try_metric(metric, cm) -> float | None:
    try:
        return metric(cm)
    except UndefinedMetric:
        return None


def split(
    catalog: list[Recording],
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    seed: int = 0,
) -> tuple[list[Recording], list[Recording], list[Recording]]:
    """Stratified train/val/test split by (fault kind, severity).

    Each stratum is shuffled with its own derived seed and allocated by
    largest remainder; fractional residue carries across strata so the
    global sizes land within one recording of the requested ratios.

    Raises:
        EmptyCatalog: If the catalog is empty.
        InvalidRatios: If ratios are negative or do not sum to 1.
    """
    if not catalog:
        raise EmptyCatalog("cannot split an empty catalog")
    if len(ratios) != 3 or min(ratios) < 0:
        raise InvalidRatios(f"ratios must be three non-negative values, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidRatios(f"ratios must sum to 1, got {sum(ratios)}")

    strata: dict[tuple[str, float], list[Recording]] = {}
    for rec in catalog:
        strata.setdefault((rec.label.kind, rec.label.severity), []).append(rec)

    out: tuple[list[Recording], ...] = ([], [], [])
    carries = [0.0, 0.0, 0.0]
    for kind, severity in sorted(strata):
        items = sorted(strata[(kind, severity)], key=lambda r: r.name)
        rng = make_rng(derive_seed(seed, "split", kind, repr(severity)))
        order = [items[i] for i in rng.permutation(len(items))]

        exact = [ratios[j] * len(items) + carries[j] for j in range(3)]
        alloc = [int(math.floor(max(e, 0.0))) for e in exact]
        leftovers = sorted(range(3), key=lambda j: (-(exact[j] - alloc[j]), j))
        for j in leftovers[: len(items) - sum(alloc)]:
            alloc[j] += 1
        carries = [exact[j] - alloc[j] for j in range(3)]

        cursor = 0
        for j in range(3):
            out[j].extend(order[cursor : cursor + alloc[j]])
            cursor += alloc[j]
    return out


def featurize_splits(
    splits: Sequence[list[Recording]],
    pipeline: PipelineSettings,
) -> tuple:
    """Filter, window, standardize, and graph each split.

    The standardizer is fitted on the first (training) split's windows
    only and applied unchanged to the others.

    Returns:
        One list of graphs per split, in order, then the standardizer.
    """

    def windows_for(recordings):
        lists = []
        for rec in recordings:
            filtered = rec if pipeline.filter is None else filter_recording(rec, pipeline.filter)
            lists.append(extract_windows(filtered, pipeline.window, pipeline.include_frequency))
        return lists

    per_split = [windows_for(recs) for recs in splits]
    standardizer = Standardizer.fit([w.x for ws in per_split[0] for w in ws])
    names = feature_names(include_frequency=pipeline.include_frequency)

    def to_graphs(window_lists, recordings):
        graphs = []
        for rec, windows in zip(recordings, window_lists):
            scaled = [replace(w, x=standardizer.transform(w.x)) for w in windows]
            graphs.append(
                build_graph(scaled, rec.label, k=pipeline.neighbors, feature_names=names)
            )
        return graphs

    return (*(to_graphs(ws, recs) for ws, recs in zip(per_split, splits)), standardizer)


@dataclass(frozen=True)
class GraphPrediction:
    """Graph-level ground truth and model outputs for one recording."""

    source: str
    true_class: str | None
    true_severity: float
    anomaly_probability: float
    predicted_anomaly: bool
    predicted_class: str
    severity_score: float | None


def predict(
    graphs: list[SignalGraph], state: ModelState, config: ModelConfig
) -> list[GraphPrediction]:
    """Eval-mode predictions with the graph's stored edge weights."""
    predictions = []
    for g in graphs:
        diagnosis, _ = forward(g, state, config, train_mode=False)
        target = g.node_targets[0]
        predictions.append(
            GraphPrediction(
                source=g.source or "",
                true_class=target.fault_type,
                true_severity=target.severity,
                anomaly_probability=diagnosis.anomaly_probability,
                predicted_anomaly=diagnosis.is_anomalous,
                predicted_class=diagnosis.predicted_type,
                severity_score=diagnosis.severity_score,
            )
        )
    return predictions


def spearman_rank(predicted, injected) -> float | None:
    """Spearman rank correlation; None when ranks are degenerate."""
    if len(predicted) < 2 or len(set(predicted)) < 2 or len(set(injected)) < 2:
        return None
    from scipy import stats  # imported here so that commands which never rank skip scipy

    rho = stats.spearmanr(predicted, injected)[0]
    return None if np.isnan(rho) else float(rho)


def _recount_anomaly(subset: list[GraphPrediction]) -> dict[str, float | None]:
    """Brute-force metric recount straight from prediction/label pairs."""
    t = np.array([p.true_class is not None for p in subset])
    p = np.array([p.predicted_anomaly for p in subset])
    out: dict[str, float | None] = {
        "accuracy": float(np.mean(t == p)) if len(t) else None,
        "recall": float(np.sum(t & p) / np.sum(t)) if np.sum(t) else None,
    }
    prec = float(np.sum(t & p) / np.sum(p)) if np.sum(p) else None
    rec = out["recall"]
    if prec is None or rec is None or prec + rec == 0:
        out["f1"] = None
    else:
        out["f1"] = 2 * prec * rec / (prec + rec)
    return out


def _check_recount(computed: dict[str, float | None], recounted: dict[str, float | None], family: str):
    for name, value in computed.items():
        other = recounted[name]
        if (value is None) != (other is None):
            raise RuntimeError(f"recount mismatch for {family} {name}: {value} vs {other}")
        if value is not None and abs(value - other) > _RECOUNT_TOL:
            raise RuntimeError(f"recount mismatch for {family} {name}: {value} vs {other}")


def evaluate_predictions(
    predictions: list[GraphPrediction], variant: str, include_severity: bool = True
) -> list[tuple[str, str, str, float]]:
    """Per-family report rows; every metric double-checked by recount.

    Percent-valued rows: accuracy, recall, f1 (binary anomaly task) and
    type_accuracy, type_recall, type_f1 (3-class task over detected
    anomalies). severity_spearman rows stay in [-1, 1]. Undefined metrics
    are absent from the output.
    """
    rows: list[tuple[str, str, str, float]] = []
    for family in TYPE_CLASSES:
        subset = [p for p in predictions if p.true_class in (family, None)]
        if not subset:
            continue
        truth = [p.true_class is not None for p in subset]
        flagged = [p.predicted_anomaly for p in subset]
        cm = ConfusionMatrix.from_pairs(truth, flagged)
        computed = {
            "accuracy": try_metric(accuracy, cm),
            "recall": try_metric(recall, cm),
            "f1": try_metric(f1_score, cm),
        }
        _check_recount(computed, _recount_anomaly(subset), family)
        for name in ANOMALY_METRICS:
            if computed[name] is not None:
                rows.append((variant, family, name, 100.0 * computed[name]))

        detected = [p for p in subset if p.true_class is not None and p.predicted_anomaly]
        if detected:
            tc = TypeConfusion.from_pairs(
                [p.true_class for p in detected], [p.predicted_class for p in detected]
            )
            type_acc = try_metric(accuracy, tc)
            if type_acc is not None:
                correct = sum(p.predicted_class == p.true_class for p in detected)
                if abs(type_acc - correct / len(detected)) > _RECOUNT_TOL:
                    raise RuntimeError(f"recount mismatch for {family} type_accuracy")
                rows.append((variant, family, "type_accuracy", 100.0 * type_acc))
            for name, fn in (("type_recall", macro_recall), ("type_f1", macro_f1)):
                value = try_metric(fn, tc)
                if value is not None:
                    rows.append((variant, family, name, 100.0 * value))

        if include_severity:
            faulty = [p for p in predictions if p.true_class == family]
            rho = spearman_rank(
                [p.severity_score for p in faulty if p.severity_score is not None],
                [p.true_severity for p in faulty if p.severity_score is not None],
            )
            if rho is not None:
                rows.append((variant, family, "severity_spearman", rho))

    if include_severity:
        faulty = [p for p in predictions if p.true_class is not None and p.severity_score is not None]
        rho = spearman_rank(
            [p.severity_score for p in faulty], [p.true_severity for p in faulty]
        )
        if rho is not None:
            rows.append((variant, "overall", "severity_spearman", rho))
    return rows


@dataclass
class EvalReport:
    """Table-shaped evaluation results plus raw per-recording predictions."""

    rows: list[tuple[str, str, str, float]]
    split_sizes: tuple[int, int, int]
    seed: int
    header_lines: list[str] = field(default_factory=list)
    predictions: dict[str, list[GraphPrediction]] = field(default_factory=dict)

    def __post_init__(self):
        for variant, dataset, metric, value in self.rows:
            if metric == "severity_spearman":
                if not -1.0 <= value <= 1.0:
                    raise ValueError(f"{variant}/{dataset}/{metric} out of [-1,1]: {value}")
            elif not 0.0 <= value <= 100.0:
                raise ValueError(f"{variant}/{dataset}/{metric} out of [0,100]: {value}")

    def value(self, variant: str, dataset: str, metric: str) -> float | None:
        for row in self.rows:
            if row[:3] == (variant, dataset, metric):
                return row[3]
        return None

    def variants(self) -> list[str]:
        seen = []
        for variant, *_ in self.rows:
            if variant not in seen:
                seen.append(variant)
        return seen

    def to_csv(self) -> str:
        lines = ["variant,dataset,metric,value"]
        lines += [f"{v},{d},{m},{repr(x)}" for v, d, m, x in self.rows]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = list(self.header_lines)
        lines.append(
            f"seed {self.seed}; split sizes train/val/test = "
            f"{self.split_sizes[0]}/{self.split_sizes[1]}/{self.split_sizes[2]}"
        )
        metric_names = []
        for _, _, m, _ in self.rows:
            if m not in metric_names:
                metric_names.append(m)
        datasets = []
        for _, d, _, _ in self.rows:
            if d not in datasets:
                datasets.append(d)
        header = f"{'variant':<12} {'dataset':<14}" + "".join(
            f" {m:>17}" for m in metric_names
        )
        lines.append(header)
        lines.append("-" * len(header))
        for variant in self.variants():
            for dataset in datasets:
                cells = []
                any_value = False
                for m in metric_names:
                    value = self.value(variant, dataset, m)
                    if value is None:
                        cells.append(f" {'-':>17}")
                    else:
                        any_value = True
                        cells.append(f" {value:>17.2f}")
                if any_value:
                    lines.append(f"{variant:<12} {dataset:<14}" + "".join(cells))
        return "\n".join(lines) + "\n"


def predictions_to_csv(predictions: list[GraphPrediction]) -> str:
    """Raw prediction/label pairs; the recount source for report metrics."""
    lines = ["source,true_class,true_severity,anomaly_probability,predicted_anomaly,predicted_class,severity_score"]
    for p in predictions:
        lines.append(
            ",".join(
                [
                    p.source,
                    p.true_class or "healthy",
                    repr(p.true_severity),
                    repr(p.anomaly_probability),
                    str(int(p.predicted_anomaly)),
                    p.predicted_class,
                    "" if p.severity_score is None else repr(p.severity_score),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_ablation(
    catalog: list[Recording],
    base_config: ModelConfig,
    pipeline: PipelineSettings | None = None,
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    split_seed: int | None = None,
) -> EvalReport:
    """Train and evaluate the full model against the three ablations.

    All variants share one stratified split and one seed; the frequency
    ablation is refeaturized with time-domain features only. Rows are
    named GNN-ASE, GNN-ASE@1 (no reweighting), GNN-ASE@2 (no severity
    head), GNN-ASE@3 (no frequency features).
    """
    pipeline = pipeline or PipelineSettings()
    kinds = {rec.label.kind for rec in catalog if rec.label.is_faulty}
    missing = set(KIND_TO_CLASS) - kinds
    if missing:
        raise EmptyCatalog(f"catalog must span all fault families; missing {sorted(missing)}")
    if split_seed is None:
        split_seed = base_config.seed

    splits = split(catalog, ratios, seed=split_seed)
    with_freq = featurize_splits(splits, pipeline)
    time_only = featurize_splits(splits, replace(pipeline, include_frequency=False))

    rows: list[tuple[str, str, str, float]] = []
    predictions: dict[str, list[GraphPrediction]] = {}
    for ablation in ABLATIONS:
        config = replace(base_config, ablation=ablation)
        train_g, val_g, test_g, _ = time_only if ablation == "no_freq_features" else with_freq
        state, _ = train(train_g, config, val_dataset=val_g)
        variant = VARIANT_NAMES[ablation]
        predictions[variant] = predict(test_g, state, config)
        rows.extend(
            evaluate_predictions(
                predictions[variant], variant, include_severity=ablation != "no_severity"
            )
        )

    report = EvalReport(
        rows=rows,
        split_sizes=(len(splits[0]), len(splits[1]), len(splits[2])),
        seed=base_config.seed,
        header_lines=[
            f"shared split seed {split_seed}; training seed {base_config.seed}",
            "variants: GNN-ASE (full), @1 no reweighting, @2 no severity head, "
            "@3 time-domain features only",
        ],
        predictions=predictions,
    )
    return report


def mean_family_f1(report: EvalReport, variant: str) -> float | None:
    """Mean anomaly F1 across the three fault families."""
    values = [report.value(variant, family, "f1") for family in TYPE_CLASSES]
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None
