"""Tests for splitting, metrics, and the ablation harness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnnase import evaluate as ev
from gnnase.config import config_from_json
from gnnase.errors import EmptyCatalog, InvalidRatios, UndefinedMetric
from gnnase.features import WindowSpec
from gnnase.model import ModelConfig, PipelineSettings, init_state, train
from gnnase.preprocess import FilterSpec
from gnnase.simulate import (
    FaultSpec,
    MachineSpec,
    OperatingPoint,
    generate_catalog,
    synthesize,
)

SMALL_MACHINE = MachineSpec(sample_rate=2000, duration=0.5)


def small_catalog(seed=0, loads=(0, 30)):
    """Catalog spanning all families at a size unit tests can train on."""
    faults = [
        FaultSpec(kind="healthy"),
        FaultSpec(kind="eccentricity", subtype="static", severity=0.5),
        FaultSpec(kind="eccentricity", subtype="dynamic", severity=1.0),
        FaultSpec(kind="broken_bars", bar_count=1, severity=1 / 3),
        FaultSpec(kind="broken_bars", bar_count=3, severity=1.0),
        FaultSpec(kind="bearing", site="outer", severity=1 / 3),
        FaultSpec(kind="bearing", site="inner", severity=1.0),
    ]
    recordings = []
    for fault in faults:
        for load in loads:
            op = OperatingPoint.from_load(load)
            recordings.append(
                synthesize(SMALL_MACHINE, op, fault, seed=seed + len(recordings))
            )
    return recordings


SMALL_PIPELINE = PipelineSettings(
    window=WindowSpec(window_len=256, hop=128),
    filter=FilterSpec(cutoff=400.0, order=4),
    neighbors=2,
)


class TestConfusionMatrix:
    def test_from_pairs_hand_counts(self):
        cm = ev.ConfusionMatrix.from_pairs(
            [True, True, True, False, False, False],
            [True, True, False, False, True, False],
        )
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 1, 1)
        assert cm.total == 6

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ev.ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.ConfusionMatrix.from_pairs([True], [True, False])


class TestBinaryMetrics:
    def test_hand_computed_triple(self):
        cm = ev.ConfusionMatrix(tp=8, tn=5, fp=2, fn=1)
        acc, rec, f1 = ev.metrics(cm)
        assert round(acc, 4) == 0.8125
        assert round(rec, 4) == 0.8889
        assert round(f1, 4) == 0.8421

    def test_perfect_classifier(self):
        cm = ev.ConfusionMatrix(tp=7, tn=3, fp=0, fn=0)
        assert ev.metrics(cm) == (1.0, 1.0, 1.0)

    def test_f1_equals_common_value_when_precision_is_recall(self):
        cm = ev.ConfusionMatrix(tp=3, tn=5, fp=1, fn=1)
        assert ev.precision(cm) == ev.recall(cm) == 0.75
        assert ev.f1_score(cm) == pytest.approx(0.75)

    @given(
        tp=st.integers(0, 50),
        tn=st.integers(0, 50),
        fp=st.integers(0, 50),
        fn=st.integers(0, 50),
    )
    def test_accuracy_swap_invariant_recall_not(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        cm = ev.ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
        # Swapping the positive/negative convention permutes the counts.
        swapped = ev.ConfusionMatrix(tp=tn, tn=tp, fp=fn, fn=fp)
        assert ev.accuracy(cm) == ev.accuracy(swapped)

    def test_recall_changes_under_label_swap(self):
        cm = ev.ConfusionMatrix(tp=8, tn=5, fp=2, fn=1)
        swapped = ev.ConfusionMatrix(tp=5, tn=8, fp=1, fn=2)
        assert ev.recall(cm) != ev.recall(swapped)

    def test_undefined_metrics_raise(self):
        with pytest.raises(UndefinedMetric):
            ev.accuracy(ev.ConfusionMatrix(0, 0, 0, 0))
        with pytest.raises(UndefinedMetric):
            ev.recall(ev.ConfusionMatrix(tp=0, tn=5, fp=2, fn=0))
        with pytest.raises(UndefinedMetric):
            ev.precision(ev.ConfusionMatrix(tp=0, tn=5, fp=0, fn=2))
        with pytest.raises(UndefinedMetric):
            ev.f1_score(ev.ConfusionMatrix(tp=0, tn=5, fp=2, fn=2))

    def test_try_metric_absent_is_none_not_zero(self):
        value = ev.try_metric(ev.recall, ev.ConfusionMatrix(tp=0, tn=5, fp=2, fn=0))
        assert value is None


class TestTypeMetrics:
    def make_tc(self):
        truth = ["eccentricity"] * 4 + ["bar_breakage"] * 3 + ["bearing"] * 3
        pred = (
            ["eccentricity"] * 3
            + ["bearing"]
            + ["bar_breakage"] * 2
            + ["eccentricity"]
            + ["bearing"] * 3
        )
        return ev.TypeConfusion.from_pairs(truth, pred)

    def test_counts_and_accuracy(self):
        tc = self.make_tc()
        assert tc.total == 10
        assert ev.accuracy(tc) == pytest.approx(0.8)

    def test_one_vs_rest_counts(self):
        tc = self.make_tc()
        cm = tc.one_vs_rest(0)  # eccentricity
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 1, 1, 5)

    def test_macro_recall_hand(self):
        tc = self.make_tc()
        expected = np.mean([3 / 4, 2 / 3, 3 / 3])
        assert ev.macro_recall(tc) == pytest.approx(expected)

    def test_macro_f1_from_macro_precision_and_recall(self):
        tc = self.make_tc()
        p, r = ev.macro_precision(tc), ev.macro_recall(tc)
        assert ev.macro_f1(tc) == pytest.approx(2 * p * r / (p + r))

    def test_class_without_support_skipped_not_zeroed(self):
        tc = ev.TypeConfusion.from_pairs(
            ["eccentricity", "eccentricity"], ["eccentricity", "bearing"]
        )
        # Only the supported class contributes; absent classes never count as 0.
        assert ev.macro_recall(tc) == pytest.approx(0.5)

    def test_metrics_dispatches_macro(self):
        tc = self.make_tc()
        acc, rec, f1 = ev.metrics(tc)
        assert acc == pytest.approx(0.8)
        assert rec == pytest.approx(ev.macro_recall(tc))
        assert f1 == pytest.approx(ev.macro_f1(tc))


class TestSplit:
    def test_everything_in_train(self):
        catalog = small_catalog()
        train, val, test = ev.split(catalog, ratios=(1.0, 0.0, 0.0), seed=1)
        assert len(train) == len(catalog)
        assert val == [] and test == []

    def test_full_grid_sizes_and_disjointness(self):
        catalog = generate_catalog(MachineSpec(sample_rate=500, duration=0.1), seed=3)
        train, val, test = ev.split(catalog, seed=3)
        assert abs(len(train) - 70) <= 1
        assert abs(len(val) - 15) <= 1
        assert abs(len(test) - 15) <= 1
        names = [r.name for r in train + val + test]
        assert sorted(names) == sorted(r.name for r in catalog)
        assert len(set(names)) == len(catalog)

    def test_deterministic(self):
        catalog = small_catalog()
        first = ev.split(catalog, seed=5)
        second = ev.split(catalog, seed=5)
        assert [[r.name for r in part] for part in first] == [
            [r.name for r in part] for part in second
        ]

    def test_seed_changes_assignment(self):
        catalog = generate_catalog(MachineSpec(sample_rate=500, duration=0.1), seed=0)
        a = ev.split(catalog, seed=1)
        b = ev.split(catalog, seed=2)
        assert [r.name for r in a[0]] != [r.name for r in b[0]]

    def test_strata_all_present_in_train(self):
        catalog = generate_catalog(MachineSpec(sample_rate=500, duration=0.1), seed=7)
        train, _, _ = ev.split(catalog, seed=7)
        strata = {(r.label.kind, r.label.severity) for r in catalog}
        assert {(r.label.kind, r.label.severity) for r in train} == strata

    def test_empty_catalog_rejected(self):
        with pytest.raises(EmptyCatalog):
            ev.split([], seed=0)

    def test_bad_ratios_rejected(self):
        catalog = small_catalog()
        with pytest.raises(InvalidRatios):
            ev.split(catalog, ratios=(0.5, 0.2, 0.2), seed=0)
        with pytest.raises(InvalidRatios):
            ev.split(catalog, ratios=(1.2, -0.1, -0.1), seed=0)


class TestFeaturizeSplits:
    def test_graph_counts_and_dims(self):
        catalog = small_catalog()
        splits = ev.split(catalog, ratios=(0.6, 0.2, 0.2), seed=2)
        train_g, val_g, test_g, standardizer = ev.featurize_splits(splits, SMALL_PIPELINE)
        assert len(train_g) == len(splits[0])
        assert len(val_g) == len(splits[1])
        assert len(test_g) == len(splits[2])
        assert train_g[0].nodes[0].x.shape == (20,)
        assert standardizer.mean.shape == (20,)

    def test_time_only_dims(self):
        catalog = small_catalog()
        splits = ev.split(catalog, ratios=(0.6, 0.2, 0.2), seed=2)
        pipeline = PipelineSettings(
            window=SMALL_PIPELINE.window,
            filter=SMALL_PIPELINE.filter,
            neighbors=2,
            include_frequency=False,
        )
        train_g, _, _, standardizer = ev.featurize_splits(splits, pipeline)
        assert train_g[0].nodes[0].x.shape == (12,)
        assert all("f_dom" not in n and "h_spec" not in n for n in train_g[0].feature_names)

    def test_standardizer_fitted_on_train_only(self):
        catalog = small_catalog()
        splits = ev.split(catalog, ratios=(0.6, 0.2, 0.2), seed=4)
        train_g, _, _, _ = ev.featurize_splits(splits, SMALL_PIPELINE)
        stacked = np.vstack([g.feature_matrix() for g in train_g])
        assert np.abs(stacked.mean(axis=0)).max() < 1e-9
        # Dims with spread standardize to unit variance; constant dims stay 0.
        spread = stacked.std(axis=0)
        assert np.all((np.abs(spread - 1) < 1e-6) | (spread < 1e-6))


def make_predictions():
    """Eccentricity family with the hand-checked 8/5/2/1 confusion counts."""
    preds = []
    for i in range(9):  # 9 faulty, 8 detected
        detected = i < 8
        preds.append(
            ev.GraphPrediction(
                source=f"ecc{i}",
                true_class="eccentricity",
                true_severity=0.25 * (i % 4 + 1),
                anomaly_probability=0.9 if detected else 0.1,
                predicted_anomaly=detected,
                predicted_class="eccentricity" if i < 6 else "bearing",
                severity_score=0.2 * (i % 4 + 1),
            )
        )
    for i in range(7):  # 7 healthy, 2 false alarms
        flagged = i < 2
        preds.append(
            ev.GraphPrediction(
                source=f"healthy{i}",
                true_class=None,
                true_severity=0.0,
                anomaly_probability=0.6 if flagged else 0.2,
                predicted_anomaly=flagged,
                predicted_class="bearing",
                severity_score=0.05,
            )
        )
    return preds


class TestEvaluatePredictions:
    def test_anomaly_rows_match_hand_triple(self):
        rows = ev.evaluate_predictions(make_predictions(), "GNN-ASE")
        by_key = {(d, m): v for _, d, m, v in rows}
        assert by_key[("eccentricity", "accuracy")] == pytest.approx(81.25)
        assert by_key[("eccentricity", "recall")] == pytest.approx(100 * 8 / 9)
        assert by_key[("eccentricity", "f1")] == pytest.approx(100 * 16 / 19)

    def test_type_rows_over_detected_only(self):
        rows = ev.evaluate_predictions(make_predictions(), "GNN-ASE")
        by_key = {(d, m): v for _, d, m, v in rows}
        # 8 detected faulty, 6 typed correctly; the missed one and the
        # healthy false alarms stay out of the type accounting.
        assert by_key[("eccentricity", "type_accuracy")] == pytest.approx(100 * 6 / 8)

    def test_severity_rows(self):
        rows = ev.evaluate_predictions(make_predictions(), "GNN-ASE")
        by_key = {(d, m): v for _, d, m, v in rows}
        assert by_key[("eccentricity", "severity_spearman")] == pytest.approx(1.0)
        assert by_key[("overall", "severity_spearman")] == pytest.approx(1.0)

    def test_no_severity_rows_when_disabled(self):
        rows = ev.evaluate_predictions(make_predictions(), "GNN-ASE@2", include_severity=False)
        assert all(m != "severity_spearman" for _, _, m, _ in rows)

    def test_family_without_faulty_recordings_keeps_only_accuracy(self):
        # The family subset degenerates to the healthy recordings: recall,
        # F1, type, and severity rows are undefined and stay absent.
        rows = ev.evaluate_predictions(make_predictions(), "GNN-ASE")
        bar_rows = {m: v for _, d, m, v in rows if d == "bar_breakage"}
        assert set(bar_rows) == {"accuracy"}
        assert bar_rows["accuracy"] == pytest.approx(100 * 5 / 7)

    def test_undetected_family_has_no_f1_row(self):
        preds = [
            ev.GraphPrediction(
                source=f"b{i}",
                true_class="bearing",
                true_severity=1.0,
                anomaly_probability=0.1,
                predicted_anomaly=False,
                predicted_class="bearing",
                severity_score=0.1,
            )
            for i in range(3)
        ]
        rows = ev.evaluate_predictions(preds, "GNN-ASE")
        by_key = {(d, m): v for _, d, m, v in rows}
        assert ("bearing", "accuracy") in by_key
        assert ("bearing", "f1") not in by_key  # absent, never 0


class TestSpearman:
    def test_perfect_monotone(self):
        assert ev.spearman_rank([0.1, 0.4, 0.2], [1.0, 3.0, 2.0]) == pytest.approx(1.0)

    def test_reversed(self):
        assert ev.spearman_rank([3, 2, 1], [1, 2, 3]) == pytest.approx(-1.0)

    def test_degenerate_none(self):
        assert ev.spearman_rank([1.0, 1.0, 1.0], [1, 2, 3]) is None
        assert ev.spearman_rank([1.0], [1.0]) is None


class TestEvalReport:
    def make_report(self):
        rows = ev.evaluate_predictions(make_predictions(), "GNN-ASE")
        return ev.EvalReport(rows=rows, split_sizes=(10, 3, 3), seed=11)

    def test_csv_header_and_shape(self):
        report = self.make_report()
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "variant,dataset,metric,value"
        assert len(lines) == len(report.rows) + 1

    def test_value_lookup(self):
        report = self.make_report()
        assert report.value("GNN-ASE", "eccentricity", "accuracy") == pytest.approx(81.25)
        assert report.value("GNN-ASE", "bearing", "recall") is None

    def test_text_contains_variant_and_sizes(self):
        text = self.make_report().to_text()
        assert "GNN-ASE" in text
        assert "10/3/3" in text

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ev.EvalReport(
                rows=[("GNN-ASE", "bearing", "accuracy", 130.0)],
                split_sizes=(1, 1, 1),
                seed=0,
            )

    def test_predictions_csv_recount_matches_rows(self):
        preds = make_predictions()
        rows = ev.evaluate_predictions(preds, "GNN-ASE")
        csv_lines = ev.predictions_to_csv(preds).strip().split("\n")
        assert csv_lines[0].startswith("source,true_class,")
        parsed = [line.split(",") for line in csv_lines[1:]]
        truth = [row[1] != "healthy" for row in parsed]
        flagged = [row[4] == "1" for row in parsed]
        recount = ev.ConfusionMatrix.from_pairs(truth, flagged)
        by_key = {(d, m): v for _, d, m, v in rows}
        assert by_key[("eccentricity", "accuracy")] == pytest.approx(
            100 * ev.accuracy(recount)
        )


@pytest.fixture(scope="module")
def report():
    catalog = small_catalog(loads=(0, 10, 30))
    config = ModelConfig(
        embed_dim=16,
        gcn1_dim=8,
        gcn2_dim=8,
        severity_dim=4,
        epochs=4,
        batch_size=4,
        seed=5,
    )
    return ev.run_ablation(catalog, config, SMALL_PIPELINE, ratios=(0.6, 0.2, 0.2))


class TestRunAblation:

    def test_four_variants_present(self, report):
        assert report.variants() == ["GNN-ASE", "GNN-ASE@1", "GNN-ASE@2", "GNN-ASE@3"]

    def test_accuracy_cell_per_variant_and_family(self, report):
        for variant in ev.VARIANT_NAMES.values():
            for family in ("eccentricity", "bar_breakage", "bearing"):
                assert report.value(variant, family, "accuracy") is not None

    def test_severity_head_ablation_matches_full_exactly(self, report):
        for family in ("eccentricity", "bar_breakage", "bearing"):
            for metric in ("accuracy", "recall", "f1", "type_accuracy"):
                assert report.value("GNN-ASE", family, metric) == report.value(
                    "GNN-ASE@2", family, metric
                )

    def test_severity_rows_absent_for_at2(self, report):
        at2 = [m for v, _, m, _ in report.rows if v == "GNN-ASE@2"]
        assert "severity_spearman" not in at2

    def test_report_deterministic(self):
        catalog = small_catalog(loads=(0, 30))
        config = ModelConfig(
            embed_dim=16, gcn1_dim=8, gcn2_dim=8, severity_dim=4,
            epochs=2, batch_size=4, seed=9,
        )
        r1 = ev.run_ablation(catalog, config, SMALL_PIPELINE, ratios=(0.6, 0.2, 0.2))
        r2 = ev.run_ablation(catalog, config, SMALL_PIPELINE, ratios=(0.6, 0.2, 0.2))
        assert r1.rows == r2.rows

    def test_missing_family_rejected(self):
        catalog = [
            r for r in small_catalog() if r.label.kind in ("healthy", "bearing")
        ]
        with pytest.raises(EmptyCatalog):
            ev.run_ablation(catalog, ModelConfig(), SMALL_PIPELINE)

    def test_mean_family_f1_helper(self, report):
        value = ev.mean_family_f1(report, "GNN-ASE")
        assert value is None or 0.0 <= value <= 100.0


class TestPredict:
    def test_fields_populated(self):
        catalog = small_catalog(loads=(0,))
        splits = ev.split(catalog, ratios=(1.0, 0.0, 0.0), seed=0)
        graphs, _, _, _ = ev.featurize_splits(splits, SMALL_PIPELINE)
        config = ModelConfig(embed_dim=16, gcn1_dim=8, gcn2_dim=8, severity_dim=4)
        state = init_state(20, config)
        preds = ev.predict(graphs, state, config)
        assert len(preds) == len(graphs)
        healthy = [p for p in preds if p.true_class is None]
        assert healthy and healthy[0].true_severity == 0.0
        assert all(p.predicted_class in ("eccentricity", "bar_breakage", "bearing") for p in preds)
        assert all(0.0 <= p.anomaly_probability <= 1.0 for p in preds)


class TestSeverityHeadAlive:
    """The severity head keeps ranking faults on seeds where a ReLU head died."""

    @pytest.mark.parametrize("seed", [7, 12])
    def test_default_catalog_sixty_epochs(self, seed):
        config = config_from_json({"seed": seed, "model": {"epochs": 60}})
        catalog = generate_catalog(config.machine, config.simulate_seed(0), config.noise_snr_db)
        splits = ev.split(catalog, config.ratios, seed=config.split_seed())
        train_g, val_g, test_g, _ = ev.featurize_splits(splits, config.pipeline())
        state, _ = train(train_g, config.model, val_dataset=val_g)
        preds = ev.predict(test_g, state, config.model)
        faulty = [p.severity_score for p in preds if p.true_class is not None]
        assert faulty and 0.0 not in faulty
        rows = {(family, metric): value for _, family, metric, value in
                ev.evaluate_predictions(preds, "GNN-ASE")}
        assert rows.get(("overall", "severity_spearman"), float("nan")) >= 0.8
